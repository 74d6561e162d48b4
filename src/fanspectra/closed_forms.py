"""Closed-form spectra for fan graphs and hub-matched fan pairs.

Every function returns an explicit eigenvalue multiset whose total
multiplicity equals the vertex count of the target graph.  Three of the
stated closed forms are internally inconsistent; the corrected multiset
is returned and the discrepancy recorded in ``errata_notes``:

* fan distance Laplacian: the stated multiset carries m+n+1 values for
  an (m+n)-vertex graph.  Substituting the null-graph and path Laplacian
  eigenvalues into the join formula gives the corrected multiset: hub
  eigenvalue n+2m with multiplicity m-1, and path terms for j = 1..n-1
  only.  ``fan_distance_laplacian_as_stated`` reproduces the oversized
  multiset so callers can demonstrate its rejection.
* pair-class Laplacian: the stated quadratic root pair has root sum m+n,
  but the quotient's quartic factors exactly as
  x (x - (m+n)) (x^2 - (m+n+2) x + 2m), whose quadratic factor has root
  sum m+n+2.  The roots of the factored quartic are returned; the stated
  pair is never evaluated.
* pair-class distance Laplacian: the stated hub pair
  {3n+5m-4, 3n+5m-2} conflicts with its own eigenvector derivation,
  which yields {3n+5m, 3n+5m-4}.  The derived pair passes the trace
  identity and is returned.

Values are plain double-precision reals (no symbolic layer).  When a
formula produces the same eigenvalue through two routes, the
contributions are grouped by ``eigen.group_multiplicities`` at
``MERGE_TOL`` = 1e-9, the same rule that groups numeric spectra.
Which family and kind each closed form belongs to is recorded once, in
the case table ``verify.FAMILIES``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .eigen import Multiset, _expand, group_multiplicities
from .quotient import QuotientMatrix

MERGE_TOL = 1e-9

FAN_DISTANCE_LAPLACIAN_NOTE = (
    "stated multiset has m+n+1 entries for an (m+n)-vertex graph; corrected via the "
    "join formula: hub eigenvalue n+2m (multiplicity m-1), path terms for j=1..n-1"
)
NC_LAPLACIAN_NOTE = (
    "stated quadratic root pair has root sum m+n, inconsistent with the quotient "
    "quartic x(x-(m+n))(x^2-(m+n+2)x+2m); the roots of x^2-(m+n+2)x+2m are used"
)
NC_DISTANCE_LAPLACIAN_NOTE = (
    "stated hub eigenvalue pair {3n+5m-4, 3n+5m-2} fails the trace identity; the "
    "eigenvector derivation gives {3n+5m, 3n+5m-4}, which is used"
)


@dataclass(frozen=True)
class ClosedFormSpectrum(Multiset):
    """Eigenvalue multiset produced by a closed form, with provenance tag."""

    source: str
    errata_notes: tuple[str, ...] = field(default=())


def _spectrum(contributions, source: str, errata: tuple[str, ...] = ()) -> ClosedFormSpectrum:
    """Group (value, multiplicity) contributions with group_multiplicities at MERGE_TOL."""
    values = sorted(float(v) for v, k in contributions for _ in range(k))
    return ClosedFormSpectrum(group_multiplicities(values, MERGE_TOL).pairs, source, errata)


def path_laplacian_eigenvalue(n: int, j: int) -> float:
    """2 - 2 cos(pi j / n), the j-th Laplacian eigenvalue of the n-path."""
    return 2.0 - 2.0 * math.cos(math.pi * j / n)


def path_laplacian_spectrum(n: int) -> ClosedFormSpectrum:
    """Laplacian eigenvalues of the n-vertex path: 2 - 2 cos(pi j / n), j = 0..n-1."""
    if n < 1:
        raise ValueError("path spectrum requires n >= 1")
    return _spectrum(
        [(path_laplacian_eigenvalue(n, j), 1) for j in range(n)],
        source="path-laplacian",
    )


def _consume_zero(spectrum_like, order: int, what: str, zero_tol: float = 1e-6) -> list[float]:
    """Expand a full Laplacian spectrum, check it contains 0, and drop one copy."""
    values = sorted(_expand(spectrum_like))
    if len(values) != order:
        raise ValueError(f"{what} has {len(values)} eigenvalues, expected {order}")
    if abs(values[0]) > zero_tol:
        raise ValueError(f"{what} lacks the eigenvalue 0 required of a Laplacian spectrum")
    return values[1:]


def join_laplacian_spectrum(spec1, n1: int, spec2, n2: int) -> ClosedFormSpectrum:
    """Laplacian spectrum of a join from the two parts' full Laplacian spectra.

    The result is {0, n1+n2} together with every nonzero-slot eigenvalue
    of the first part shifted by n2 and of the second part shifted by n1.
    """
    rest1 = _consume_zero(spec1, n1, "first spectrum")
    rest2 = _consume_zero(spec2, n2, "second spectrum")
    contributions = [(0.0, 1), (float(n1 + n2), 1)]
    contributions += [(v + n2, 1) for v in rest1]
    contributions += [(v + n1, 1) for v in rest2]
    return _spectrum(contributions, source="join-laplacian")


def join_distance_laplacian_spectrum(spec1, n1: int, spec2, n2: int) -> ClosedFormSpectrum:
    """Distance Laplacian spectrum of a join from the parts' Laplacian spectra.

    Valid for arbitrary simple parts because a join has diameter <= 2:
    {0, n1+n2} plus n2+2n1-lambda_i and n1+2n2-mu_j over the nonzero-slot
    eigenvalues of the two parts.
    """
    rest1 = _consume_zero(spec1, n1, "first spectrum")
    rest2 = _consume_zero(spec2, n2, "second spectrum")
    contributions = [(0.0, 1), (float(n1 + n2), 1)]
    contributions += [(n2 + 2 * n1 - v, 1) for v in rest1]
    contributions += [(n1 + 2 * n2 - v, 1) for v in rest2]
    return _spectrum(contributions, source="join-distance-laplacian")


def fan_laplacian_spectrum(m: int, n: int) -> ClosedFormSpectrum:
    """Laplacian spectrum of the (m, n) fan.

    {0, m+n}, n with multiplicity m-1, and m + 2 - 2 cos(pi j / n) for
    j = 1..n-1.
    """
    if m < 1 or n < 1:
        raise ValueError("fan spectrum requires m >= 1 and n >= 1")
    contributions = [(0.0, 1), (float(m + n), 1), (float(n), m - 1)]
    contributions += [(m + path_laplacian_eigenvalue(n, j), 1) for j in range(1, n)]
    return _spectrum(contributions, source="fan-laplacian")


def fan_distance_laplacian_spectrum(m: int, n: int) -> ClosedFormSpectrum:
    """Distance Laplacian spectrum of the (m, n) fan (corrected form).

    {0, m+n}, n+2m with multiplicity m-1, and m + 2n - 2 + 2 cos(pi j / n)
    for j = 1..n-1.
    """
    if m < 1 or n < 1:
        raise ValueError("fan spectrum requires m >= 1 and n >= 1")
    contributions = [(0.0, 1), (float(m + n), 1), (float(n + 2 * m), m - 1)]
    contributions += [
        (m + 2 * n - 2 + 2 * math.cos(math.pi * j / n), 1) for j in range(1, n)
    ]
    return _spectrum(
        contributions,
        source="fan-distance-laplacian",
        errata=(FAN_DISTANCE_LAPLACIAN_NOTE,),
    )


def fan_distance_laplacian_as_stated(m: int, n: int) -> list[float]:
    """The uncorrected fan distance-Laplacian multiset: m+n+1 values, sorted.

    Kept only so the cardinality defect can be demonstrated; it is not a
    valid spectrum for the (m+n)-vertex fan.
    """
    values = [0.0, float(m + n)] + [float(m + n)] * (m - 1)
    values += [m + 2 * n - 2 + 2 * math.cos(math.pi * j / n) for j in range(n)]
    return sorted(values)


def _quadratic_roots(b: float, c: float) -> tuple[float, float]:
    """Roots of x^2 - b x + c, ascending."""
    disc = b * b - 4.0 * c
    if disc < 0.0:
        raise ValueError(f"negative discriminant {disc} for x^2 - {b}x + {c}")
    root = math.sqrt(disc)
    return ((b - root) / 2.0, (b + root) / 2.0)


def nc_laplacian_spectrum(m: int, n: int) -> ClosedFormSpectrum:
    """Laplacian spectrum of the hub-matched fan pair (corrected form).

    m + 2(1 - cos(pi j / n)) twice for j = 1..n-1, n and n+2 each with
    multiplicity m-1, {0, m+n}, and the two roots of
    x^2 - (m+n+2) x + 2m.
    """
    if m < 2 or n < 2:
        raise ValueError("pair-class spectrum requires m >= 2 and n >= 2")
    lo, hi = _quadratic_roots(float(m + n + 2), 2.0 * m)
    contributions = [
        (0.0, 1),
        (float(m + n), 1),
        (float(n), m - 1),
        (float(n + 2), m - 1),
        (lo, 1),
        (hi, 1),
    ]
    contributions += [(m + path_laplacian_eigenvalue(n, j), 2) for j in range(1, n)]
    return _spectrum(contributions, source="nc-laplacian", errata=(NC_LAPLACIAN_NOTE,))


def nc_distance_laplacian_spectrum(m: int, n: int) -> ClosedFormSpectrum:
    """Distance Laplacian spectrum of the hub-matched fan pair (corrected form).

    5n + 3m - lambda_j twice over the nonzero path Laplacian eigenvalues,
    3n+5m and 3n+5m-4 each with multiplicity m-1, {0, 3(n+m)}, and
    (9(n+m) - 4)/2 +- sqrt(A)/2 with
    A = 9n^2 + 9m^2 - 14nm + 24n - 24m + 16.
    """
    if m < 2 or n < 2:
        raise ValueError("pair-class spectrum requires m >= 2 and n >= 2")
    lo, hi = _quadratic_roots(
        float(9 * (n + m) - 4),
        float(18 * n * n + 44 * n * m + 18 * m * m - 24 * n - 12 * m),
    )
    contributions = [
        (0.0, 1),
        (float(3 * (n + m)), 1),
        (float(3 * n + 5 * m), m - 1),
        (float(3 * n + 5 * m - 4), m - 1),
        (lo, 1),
        (hi, 1),
    ]
    contributions += [
        (5 * n + 3 * m - path_laplacian_eigenvalue(n, j), 2) for j in range(1, n)
    ]
    return _spectrum(
        contributions,
        source="nc-distance-laplacian",
        errata=(NC_DISTANCE_LAPLACIAN_NOTE,),
    )


def nc_laplacian_quotient(m: int, n: int) -> QuotientMatrix:
    """The 4x4 quotient of the pair-class Laplacian under the canonical partition."""
    if m < 2 or n < 2:
        raise ValueError("pair-class quotient requires m >= 2 and n >= 2")
    b = np.array(
        [
            [m, -m, 0, 0],
            [-n, n + 1, -1, 0],
            [0, -1, n + 1, -n],
            [0, 0, -m, m],
        ],
        dtype=float,
    )
    return QuotientMatrix(b, (n, m, m, n))


def nc_distance_laplacian_quotient(m: int, n: int) -> QuotientMatrix:
    """The 4x4 quotient of the pair-class distance Laplacian, canonical partition."""
    if m < 2 or n < 2:
        raise ValueError("pair-class quotient requires m >= 2 and n >= 2")
    s = 3 * (n + m)
    b = np.array(
        [
            [s, -m, -2 * m, -3 * n],
            [-n, s - 2, -(3 * m - 2), -2 * n],
            [-2 * n, -(3 * m - 2), s - 2, -n],
            [-3 * n, -2 * m, -m, s],
        ],
        dtype=float,
    )
    return QuotientMatrix(b, (n, m, m, n))


def nc_laplacian_quotient_charpoly(m: int, n: int) -> tuple[int, int, int, int, int]:
    """Coefficients (x^4 first) of the pair-class Laplacian quotient's char. poly."""
    return (
        1,
        -2 * m - 2 * n - 2,
        m * m + 2 * m * n + n * n + 4 * m + 2 * n,
        -2 * m * m - 2 * m * n,
        0,
    )


def nc_laplacian_quotient_charpoly_factored(m: int, n: int) -> tuple[int, int, int, int, int]:
    """The same polynomial assembled from x (x - (m+n)) (x^2 - (m+n+2) x + 2m)."""
    poly = _poly_multiply((1, 0), (1, -(m + n)))
    poly = _poly_multiply(poly, (1, -(m + n + 2), 2 * m))
    return tuple(poly)


def nc_distance_laplacian_quotient_charpoly(m: int, n: int) -> tuple[int, int, int, int, int]:
    """Coefficients (x^4 first) of the pair-class distance-Laplacian quotient's char. poly."""
    return (
        1,
        -12 * m - 12 * n + 4,
        45 * m * m + 98 * m * n + 45 * n * n - 24 * m - 36 * n,
        (
            -54 * m ** 3
            - 186 * m * m * n
            - 186 * m * n * n
            - 54 * n ** 3
            + 36 * m * m
            + 108 * m * n
            + 72 * n * n
        ),
        0,
    )


def _poly_multiply(a, b) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def evaluate_polynomial(coefficients, x: float) -> float:
    """Horner evaluation; coefficients ordered highest degree first."""
    acc = 0.0
    for c in coefficients:
        acc = acc * x + c
    return acc

