"""Closed-form spectra for fan graphs and hub-matched fan pairs.

Every function returns an ``eigen.Spectrum`` tagged with its ``source``,
whose total multiplicity equals the vertex count of the target graph.
Three of the stated closed forms are internally inconsistent; the corrected
multiset is returned and the discrepancy recorded in ``errata_notes``:

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

Every closed form is one call to the skeleton ``_spectrum``: the eigenvalue
0, integer (value, multiplicity) terms, both roots of each integer quadratic
factor x^2 - b x + c, and offset + scale * v for every base value v of each
part, with integer offset and scale.  The bases are float sequences: a join
part's nonzero-slot eigenvalues, the path's nonzero Laplacian eigenvalues
2 - 2 cos(pi j / n), or, for the fan distance Laplacian, cos(pi j / n).  The
two path bases are tuples computed once per n, by ``_path_values`` and
``_cosines`` behind a bounded lru_cache (256 orders), so a form evaluated
again at the same n reads them (22-37 us a form at matrix-family sizes).
Only private helpers are cached: the public forms stay plain functions,
which a tracer can rebind.
Only the skeleton turns integers into doubles (no symbolic layer).  It
never lists a value once per copy: each term, root and part value is one
(value, multiplicity) atom, and the atoms are grouped by
``eigen.group_multiplicities``' rule at its default width, the rule that
groups numeric spectra, so values a formula gives through two routes merge.
A group's mean still adds every copy left to right from 0.  Which family and
kind each closed form belongs to is recorded once, in the case table
``verify.FAMILIES``.

The paper's 4x4 quotients and quartics are not typed here:
``quotient_matrix(laplacian_matrix(nc_graph(m, n)), nc_partition(m, n))``
computes the quotient, and the tests check the stated ones against it.
"""

from __future__ import annotations

import functools
import math

from .eigen import Spectrum, _check_sizes, _group_atoms, _sorted_values

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


def _spectrum(source: str, terms, parts=(), quadratics=(), errata=()) -> Spectrum:
    """The one skeleton of every closed form: 0, each (value, multiplicity) term,
    both roots of x^2 - b x + c for each integer (b, c) of quadratics, and
    offset + scale * v with multiplicity k for each base value v of each
    (base, offset, scale, k) part.  Each is one (value, multiplicity) atom, computed
    once; the atoms of multiplicity > 0 are grouped by group_multiplicities' rule at
    its default width, and give the pairs it gives over every copy, bit for bit.

    Every quadratic here has real roots: its discriminant is a sum of squares,
    (m+n+2)^2 - 8m = (m+n-2)^2 + 8n for L and
    (9(m+n)-4)^2 - 4c = (3(n-m)+4)^2 + 4mn for D^L."""
    atoms = [(0.0, 1)] + [(float(value), k) for value, k in terms if k]
    for b, c in quadratics:
        b, root = float(b), math.sqrt(float(b) * float(b) - 4.0 * float(c))
        atoms += [((b - root) / 2.0, 1), ((b + root) / 2.0, 1)]
    for base, offset, scale, k in parts:
        atoms += [(offset + scale * v, k) for v in base if k]
    atoms.sort()
    pairs = _group_atoms(*zip(*atoms)).pairs
    return Spectrum(pairs, source=source, errata_notes=tuple(errata))


@functools.lru_cache(maxsize=256)
def _cosines(n: int) -> tuple[float, ...]:
    """cos(pi j / n), j = 1..n-1: computed once per n."""
    return tuple(math.cos(math.pi * j / n) for j in range(1, n))


@functools.lru_cache(maxsize=256)
def _path_values(n: int) -> tuple[float, ...]:
    """The n-path's nonzero Laplacian eigenvalues 2 - 2 cos(pi j / n), j = 1..n-1: once per n."""
    return tuple(2.0 - 2.0 * c for c in _cosines(n))


def _consume_zero(spectrum_like, order: int, what: str) -> list[float]:
    """Expand a full Laplacian spectrum, check it contains 0 (to 1e-6), and drop one copy."""
    values = _sorted_values(spectrum_like)
    if len(values) != order:
        raise ValueError(f"{what} has {len(values)} eigenvalues, expected {order}")
    if abs(values[0]) > 1e-6:
        raise ValueError(f"{what} lacks the eigenvalue 0 required of a Laplacian spectrum")
    return values[1:]


def join_laplacian_spectrum(spec1, n1: int, spec2, n2: int) -> Spectrum:
    """Laplacian spectrum of a join from the two parts' full Laplacian spectra.

    The result is {0, n1+n2} together with every nonzero-slot eigenvalue
    of the first part shifted by n2 and of the second part shifted by n1.
    """
    n1, n2 = _check_sizes("join spectrum", 1, n1=n1, n2=n2)
    rest1 = _consume_zero(spec1, n1, "first spectrum")
    rest2 = _consume_zero(spec2, n2, "second spectrum")
    return _spectrum("join-laplacian", [(n1 + n2, 1)], [(rest1, n2, 1, 1), (rest2, n1, 1, 1)])


def join_distance_laplacian_spectrum(spec1, n1: int, spec2, n2: int) -> Spectrum:
    """Distance Laplacian spectrum of a join from the parts' Laplacian spectra.

    Valid for arbitrary simple parts because a join has diameter <= 2:
    {0, n1+n2} plus n2+2n1-lambda_i and n1+2n2-mu_j over the nonzero-slot
    eigenvalues of the two parts.
    """
    n1, n2 = _check_sizes("join spectrum", 1, n1=n1, n2=n2)
    rest1 = _consume_zero(spec1, n1, "first spectrum")
    rest2 = _consume_zero(spec2, n2, "second spectrum")
    parts = [(rest1, n2 + 2 * n1, -1, 1), (rest2, n1 + 2 * n2, -1, 1)]
    return _spectrum("join-distance-laplacian", [(n1 + n2, 1)], parts)


def fan_laplacian_spectrum(m: int, n: int) -> Spectrum:
    """Laplacian spectrum of the (m, n) fan, the join of P_n and m K_1.

    {0, m+n}, n with multiplicity m-1, and m + 2 - 2 cos(pi j / n) for
    j = 1..n-1.
    """
    m, n = _check_sizes("fan spectrum", 1, m=m, n=n)
    return _spectrum("fan-laplacian", [(m + n, 1), (n, m - 1)], [(_path_values(n), m, 1, 1)])


def fan_distance_laplacian_spectrum(m: int, n: int) -> Spectrum:
    """Distance Laplacian spectrum of the (m, n) fan (corrected form).

    {0, m+n}, n+2m with multiplicity m-1, and m + 2n - 2 + 2 cos(pi j / n)
    for j = 1..n-1.  The join map's m + 2n - lambda_j is the same value, but
    its rounding differs in the last bits for some (m, n), so the cosines
    are scaled here instead.
    """
    m, n = _check_sizes("fan spectrum", 1, m=m, n=n)
    terms = [(m + n, 1), (n + 2 * m, m - 1)]
    parts = [(_cosines(n), m + 2 * n - 2, 2, 1)]
    return _spectrum("fan-distance-laplacian", terms, parts, errata=(FAN_DISTANCE_LAPLACIAN_NOTE,))


def fan_distance_laplacian_as_stated(m: int, n: int) -> list[float]:
    """The uncorrected fan distance-Laplacian multiset: m+n+1 values, sorted.

    Kept only so the cardinality defect can be demonstrated; it is not a
    valid spectrum for the (m+n)-vertex fan.
    """
    m, n = _check_sizes("fan spectrum", 1, m=m, n=n)
    values = [0.0, float(m + n)] + [float(m + n)] * (m - 1)
    values += [m + 2 * n - 2 + 2 * c for c in (1.0, *_cosines(n))]  # cos 0 is 1.0 exactly
    return sorted(values)


def nc_laplacian_spectrum(m: int, n: int) -> Spectrum:
    """Laplacian spectrum of the hub-matched fan pair (corrected form).

    m + 2(1 - cos(pi j / n)) twice for j = 1..n-1, n and n+2 each with
    multiplicity m-1, {0, m+n}, and the two roots of
    x^2 - (m+n+2) x + 2m.
    """
    m, n = _check_sizes("pair-class spectrum", 2, m=m, n=n)
    terms = [(m + n, 1), (n, m - 1), (n + 2, m - 1)]
    parts = [(_path_values(n), m, 1, 2)]
    return _spectrum("nc-laplacian", terms, parts, [(m + n + 2, 2 * m)], (NC_LAPLACIAN_NOTE,))


def nc_distance_laplacian_spectrum(m: int, n: int) -> Spectrum:
    """Distance Laplacian spectrum of the hub-matched fan pair (corrected form).

    5n + 3m - lambda_j twice over the nonzero path Laplacian eigenvalues,
    3n+5m and 3n+5m-4 each with multiplicity m-1, {0, 3(n+m)}, and
    (9(n+m) - 4)/2 +- sqrt(A)/2 with A = 9n^2 + 9m^2 - 14nm + 24n - 24m + 16.
    """
    m, n = _check_sizes("pair-class spectrum", 2, m=m, n=n)
    terms = [(3 * (n + m), 1), (3 * n + 5 * m, m - 1), (3 * n + 5 * m - 4, m - 1)]
    parts = [(_path_values(n), 5 * n + 3 * m, -1, 2)]
    c = 18 * n * n + 44 * n * m + 18 * m * m - 24 * n - 12 * m
    factors = [(9 * (n + m) - 4, c)]
    return _spectrum("nc-distance-laplacian", terms, parts, factors, (NC_DISTANCE_LAPLACIAN_NOTE,))
