"""Dense symmetric eigensolver (round-robin Jacobi) and multiplicity grouping.

This is the numeric oracle the closed-form spectra are checked against,
so it deliberately does not delegate to an external eigensolver.  Jacobi
sweeps use the round-robin ordering of Brent & Luk (SIAM J. Sci. Stat.
Comput. 6, 1985; Golub & Van Loan, Matrix Computations, section 8.5): each
of the m - 1 rounds of a sweep rotates m/2 disjoint pairs at once.  A round
is a fixed sequence of 15 array calls into buffers made once per solve, with
constants cached once per order, so it allocates nothing.  At the orders
verified here its cost is those calls, not their arithmetic, so each call
passes its output positionally and takes array operands, never Python floats.
Each pair gets the symmetric reflection H = [[c, -s], [-s, -c]] (a rotation
then a sign flip), so H A H is two products with one view over [c, -s, -c]
and sets the new diagonal; the gather to the next round's slots zeroes the
pivots a_pq and a_qp, copying them from a zero entry past the spare matrix.

``group_multiplicities`` is the package's one rule for grouping values
into multiplicities; the closed forms group their contributions with it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

DEFAULT_CONVERGENCE_TOL = 1e-12
DEFAULT_GROUPING_TOL = 1e-6
SWEEP_CAP = 100
# Added to each tangent's denominator (the working copy's largest entry is in
# [1/2, 1)): t = 0 when a_pq = 0 = a_qq - a_pp, and an a_pq at roundoff level
# between equal diagonal entries gets a small rotation, not a 45-degree one
# that mixes two rows and leaves clusters of equal eigenvalues converging linearly.
_GAP_FLOOR = 2.0**-52


class JacobiConvergenceError(RuntimeError):
    """Raised when the rotation sweeps fail to reach the requested tolerance."""


@dataclass(frozen=True)
class Multiset:
    """Eigenvalue multiset: ascending (value, multiplicity) pairs.

    ``Spectrum`` (numeric) and ``ClosedFormSpectrum`` extend it with their
    own provenance fields.
    """

    pairs: tuple[tuple[float, int], ...]

    @property
    def order(self) -> int:
        return sum(k for _, k in self.pairs)

    def expanded(self) -> list[float]:
        return [v for v, k in self.pairs for _ in range(k)]

    def values(self) -> list[float]:
        return [v for v, _ in self.pairs]

    def total(self) -> float:
        return float(sum(v * k for v, k in self.pairs))


@dataclass(frozen=True)
class Spectrum(Multiset):
    """A numeric multiset and the tolerance its values were grouped with."""

    grouping_tol: float = DEFAULT_GROUPING_TOL


def _check_tol(name: str, value: float, zero_ok: bool) -> None:
    """ValueError unless value is finite and positive (or zero, when zero_ok)."""
    if not (math.isfinite(value) and (value >= 0.0 if zero_ok else value > 0.0)):
        raise ValueError(f"{name} must be finite and {'non-negative' if zero_ok else 'positive'}")


def _expand(spectrum_like) -> list[float]:
    """A multiset's values with repeats, or a plain sequence's values, as floats."""
    if hasattr(spectrum_like, "expanded"):
        return list(spectrum_like.expanded())
    return [float(v) for v in spectrum_like]


@functools.lru_cache(maxsize=32)
def _round_plan(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What every round at order m reads: the flat gather index that moves an
    m x m matrix to the next round's slots, then length-m/2 arrays of
    _GAP_FLOOR and of 1.0 (a Python-float operand doubles a ufunc call's cost).

    A round rotates slots 2i and 2i+1, which sit at circle-method table
    positions i and m-1-i; position 0 stays, the others move one place on,
    and after m - 1 rounds every index is home.  The pivots' destinations
    gather index m*m, the zero entry past the spare matrix.  The two constant
    arrays are read-only; the index stays writable because take copies a
    read-only index on every call.
    """
    position = [k // 2 if k % 2 == 0 else m - 1 - k // 2 for k in range(m)]
    slot_at = {place: k for k, place in enumerate(position)}
    came_from = [0, m - 1, *range(1, m - 1)]  # position j takes position j-1's player
    source = np.array([slot_at[came_from[place]] for place in position], dtype=np.intp)
    gather = source[:, None] * m + source
    gather[(source[:, None] // 2 == source // 2) & (source[:, None] != source)] = m * m
    gap_floor, one = np.full(m // 2, _GAP_FLOOR), np.ones(m // 2)
    gap_floor.flags.writeable = one.flags.writeable = False
    return gather.ravel(), gap_floor, one


def _off_norm(work: np.ndarray, spare: np.ndarray) -> float:
    # squares the off-diagonal entries alone (spare is scratch): subtracting the
    # diagonal from the full Frobenius norm cancels catastrophically near convergence
    spare[...] = work
    spare.reshape(-1)[:: spare.shape[0] + 1] = 0.0
    return math.sqrt(float(np.vdot(spare, spare)))


def symmetric_eigenvalues(
    matrix: np.ndarray,
    convergence_tol: float = DEFAULT_CONVERGENCE_TOL,
    sweep_cap: int = SWEEP_CAP,
) -> np.ndarray:
    """All eigenvalues of a real symmetric matrix, ascending.

    Runs round-robin Jacobi sweeps until the off-diagonal Frobenius norm
    drops below convergence_tol times its initial value (or vanishes).
    Raises JacobiConvergenceError with diagnostics if sweep_cap sweeps
    do not get there, and ValueError for complex or non-finite input,
    for input with max|a - a^T| above 1e-10 * max|a|, or for a
    convergence_tol that is not finite and positive.
    """
    if np.iscomplexobj(matrix):
        raise ValueError("matrix entries must be real")
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    # one pass for finiteness and scale: a NaN or inf entry makes the max non-finite
    scale = float(np.abs(a).max()) if n else 0.0
    if not math.isfinite(scale):
        raise ValueError("matrix entries must be finite")
    _check_tol("convergence_tol", convergence_tol, zero_ok=False)
    if sweep_cap < 1:
        raise ValueError("sweep_cap must be at least 1")
    if n == 0:
        return np.empty(0)
    if float(np.abs(a - a.T).max()) > 1e-10 * scale:
        raise ValueError("matrix is not symmetric")
    if n == 1:
        return a.diagonal().copy()

    # work on 2**-exponent times the matrix so that no square over- or underflows
    exponent = math.frexp(scale)[1]
    values = _jacobi_diagonal(a, exponent, convergence_tol, sweep_cap)
    values.sort()  # after the solver's buffers are freed: sorting allocates
    return np.ldexp(values, exponent, out=values)


def _jacobi_diagonal(
    a: np.ndarray, exponent: int, convergence_tol: float, sweep_cap: int
) -> np.ndarray:
    """The diagonal, unsorted, that Jacobi sweeps reduce 2**-exponent * a to."""
    n = a.shape[0]
    m = n + n % 2  # an odd order gets a zero row and column, and they stay zero
    h = m // 2
    work, spare_buffer = np.zeros((m, m)), np.zeros(m * m + 1)  # spare, then a zero
    spare = spare_buffer[: m * m].reshape(m, m)
    spare_t = spare.T
    work[:n, :n] = a
    np.ldexp(work, -1 - exponent, out=work)
    spare[...] = work.T
    np.add(work, spare, work)  # the exact symmetric part
    flat_work = work.reshape(-1)
    pairs_work, pairs_spare = work.reshape(h, 2, m), spare.reshape(h, 2, m)
    step = 2 * (m + 1)  # from one pair's 2x2 diagonal block to the next
    app, apq, aqq = (flat_work[start::step] for start in (0, 1, m + 1))
    reflection_buffer = np.empty((h, 3))  # [c, -s, -c], read as H per pair
    cos, minus_sin, minus_cos = reflection_buffer.T
    reflection = np.ndarray((h, 2, 2), float, reflection_buffer, 0, (24, 8, 8))
    gap, t, norm = np.empty(h), np.empty(h), np.empty(h)
    gather, gap_floor, one = _round_plan(m)

    initial = _off_norm(work, spare)
    target = convergence_tol * initial
    if initial > 0.0:
        for _ in range(sweep_cap):
            for _ in range(m - 1):
                # t = tan of the angle that zeroes a_pq, with d = a_qq - a_pp:
                # 2 a_pq / (d + sign(d) (hypot(d, 2 a_pq) + _GAP_FLOOR))
                np.subtract(aqq, app, gap)
                np.add(apq, apq, t)
                np.hypot(gap, t, norm)
                np.add(norm, gap_floor, norm)
                np.copysign(norm, gap, norm)
                np.add(norm, gap, norm)
                np.divide(t, norm, t)
                np.hypot(t, one, norm)
                np.reciprocal(norm, cos)
                np.negative(cos, minus_cos)
                np.multiply(t, minus_cos, minus_sin)
                np.matmul(reflection, pairs_work, pairs_spare)  # H A
                work[...] = spare_t
                np.matmul(reflection, pairs_work, pairs_spare)  # H A H
                # to the next round's slots; the pivots, at roundoff level, become 0
                spare_buffer.take(gather, None, flat_work, "clip")
            remaining = _off_norm(work, spare)
            if remaining <= target:
                break
        else:
            raise JacobiConvergenceError(
                f"no convergence after {sweep_cap} sweeps: "
                f"off-diagonal norm {math.ldexp(remaining, exponent):.3e}, "
                f"target {math.ldexp(target, exponent):.3e} "
                f"(initial {math.ldexp(initial, exponent):.3e})"
            )
    return flat_work[: n * (m + 1) : m + 1].copy()


def group_multiplicities(values, grouping_tol: float = DEFAULT_GROUPING_TOL) -> Spectrum:
    """Merge ascending values into groups no wider than grouping_tol.

    A value joins the current group while it lies within grouping_tol of
    the group's first value, so a chain of small gaps cannot grow a group
    past that width.  The representative of each group is its arithmetic
    mean.  Raises ValueError unless grouping_tol is finite and non-negative.
    """
    _check_tol("grouping_tol", grouping_tol, zero_ok=True)
    vals = [float(v) for v in values]
    if any(not math.isfinite(v) for v in vals):
        raise ValueError("values must be finite")
    if any(b < a for a, b in zip(vals, vals[1:])):
        raise ValueError("values must be sorted ascending")
    pairs: list[tuple[float, int]] = []
    group: list[float] = []
    for v in vals:
        if group and v - group[0] > grouping_tol:
            pairs.append((sum(group) / len(group), len(group)))
            group = []
        group.append(v)
    if group:
        pairs.append((sum(group) / len(group), len(group)))
    return Spectrum(tuple(pairs), grouping_tol)
