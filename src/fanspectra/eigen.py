"""Dense symmetric eigensolver (round-robin Jacobi) and multiplicity grouping.

This is the numeric oracle the closed-form spectra are checked against,
so it deliberately does not delegate to an external eigensolver.  Jacobi
sweeps use the round-robin ordering of Brent & Luk (SIAM J. Sci. Stat.
Comput. 6, 1985; Golub & Van Loan, Matrix Computations, section 8.5): each
of the m - 1 rounds of a sweep rotates m/2 disjoint pairs at once.  A round
is a fixed sequence of 14 array calls (8 build the rotations, 6 apply them)
into buffers made once per solve, with its ufuncs bound once per solve and
the gather cached once per order, so it allocates nothing.  At the orders
verified here its cost is those calls, not their arithmetic, so each call
passes its output positionally and takes array operands, never Python floats.
Each pair (2i, 2i+1) gets the rotation J = [[c, s], [-s, c]] (Golub & Van
Loan, symSchur2), read off one complex pivot per pair,
u = (d + sign(d) hypot(hypot(d, 2 a_pq), f)) + 2i a_pq with d = a_qq - a_pp
and the gap floor f below, whose Im u / Re u is the tangent that zeroes a_pq:
d and 2 a_pq are written through the real and imaginary views of one buffer,
and one complex divide by hypot(Re u, Im u) + 0i normalises u in place to
c + i s (np.hypot on the two views: np.absolute on the complex array rounds
less accurately).  When d < 0 that is
-(c + i s), and -J gives the same J^T A J.  The pivots' float view is the
phase row c_0, s_0, c_1, s_1, ....  Read as complex128, row r of a matrix
holds the numbers A[r, 2i] + i A[r, 2i+1], so A J is that view times
c_i + i s_i: the round writes the phase row into every row of whichever
buffer is free, multiplies (A J), copies the transpose (J^T A) and multiplies
again (J^T A J).  The gather to the next round's slots is a pure permutation:
the pivots a_pq and a_qp move with the rest, and nothing is set to zero by fiat.

The first sweep takes the least gap floor, _GAP_FLOOR, so every pair gets its
exact rotation and an isolated pair is finished in one sweep; each later
sweep takes max(_GAP_FLOOR, _FLOOR_SHARE * the off-norm the previous sweep
left).  Inside a cluster of equal diagonal entries a tiny a_pq would otherwise
get a large rotation that moves mass not yet annihilated back into entries the
sweep has already zeroed, and the sweeps converge only linearly; with the
floor such a pair gets a rotation near zero, while every other pair gets its
exact one up to a second-order error.  A rotation shorter than the exact one
never increases |a_pq|, so the off-norm never grows, and the stopping test
still bounds the eigenvalue error.

A matrix of even order 2k >= 4 that equals its reversal a[::-1, ::-1]
exactly, as every matrix built from an nc graph does (the reversal swaps its
two copies), is orthogonally similar to diag(B + CJ, B - CJ), with B its
leading k x k block and CJ its top-right block with the columns reversed
(Cantoni & Butler, Linear Algebra Appl. 13, 1976).  It is solved as those two
halves, each scaled by its own power of two, on the same Jacobi path: a sweep
costs order^3, so the halves cost about a quarter of the whole.  The stopping
rule is the whole matrix's: each half stops at convergence_tol times the
whole's initial off-norm over sqrt 2, so the two halves together, which are
orthogonally similar to the whole, end within its target.  Order 2 stays
whole: one exact rotation finishes it, and a split would only pay a second setup.

``group_multiplicities`` is the package's one rule for grouping values
into multiplicities; the closed forms group their contributions with it.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

DEFAULT_CONVERGENCE_TOL = 1e-12
DEFAULT_GROUPING_TOL = 1e-6
SWEEP_CAP = 100
# The least gap floor (the working copy's largest entry is in [1/2, 1)): t = 0
# when a_pq = 0 = a_qq - a_pp, and an a_pq at roundoff level between equal
# diagonal entries gets a small rotation, not a 45-degree one.
_GAP_FLOOR = 2.0**-52
# A later sweep's gap floor is this share of the off-norm the previous sweep left.
_FLOOR_SHARE = 0.01


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


def _check_integers(**values) -> list[int]:
    """The values as Python ints, so no sum of sizes overflows a narrow numpy type;
    ValueError naming the first that is not an integer (a numpy integer is one): a
    float or string size would otherwise pass, or fail later with another TypeError."""
    for name, value in values.items():
        if not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    return [operator.index(value) for value in values.values()]


def _check_sizes(what: str, least: int, **sizes) -> list[int]:
    """_check_integers, then ValueError("{what} requires m >= least ...") if one is below least."""
    values = _check_integers(**sizes)
    if min(values) < least:
        raise ValueError(f"{what} requires " + " and ".join(f"{name} >= {least}" for name in sizes))
    return values


def _real_square(matrix) -> np.ndarray:
    """matrix as a float array; ValueError for complex entries or any shape but n x n."""
    if np.iscomplexobj(matrix):
        raise ValueError("matrix entries must be real")
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def _sorted_values(spectrum_like) -> list[float]:
    """The one reader of outside spectra: a multiset's values with repeats, or a plain
    sequence's as floats, ascending; ValueError for a NaN, which sorts anywhere, or an inf."""
    if hasattr(spectrum_like, "expanded"):
        values = spectrum_like.expanded()  # already floats, and a new list
    else:
        values = [float(v) for v in spectrum_like]
    if not all(map(math.isfinite, values)):
        raise ValueError("values must be finite")
    values.sort()
    return values


@functools.lru_cache(maxsize=32)
def _round_plan(m: int) -> np.ndarray:
    """The flat gather index that moves an m x m matrix to the next round's
    slots, a permutation of range(m*m), which every round at order m reads.

    A round rotates slots 2i and 2i+1, which sit at circle-method table
    positions i and m-1-i; position 0 stays, the others move one place on,
    and after m - 1 rounds every index is home.  The index stays writable
    because take copies a read-only index on every call.
    """
    position = [k // 2 if k % 2 == 0 else m - 1 - k // 2 for k in range(m)]
    slot_at = {place: k for k, place in enumerate(position)}
    came_from = [0, m - 1, *range(1, m - 1)]  # position j takes position j-1's player
    source = np.array([slot_at[came_from[place]] for place in position], dtype=np.intp)
    return (source[:, None] * m + source).ravel()


def _off_norm(work: np.ndarray, spare: np.ndarray) -> float:
    # squares the off-diagonal entries alone (spare is scratch): subtracting the
    # diagonal from the full Frobenius norm cancels catastrophically near convergence
    spare[...] = work
    spare.reshape(-1)[:: spare.shape[0] + 1] = 0.0
    return math.sqrt(float(np.vdot(spare, spare)))


def _check_symmetric(a: np.ndarray, scale: float) -> None:
    """ValueError if max|a - a^T| exceeds 1e-10 * scale, where scale = max|a|."""
    if float(np.abs(a - a.T).max(initial=0.0)) > 1e-10 * scale:
        raise ValueError("matrix is not symmetric")


def symmetric_eigenvalues(
    matrix: np.ndarray, convergence_tol: float = DEFAULT_CONVERGENCE_TOL
) -> np.ndarray:
    """All eigenvalues of a real symmetric matrix, ascending.

    Runs round-robin Jacobi sweeps until the off-diagonal Frobenius norm
    drops below convergence_tol times its initial value (or vanishes).
    A matrix of even order 4 or more that equals its reversal exactly is
    solved as its two halves B + CJ and B - CJ, under the same stopping rule
    for the two together; order 2 is solved whole, in one exact rotation.
    Raises JacobiConvergenceError with diagnostics if SWEEP_CAP sweeps
    do not get there, and ValueError for complex or non-finite input,
    for input with max|a - a^T| above 1e-10 * max|a|, or for a
    convergence_tol that is not finite and positive.
    """
    a = _real_square(matrix)
    # one pass for finiteness and scale: a NaN or inf entry makes the max non-finite
    scale = float(np.abs(a).max(initial=0.0))
    if not math.isfinite(scale):
        raise ValueError("matrix entries must be finite")
    _check_tol("convergence_tol", convergence_tol, zero_ok=False)
    _check_symmetric(a, scale)

    # work on 2**-exponent times the matrix so that no square over- or underflows
    exponent = math.frexp(scale)[1]
    n = a.shape[0]
    if n >= 4 and n % 2 == 0 and a[0, 0] == a[-1, -1] and np.array_equal(a, a[::-1, ::-1]):
        values = _reversal_diagonal(a, exponent, convergence_tol)
    else:
        values = _jacobi_diagonal(a, exponent, convergence_tol)
    values.sort()  # after the solver's buffers are freed: sorting allocates
    return np.ldexp(values, exponent, out=values)


def _reversal_diagonal(a: np.ndarray, exponent: int, convergence_tol: float) -> np.ndarray:
    """The eigenvalues of 2**-exponent * a, unsorted, for an order-2k a equal to its
    reversal: those of B + CJ and of B - CJ, each solved at its own power of two.

    B = a[:k, :k] and CJ is a[:k, k:] with its columns reversed.  With J the order-k
    reversal, a = [[B, CJ J], [J CJ, J B J]], and the orthogonal Q = [[I, J], [I, -J]] / sqrt 2
    gives Q a Q^T = diag(B + CJ, B - CJ).  B and CJ are taken from a's symmetric part,
    which the solver reads and which equals its reversal too: its top-right block with
    the columns reversed is the symmetric part of CJ.
    """
    k = a.shape[0] // 2
    plus, minus, spare = np.empty((k, k)), np.empty((k, k)), np.empty((k, k))
    # every operand contiguous, so no ufunc buffers a strided view; the entries
    # are below 1 and have the bits of the whole solve's symmetric part
    for half, block in ((plus, a[:k, :k]), (minus, a[:k, : k - 1 : -1])):
        half[...] = block
        np.ldexp(half, -1 - exponent, out=half)
        spare[...] = half.T
        np.add(half, spare, half)
    # the whole's off-norm squared is twice the sum of B's off-diagonal squares and
    # CJ's squares: each half stops at convergence_tol times the whole's off-norm / sqrt 2
    spare[...] = plus
    spare.reshape(-1)[:: k + 1] = 0.0
    off_norm = math.sqrt(float(np.vdot(spare, spare)) + float(np.vdot(minus, minus)))
    np.subtract(plus, minus, spare)
    np.add(plus, minus, plus)
    del minus
    values = []
    for half in (plus, spare):
        half_exponent = math.frexp(float(np.abs(half).max()))[1]
        half_values = _jacobi_diagonal(
            half, half_exponent, convergence_tol, off_norm=off_norm, units=exponent
        )
        values.append(np.ldexp(half_values, half_exponent, out=half_values))
    return np.concatenate(values)


def _jacobi_diagonal(
    a: np.ndarray,
    exponent: int,
    convergence_tol: float,
    *,
    off_norm: float | None = None,
    units: int = 0,
) -> np.ndarray:
    """The diagonal, unsorted, that Jacobi sweeps reduce 2**-exponent * a to.

    The sweeps stop at convergence_tol times off_norm, in a's units, or by default
    times the initial off-norm.  a is 2**-units times the input, and the diagnostics
    are reported in the input's units.
    """
    n = a.shape[0]
    m = n + n % 2  # an odd order gets a zero row and column, and they stay zero
    h = m // 2
    work, spare = np.zeros((m, m)), np.empty((m, m))
    work_t = work.T
    work[:n, :n] = a
    np.ldexp(work, -1 - exponent, out=work)
    spare[...] = work_t
    np.add(work, spare, work)  # the exact symmetric part
    flat_work, flat_spare = work.reshape(-1), spare.reshape(-1)
    pairs_work, pairs_spare = work.view(np.complex128), spare.view(np.complex128)
    step = 2 * (m + 1)  # from one pair's 2x2 diagonal block to the next
    app, apq, aqq = (flat_work[start::step] for start in (0, 1, m + 1))
    # one pivot u per pair, normalised in place: its float view c_0, s_0, c_1, s_1, ...
    # is one row of the phase table; the modulus's imaginary part stays zero
    pivot, modulus = np.empty(h, np.complex128), np.zeros(h, np.complex128)
    phase, gap, twice_apq, norm = pivot.view(np.float64), pivot.real, pivot.imag, modulus.real
    gap_floor = np.full(h, _GAP_FLOOR)  # the first sweep's: every pair's exact rotation
    gather = _round_plan(m)
    subtract, add, hypot, copysign, divide, multiply = (
        np.subtract, np.add, np.hypot, np.copysign, np.divide, np.multiply
    )
    take = flat_spare.take

    initial = remaining = _off_norm(work, spare)
    target = convergence_tol * (initial if off_norm is None else math.ldexp(off_norm, -exponent))
    if initial > 0.0:
        for _ in range(SWEEP_CAP):
            for _ in range(m - 1):
                # u = (d + sign(d) hypot(hypot(d, 2 a_pq), f)) + 2i a_pq, with d = a_qq - a_pp
                # and the floor f, so Im u / Re u is the tangent of the angle that zeroes a_pq
                subtract(aqq, app, gap)
                add(apq, apq, twice_apq)
                hypot(gap, twice_apq, norm)
                hypot(norm, gap_floor, norm)
                copysign(norm, gap, norm)
                add(gap, norm, gap)
                hypot(gap, twice_apq, norm)
                divide(pivot, modulus, pivot)  # c + i s, or -(c + i s): J^T A J is the same
                spare[...] = phase  # the phase table, in the free buffer
                multiply(pairs_work, pairs_spare, pairs_work)  # A J
                spare[...] = work_t  # J^T A
                work[...] = phase
                multiply(pairs_spare, pairs_work, pairs_spare)  # J^T A J
                take(gather, None, flat_work, "clip")  # to the next round's slots
            remaining = _off_norm(work, spare)
            if remaining <= target:
                break
            gap_floor.fill(max(_GAP_FLOOR, _FLOOR_SHARE * remaining))
        else:
            raise JacobiConvergenceError(
                f"no convergence after {SWEEP_CAP} sweeps: "
                f"off-diagonal norm {math.ldexp(remaining, exponent + units):.3e}, "
                f"target {math.ldexp(target, exponent + units):.3e} "
                f"(initial {math.ldexp(initial, exponent + units):.3e})"
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
