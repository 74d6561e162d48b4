"""Dense symmetric eigensolver (round-robin Jacobi) and multiplicity grouping.

This is the numeric oracle the closed-form spectra are checked against,
so it deliberately does not delegate to an external eigensolver.  Jacobi
sweeps use the round-robin ordering of Brent & Luk (SIAM J. Sci. Stat.
Comput. 6, 1985; Golub & Van Loan, Matrix Computations, section 8.5): each
of the m - 1 rounds of a sweep rotates m/2 disjoint pairs at once.  A round
is a fixed sequence of 12 array calls (6 build the rotations, 6 apply them),
and one masked write once a member of a stack has stopped (below), into
buffers made once per solve, with its ufuncs bound once per solve and the
gather cached once per order, so it allocates nothing.  At the orders
verified here its cost is those calls, not their arithmetic, so each call
passes its output positionally and takes array operands, never Python floats.
Each pair (2i, 2i+1) gets the rotation J = [[c, s], [-s, c]] (Golub & Van
Loan, symSchur2) whose tangent 2 a_pq / (d + sign(d) hypot(d, 2 a_pq)), with
d = a_qq - a_pp, zeroes a_pq: that is tan(theta / 2) = Im w / (|w| + Re w) for
the angle theta of w = |d| + 2i sign(d) a_pq.  One complex pivot per pair holds
w with |d| floored to hypot(d, f), f the gap floor below, written through its
real and imaginary views; np.sqrt takes the principal root, which halves the
angle, and np.sign normalises the root in place to c + i s: for complex input
numpy 2.0 and later define it as u / |u|, each part divided by hypot(Re u, Im u),
the correctly rounded phase (np.absolute on the complex array rounds less
accurately).  The root comes first: normalising w first and rooting its phase
rounds less well.  Re w >= f > 0, so |theta| < pi / 2 and c > 0, every rotation
is inner, and the floored tangent is never longer than the exact one.  The
pivots' float view is the phase row c_0, s_0, c_1, s_1, ....  Read as complex128,
row r of a matrix holds the numbers A[r, 2i] + i A[r, 2i+1], so A J is that view
times c_i + i s_i: the round writes the phase row into every row of whichever
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
still bounds the eigenvalue error.  In floating point it stops falling at a
roundoff floor, about 1e-16 of the scaled matrix; a sweep that does not lower it
ends the solve at once with a named stall, since a target below that floor is
never met (SWEEP_CAP stays the backstop).

A matrix of even order 2k >= 4 that equals its reversal a[::-1, ::-1]
exactly, as every matrix built from an nc graph does (the reversal swaps its
two copies), is orthogonally similar to diag(B + CJ, B - CJ), with B its
leading k x k block and CJ its top-right block with the columns reversed
(Cantoni & Butler, Linear Algebra Appl. 13, 1976).  A sweep costs order^3, so
the halves cost about a quarter of the whole, and since a round costs its calls,
the two run as one stack of two members, each scaled by its own power of two.
Member 1 starts after m pad entries, at m(m + 1), a multiple of the pair stride:
every pair's a_pp, a_pq and a_qq, in both members, lie on the one stride 2(m + 1),
so the six pivot calls stay 1-D, and the two complex products run over each
whole flat buffer, in which the pads stay zero and the gather maps each pad entry
to itself.  The stopping rule is the whole matrix's: each member stops at
convergence_tol times the whole's initial off-norm over sqrt 2, so the two
halves together, which are orthogonally similar to the whole, end within its
target.  A member at its target is frozen wherever it sits in the stack: a mask over
the pairs writes its phases as exactly 1 + 0i in every later round, so it is permuted
with the rest but never rotated, and it ends with the diagonal it would reach alone,
bit for bit.  Order 2 stays whole: one exact rotation finishes it, and the halves
would only add their writes.  A matrix solved whole is a stack of one member, so
every solve has the one setup and teardown of _diagonal around the one _jacobi run.

``group_multiplicities`` is the package's one rule for grouping values into
multiplicities, numeric or closed form: GROUPING_SCALE * max(1, max|v|) wide,
one loop over (value, multiplicity) atoms, ``_group_atoms``.
``Spectrum`` is the one multiset type, numeric or closed form, and ``record``
the one rule that writes it to JSON, leaving out each field that is None.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import asdict, dataclass

import numpy as np

DEFAULT_CONVERGENCE_TOL = 1e-12
GROUPING_SCALE = 1e-11  # the default group width per unit of max(1, max|v|)
# Below this max|v|, a group's sum of copies overflows only past 2**64 additions.
_SUM_SAFE = 2.0**960
SWEEP_CAP = 100
# The least gap floor (the working copy's largest entry is in [1/2, 1)): t = 0
# when a_pq = 0 = a_qq - a_pp, and an a_pq at roundoff level between equal
# diagonal entries gets a small rotation, not a 45-degree one.
_GAP_FLOOR = 2.0**-52
# A later sweep's gap floor is this share of the off-norm the previous sweep left.
_FLOOR_SHARE = 0.01
_UNIT_PHASE = np.array(1.0 + 0.0j)  # the phase of every pair of a member at its target
_UNIT_PHASE.flags.writeable = False
_TWO = np.array(2.0)  # an array operand: a Python float allocates on every call
_TWO.flags.writeable = False


class JacobiConvergenceError(RuntimeError):
    """Raised when the rotation sweeps fail to reach the requested tolerance: at the first
    sweep that does not lower a member's off-norm (a stall), or after SWEEP_CAP sweeps."""


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalue multiset, ascending (value, multiplicity) pairs, and its provenance:
    a numeric spectrum's grouping_tol or a closed form's source and errata_notes."""

    pairs: tuple[tuple[float, int], ...]
    grouping_tol: float | None = None
    source: str | None = None
    errata_notes: tuple[str, ...] | None = None

    @property
    def order(self) -> int:
        return sum(k for _, k in self.pairs)

    def expanded(self) -> list[float]:
        return [v for v, k in self.pairs for _ in range(k)]

    def total(self) -> float:
        """The sum of v * k, left to right; where a product or a partial sum of finite pairs
        overflows, their _exact_sum, which is inf only when the sum itself leaves float64."""
        total = float(_left_sum(v * k for v, k in self.pairs))
        overflowed = not math.isfinite(total) and all(math.isfinite(v) for v, _ in self.pairs)
        return _exact_sum(self.pairs) if overflowed else total


def record(value) -> dict:
    """asdict of a dataclass with each field that is None left out, at any depth: a closed
    form writes pairs, source and errata_notes (() as []), a numeric one pairs and grouping_tol."""
    return asdict(value, dict_factory=lambda items: {k: v for k, v in items if v is not None})


def _left_sum(values):
    """values added left to right from 0, as CPython's sum adds floats through 3.11:
    3.12's sum compensates the rounding, which moves the last bit of some means."""
    return functools.reduce(operator.add, values, 0)


def _exact_sum(pairs, count: int = 1) -> float:
    """The sum of v * k over finite (value, multiplicity) pairs, divided by count and rounded
    once (+-inf past float64): the one fallback where a left-to-right sum overflows.  Each
    double is a whole number of units of 2**-1074, and Python divides two ints exactly rounded."""
    # as_integer_ratio's denominator d is a power of two, 2**(d.bit_length() - 1)
    units = sum(k * n << 1075 - d.bit_length() for v, k in pairs for n, d in [v.as_integer_ratio()])
    try:
        return units / (count << 1074)
    except OverflowError:
        return math.inf if units > 0 else -math.inf


def _is_real(value) -> bool:
    """Whether value is a real number: a numbers.Real (a Python or numpy int or float, or a
    Fraction) or a 0-d array of ints or floats, and not a bool, which would pass as 0 or 1."""
    # the concrete types first: numbers.Real alone is an ABC check, several times slower
    if isinstance(value, (float, int, np.floating, np.integer, numbers.Real)):
        return not isinstance(value, bool)
    return isinstance(value, np.ndarray) and value.ndim == 0 and value.dtype.kind in "iuf"


def _check_tol(name: str, value: float, zero_ok: bool = False, most: float = math.inf) -> float:
    """value as the float its caller uses; ValueError unless it is a real number (_is_real),
    finite, positive (or zero, when zero_ok) and at most most.  An int or Fraction beyond
    every double reads as infinite, so it is not finite."""
    if not _is_real(value):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf if value > 0 else -math.inf
    if not (math.isfinite(number) and (number >= 0.0 if zero_ok else number > 0.0)):
        raise ValueError(f"{name} must be finite and {'non-negative' if zero_ok else 'positive'}")
    if number > most:
        raise ValueError(f"{name} must be at most {most:g}")
    return number


def _is_integer(value) -> bool:
    """Whether value is an int or a numpy integer but not a bool, which would pass as 0 or 1."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_integers(**values) -> list[int]:
    """The values as Python ints, so no sum of sizes overflows a narrow numpy type;
    ValueError naming the first that is not an integer (a numpy integer is one, a
    bool is not): a float or string size would otherwise pass, or fail later with
    another TypeError, and True would pass as 1."""
    for name, value in values.items():
        if not _is_integer(value):
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


def _floats(values) -> list[float]:
    """values as a new list of Python floats: a 1-D float64 array in one tolist, which
    gives the same floats as one float() per element, anything else one float() each."""
    if type(values) is np.ndarray and values.ndim == 1 and values.dtype == np.float64:
        return values.tolist()
    return list(map(float, values))


def _abs_max(x: np.ndarray) -> float:
    """max|x| (0.0 for an empty x) from its first largest and least entries: a NaN is
    both, so it shows.  argmax and argmin take no temporary and cost a fraction of a
    max reduction's call."""
    if not x.size:
        return 0.0
    return max(x.item(x.argmax()), -x.item(x.argmin()))


def _sorted_values(spectrum_like) -> list[float]:
    """The one reader of outside spectra: a multiset's values with repeats, or a plain
    sequence's as floats, ascending; ValueError for a NaN, which sorts anywhere, or an inf."""
    if hasattr(spectrum_like, "expanded"):
        values = spectrum_like.expanded()  # already floats, and a new list
    else:
        values = _floats(spectrum_like)
    if not all(map(math.isfinite, values)):
        raise ValueError("values must be finite")
    values.sort()
    return values


@functools.lru_cache(maxsize=32)
def _round_plan(m: int, members: int) -> np.ndarray:
    """The flat gather index that moves a stack of members m x m matrices, each but
    the last followed by m pad entries, to the next round's slots, which every round
    at that order and size reads: each member's permutation of its m*m entries, and
    every pad entry mapped to itself.

    A round rotates slots 2i and 2i+1, which sit at circle-method table
    positions i and m-1-i; position 0 stays, the others move one place on,
    and after m - 1 rounds every index is home.  The index stays writable
    because take copies a read-only index on every call.
    """
    position = [k // 2 if k % 2 == 0 else m - 1 - k // 2 for k in range(m)]
    slot_at = {place: k for k, place in enumerate(position)}
    came_from = [0, m - 1, *range(1, m - 1)]  # position j takes position j-1's player
    source = np.array([slot_at[came_from[place]] for place in position], dtype=np.intp)
    member = np.concatenate([(source[:, None] * m + source).ravel(), np.arange(m * m, m * (m + 1))])
    return (np.arange(members)[:, None] * member.size + member).ravel()[:-m]


def _off_norm(work: np.ndarray, spare: np.ndarray, m: int, start: int = 0) -> float:
    """The off-diagonal Frobenius norm of the m x m matrix that work holds flat, row by
    row, from start on: all of work, or one member of a stack (spare is scratch of
    work's size)."""
    # squares the off-diagonal entries alone: subtracting the diagonal from the
    # full Frobenius norm cancels catastrophically near convergence
    if work.size == m * m:
        spare[...] = work
    else:
        spare = spare[start : start + m * m]
        spare[...] = work[start : start + m * m]
    spare[:: m + 1] = 0.0
    return math.sqrt(float(np.dot(spare, spare)))


def _check_symmetric(a: np.ndarray, scale: float) -> None:
    """ValueError if max|a - a^T| exceeds 1e-10 * scale, where scale = max|a|.  Holds one
    V x V temporary: a - a.T would hold two, as numpy copies the transposed operand too.
    a - a^T is antisymmetric, entry for entry (x - y rounds to -(y - x)), so its largest
    entry is max|a - a^T|.  That can overflow only when scale is 2**1023 or more: then
    half of a is checked, against half the bound, in one more temporary."""
    if scale >= 2.0**1023:
        a, scale = a * 0.5, scale * 0.5
    gap = a.T.copy()
    np.subtract(a, gap, out=gap)
    if gap.size and gap.item(gap.argmax()) > 1e-10 * scale:
        raise ValueError("matrix is not symmetric")


def symmetric_eigenvalues(
    matrix: np.ndarray, convergence_tol: float = DEFAULT_CONVERGENCE_TOL
) -> np.ndarray:
    """All eigenvalues of a real symmetric matrix, ascending.

    Runs round-robin Jacobi sweeps until the off-diagonal Frobenius norm
    drops below convergence_tol times its initial value (or vanishes).
    A matrix of even order 4 or more that equals its reversal exactly is
    solved as its two halves B + CJ and B - CJ, in one run and under the same
    stopping rule for the two together; order 2 is solved whole, in one exact
    rotation.  Raises JacobiConvergenceError with diagnostics at the first sweep
    that does not lower the off-norm (it has stalled at its roundoff floor, above
    the target) or if SWEEP_CAP sweeps do not get there, and ValueError for
    complex or non-finite input,
    for input with max|a - a^T| above 1e-10 * max|a|, for a
    convergence_tol that is not finite, positive and at most DEFAULT_CONVERGENCE_TOL,
    the tightness that group_multiplicities' default width assumes, or for a
    spectrum that leaves float64 (an eigenvalue of magnitude 2**1024 or more, which
    finite entries near the largest double can give).
    """
    a = _real_square(matrix)
    # one look for finiteness and scale: a NaN or inf entry makes max|a| non-finite
    scale = _abs_max(a)
    if not math.isfinite(scale):
        raise ValueError("matrix entries must be finite")
    if convergence_tol != DEFAULT_CONVERGENCE_TOL:  # the default needs no check
        convergence_tol = _check_tol("convergence_tol", convergence_tol, most=DEFAULT_CONVERGENCE_TOL)
    _check_symmetric(a, scale)

    # work on 2**-exponent times the matrix so that no square over- or underflows
    exponent = math.frexp(scale)[1]
    n = len(a)
    split = n >= 4 and n % 2 == 0 and a[0, 0] == a[-1, -1] and bool((a == a[::-1, ::-1]).all())
    values = _diagonal(a, exponent, convergence_tol, 2 if split else 1)
    values.sort()  # after the solver's buffers are freed: sorting allocates
    if n and math.frexp(max(-values[0], values[-1]))[1] + exponent > 1024:
        raise ValueError("the spectrum leaves float64: an eigenvalue's magnitude exceeds its largest finite value")
    return np.ldexp(values, exponent, out=values)


def _diagonal(a: np.ndarray, exponent: int, convergence_tol: float, members: int) -> np.ndarray:
    """The eigenvalues of 2**-exponent * a, unsorted: the diagonal Jacobi sweeps reduce it
    to, solved as one member, or for an order-2k a equal to its reversal as two, B + CJ
    and B - CJ, each at its own power of two, in one run.

    B = a[:k, :k] and CJ is a[:k, k:] with its columns reversed.  With J the order-k
    reversal, a = [[B, CJ J], [J CJ, J B J]], and the orthogonal Q = [[I, J], [I, -J]] / sqrt 2
    gives Q a Q^T = diag(B + CJ, B - CJ).  Each member is scaled and added to its transpose
    as the whole would be, so B and CJ are taken from a's symmetric part, which the solver
    reads and which equals its reversal too: its top-right block with the columns reversed
    is the symmetric part of CJ.  Every operand is contiguous and below 1.  Each member is
    read and written through its own 2-D view, and scaled by a Python int: a strided stack
    view would leave a buffer record on each buffer, and an int64 exponent array a cast.
    """
    k = len(a) // members
    m = k + k % 2  # an odd order gets a zero row and column, and they stay zero
    block = m * (m + 1)  # member 1 starts after m pad entries, a multiple of the pair stride
    work, spare = np.zeros(members * block - m), np.zeros(members * block - m)
    b, scratch = work[: m * m].reshape(m, m), spare[: m * m].reshape(m, m)
    shifts, off_norm = (0,), None
    if members == 1:
        np.ldexp(a, -1 - exponent, out=b[:k, :k])
        scratch[...] = b.T
        np.add(work, spare, work)  # the exact symmetric part
    else:
        b[:k, :k] = a[:k, :k]
        cj = work[block:].reshape(m, m)
        cj[:k, :k] = a[:k, : k - 1 : -1]
        np.ldexp(work, -1 - exponent, out=work)
        scratch[...] = b.T
        spare[block:].reshape(m, m)[...] = cj.T
        np.add(work, spare, work)  # the exact symmetric part
        # the whole's off-norm squared is twice the sum of B's off-diagonal squares and CJ's squares
        scratch[...] = b
        spare[: m * m : m + 1] = 0.0
        b_off, cj_all = scratch[:k, :k], cj[:k, :k]
        off_norm = math.sqrt(float(np.vdot(b_off, b_off)) + float(np.vdot(cj_all, cj_all)))
        np.subtract(b, cj, scratch)
        np.add(b, cj, b)
        cj[...] = scratch
        shifts = math.frexp(_abs_max(b))[1], math.frexp(_abs_max(cj))[1]
        np.ldexp(b, -shifts[0], out=b)
        np.ldexp(cj, -shifts[1], out=cj)
        del cj, b_off, cj_all
    del b, scratch  # only work and spare stay alive through the run
    _jacobi(work, spare, m, exponent, convergence_tol, shifts, off_norm)
    if members == 1:
        return work[: k * (m + 1) : m + 1].copy()
    values = np.empty(2 * k)  # each member's diagonal in turn, at its power of two
    np.ldexp(work[: k * (m + 1) : m + 1], shifts[0], out=values[:k])
    np.ldexp(work[block :: m + 1][:k], shifts[1], out=values[k:])
    return values


def _jacobi(
    work: np.ndarray,
    spare: np.ndarray,
    m: int,
    exponent: int,
    convergence_tol: float,
    shifts: tuple[int, ...],
    off_norm: float | None,
) -> None:
    """Run Jacobi sweeps in place on one symmetric matrix of even order m, or on a
    stack of them, until each has reached its target.

    work holds the members flat, one for each entry of shifts: member i's m x m rows
    start at i * m * (m + 1), and each but the last is followed by m pad entries, zero
    in work and in spare, which is scratch of work's size.  Member i holds
    2**-(exponent + shifts[i]) times its part of the input, and stops at convergence_tol
    times off_norm (in 2**-exponent times the input's units), or when that is None times
    its own initial off-norm.  The rounds run over every pair of every member: in each
    round after a member stops, one masked write sets its phases to 1 + 0i, so it is
    permuted with the rest (and each round transposes it) but never rotated, and each
    member of a stack of any size ends with the diagonal it would reach alone, bit for
    bit.  A running member whose off-norm after a sweep is not below its value before
    it has stalled: the run raises JacobiConvergenceError at once, naming the stall.
    The diagnostics are in the input's units.
    """
    members, h, block = len(shifts), m // 2, m * (m + 1)
    pairs_work, pairs_spare = work.view(np.complex128), spare.view(np.complex128)
    step = 2 * (m + 1)  # from one pair's 2x2 diagonal block to the next, across members too
    app, apq, aqq = work[::step], work[1::step], work[m + 1 :: step]
    # one pivot w per pair, turned in place into c + i s, and a real scratch row
    pivot, norm = np.empty(members * h, np.complex128), np.empty(members * h)
    gap, twice_apq = pivot.real, pivot.imag
    gap_floor = np.empty(members * h)
    gap_floor.fill(_GAP_FLOOR)  # the first sweep's: every pair's exact rotation
    stopped = np.zeros(members * h, bool)  # the pairs of the members at their target
    # c_0, s_0, c_1, s_1, ...: each member's row of its phase table
    phase = pivot.view(np.float64)
    if members == 1:  # 2-D views: each round's three writes then skip a third axis
        rows_work, rows_spare = work.reshape(m, m), spare.reshape(m, m)
    else:  # the rounds write the members' rows alone, so the pads stay zero
        shape, strides = (members, m, m), (8 * block, 8 * m, 8)
        rows_work = np.ndarray(shape, np.float64, work, 0, strides)
        rows_spare = np.ndarray(shape, np.float64, spare, 0, strides)
        phase = phase.reshape(members, 1, m)
    work_t = rows_work.swapaxes(-1, -2)
    gather = _round_plan(m, members)
    subtract, hypot, copysign, multiply, sqrt, sign, copyto = (
        np.subtract, np.hypot, np.copysign, np.multiply, np.sqrt, np.sign, np.copyto
    )

    # each member's off-norms in its own units: its initial one, and the one before the
    # last sweep (None once it is at its target); its target, taken at sweep 0
    initial, before, targets = [0.0] * members, [math.inf] * members, [0.0] * members
    sweeps = 0
    while True:
        running = 0  # the members not yet at their target
        for i in range(members):
            if before[i] is None:  # frozen since an earlier sweep
                continue
            remaining = _off_norm(work, spare, m, i * block)
            if not sweeps:
                initial[i] = remaining
                targets[i] = convergence_tol * (remaining if off_norm is None else math.ldexp(off_norm, -shifts[i]))
            target = targets[i]
            if remaining <= target:
                before[i] = None
                stopped[i * h : (i + 1) * h] = True
                continue
            stalled = remaining >= before[i]  # the last sweep did not lower it: roundoff's floor
            if stalled or sweeps == SWEEP_CAP:
                units = exponent + shifts[i]
                stall = f" stalled ({math.ldexp(before[i], units):.3e} before sweep {sweeps})"
                raise JacobiConvergenceError(
                    f"no convergence after {sweeps} sweeps: "
                    f"off-diagonal norm {math.ldexp(remaining, units):.3e}{stall if stalled else ''}, "
                    f"target {math.ldexp(target, units):.3e} "
                    f"(initial {math.ldexp(initial[i], units):.3e})"
                )
            before[i] = remaining
            if sweeps:  # the floor of member i's pairs in the next sweep
                floor = max(_GAP_FLOOR, _FLOOR_SHARE * remaining)
                (gap_floor if members == 1 else gap_floor[i * h : (i + 1) * h]).fill(floor)
            running += 1
        if not running:
            break
        frozen = running < members
        for _ in range(m - 1):
            # w = hypot(d, f) + 2i sign(d) a_pq, with d = a_qq - a_pp and the floor f:
            # half its angle has the tangent Im w / (|w| + Re w) that zeroes a_pq, or less
            subtract(aqq, app, norm)
            hypot(norm, gap_floor, gap)
            copysign(_TWO, norm, norm)
            multiply(apq, norm, twice_apq)
            sqrt(pivot, pivot)  # the principal root halves the angle: Re w >= f > 0
            sign(pivot, pivot)  # its correctly rounded phase c + i s
            if frozen:  # the stopped members are permuted with the rest but never rotated
                copyto(pivot, _UNIT_PHASE, "no", stopped)
            rows_spare[...] = phase  # the phase table, in the free buffer
            multiply(pairs_work, pairs_spare, pairs_work)  # A J
            rows_spare[...] = work_t  # J^T A
            rows_work[...] = phase
            multiply(pairs_spare, pairs_work, pairs_spare)  # J^T A J
            spare.take(gather, None, work, "clip")  # to the next round's slots
        sweeps += 1


def group_multiplicities(values, grouping_tol: float | None = None) -> Spectrum:
    """Merge ascending values into groups no wider than grouping_tol, an absolute
    width, by default GROUPING_SCALE * max(1, max|v|), which the result records.

    A value joins the current group while it lies within grouping_tol of
    the group's first value, so a chain of small gaps cannot grow a group
    past that width.  The representative of each group is its arithmetic
    mean, its values added left to right from 0; where that sum overflows, it
    is the exactly rounded mean, which lies inside the group's range.
    Raises ValueError unless grouping_tol is finite and non-negative.  Closed
    forms group by the same loop, _group_atoms, over (value, multiplicity)
    atoms: no value is listed once per copy, and a mean still adds every copy.
    """
    if grouping_tol is not None:
        grouping_tol = _check_tol("grouping_tol", grouping_tol, zero_ok=True)
    values = _floats(values)
    return _group_atoms(values, (1,) * len(values), grouping_tol)


def _group_atoms(values, counts, grouping_tol: float | None = None) -> Spectrum:
    """group_multiplicities' rule over ascending values with their multiplicities in
    counts, both lists or tuples, read in step: a mean adds every copy, left to right
    from 0, since v * k can round differently (0.1 six times adds up to 0.6, and
    0.1 * 6 is 0.6000000000000001).  ValueError for a value not finite or out of order."""
    if not all(map(math.isfinite, values)):
        raise ValueError("values must be finite")
    if any(map(operator.lt, values[1:], values)):  # some value below the one before it
        raise ValueError("values must be sorted ascending")
    big = max(1.0, -values[0], values[-1]) if values else 1.0  # max|v|: at one end
    if grouping_tol is None:
        grouping_tol = GROUPING_SCALE * big
    pairs: list[tuple[float, int]] = []
    first, total, count = values[0] if values else 0.0, 0, 0
    for v, k in zip(values, counts):
        if v - first > grouping_tol:
            pairs.append((total / count, count))
            first, total, count = v, 0, 0
        count += k
        total += v
        while k > 1:
            total += v
            k -= 1
    if count:
        pairs.append((total / count, count))
    if big >= _SUM_SAFE:
        _finite_means(pairs, values, counts)
    return Spectrum(tuple(pairs), grouping_tol)


def _finite_means(pairs, values, counts) -> None:
    """Replace in pairs each infinite mean, a sum of copies that overflowed, by the group's
    exactly rounded mean, _exact_sum: it lies inside the group's range, as the exact mean
    does, since rounding to the nearest double never passes a double."""
    start = 0
    for group, (mean, count) in enumerate(pairs):
        end, seen = start, 0
        while seen < count:
            seen += counts[end]
            end += 1
        if not math.isfinite(mean):
            pairs[group] = _exact_sum(zip(values[start:end], counts[start:end]), count), count
        start = end
