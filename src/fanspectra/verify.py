"""Cross-checking closed forms against the Jacobi oracle.

``FAMILIES`` is the one table of what the package knows per graph
family: its graph builder, its canonical equitable partition, its
smallest m and n, and the closed form of each matrix kind that has one.
``CASE_KINDS``, the CLI's family choices and its closed-form and
partition lookups, ``verify_case`` and ``sweep`` all read it, so a new
family or kind is added there and nowhere else.

``verify_case`` produces one report per (family, m, n, matrix kind):
closed-form vs numeric deviation, trace residual, positive
semidefiniteness of the matrix, and containment of the canonical
equitable-quotient eigenvalues in the full spectrum.  ``sweep`` runs a
deterministic grid of such cases.  Both require a finite, positive
``tol``.  ``reports_to_json`` writes reports; nothing reads them back.
``verify_random_joins`` stress-tests the two join formulas on seeded
random graph pairs.
"""

from __future__ import annotations

import bisect
import json
import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .closed_forms import (
    fan_distance_laplacian_spectrum,
    fan_laplacian_spectrum,
    join_distance_laplacian_spectrum,
    join_laplacian_spectrum,
    nc_distance_laplacian_spectrum,
    nc_laplacian_spectrum,
)
from .eigen import (
    Spectrum, _check_integers, _check_sizes, _check_tol, _floats, _is_integer, _sorted_values,
    group_multiplicities, record, symmetric_eigenvalues,
)
from .graphs import Graph, generalized_fan, join, nc_graph
from .matrices import build_matrix, distance_laplacian, laplacian_matrix
from .quotient import Partition, fan_partition, nc_partition, quotient_eigenvalues

DEFAULT_CASE_TOL = 1e-8
PSD_TOL = 1e-9
MAX_SWEEP_PARAM = 64


class SpectrumSizeMismatch(ValueError):
    """Two multisets of different cardinality can never agree."""


class UnsupportedCombination(ValueError):
    """A family/kind request outside the case table."""


@dataclass(frozen=True)
class Family:
    """One row of the case table; every entry takes (m, n)."""

    graph: Callable[[int, int], Graph]
    partition: Callable[[int, int], Partition]
    min_param: int  # the smallest m and n the family is defined for
    closed_forms: dict[str, Callable[[int, int], Spectrum]]


# The entries call this module's names when they run, not the functions bound
# at import, so that a rebinding of those names (a tracer, a test double) is seen.
FAMILIES = {
    "fan": Family(
        graph=lambda m, n: generalized_fan(m, n),
        partition=lambda m, n: fan_partition(m, n),
        min_param=1,
        closed_forms={
            "laplacian": lambda m, n: fan_laplacian_spectrum(m, n),
            "distance-laplacian": lambda m, n: fan_distance_laplacian_spectrum(m, n),
        },
    ),
    "nc": Family(
        graph=lambda m, n: nc_graph(m, n),
        partition=lambda m, n: nc_partition(m, n),
        min_param=2,
        closed_forms={
            "laplacian": lambda m, n: nc_laplacian_spectrum(m, n),
            "distance-laplacian": lambda m, n: nc_distance_laplacian_spectrum(m, n),
        },
    ),
}

# "fan-laplacian" -> ("fan", "laplacian"), kinds outer and families inner
CASES = {
    f"{family}-{kind}": (family, kind)
    for kind in dict.fromkeys(k for row in FAMILIES.values() for k in row.closed_forms)
    for family, row in FAMILIES.items()
    if kind in row.closed_forms
}
CASE_KINDS = tuple(CASES)


def closed_form(family: str, kind: str) -> Callable[[int, int], Spectrum]:
    """The closed form of a case; UnsupportedCombination if the table has none."""
    row = FAMILIES.get(family)
    if row is None or kind not in row.closed_forms:
        raise UnsupportedCombination(f"no closed form for family {family!r} and kind {kind!r}")
    return row.closed_forms[kind]


def compare_spectra(a, b) -> float:
    """Max elementwise gap between two multisets after ascending expansion;
    ValueError for a non-finite value, SpectrumSizeMismatch for unequal sizes."""
    xs, ys = _sorted_values(a), _sorted_values(b)
    if len(xs) != len(ys):
        raise SpectrumSizeMismatch(f"multiset sizes differ: {len(xs)} vs {len(ys)}")
    return _largest_gap(xs, ys)


def _largest_gap(xs, ys) -> float:
    """max|x - y| over two ascending sequences of one length, position by position, with no
    list of gaps: the one rule that lines two spectra up and subtracts them.  The tables'
    sorted cells call it directly, so a trace of compare_spectra sees no two-decimal slack."""
    return max(map(abs, map(operator.sub, xs, ys)), default=0.0)


def _contained(quotient: Spectrum, full: np.ndarray, tol: float = DEFAULT_CASE_TOL) -> bool:
    """True iff every quotient eigenvalue lies within tol of some value of the full spectrum,
    which is ascending, as the solver returns it.  A value's nearest full values are the
    two either side of where it would sort in, since x - y rounds monotonically in y; a
    NaN is near nothing."""
    full = _floats(full)
    for v, _ in quotient.pairs:
        i = bisect.bisect_left(full, v)
        if not min((abs(v - f) for f in full[max(i - 1, 0) : i + 1]), default=math.inf) <= tol:
            return False
    return True


@dataclass(frozen=True)
class VerificationReport:
    family: str
    m: int
    n: int
    kind: str
    closed_form: Spectrum
    numeric: Spectrum
    max_abs_deviation: float
    trace_residual: float
    psd_ok: bool
    quotient_containment_ok: bool
    errata_flags: tuple[str, ...]
    passed: bool

    @property
    def case_tag(self) -> str:
        return f"{self.family}-{self.kind}"


def verify_case(
    family: str, m: int, n: int, kind: str, tol: float = DEFAULT_CASE_TOL
) -> VerificationReport:
    """Check one closed form against the numeric oracle and the quotient route."""
    tol = _check_tol("tol", tol)
    form = closed_form(family, kind)
    row = FAMILIES[family]
    matrix = build_matrix(row.graph(m, n), kind)
    closed = form(m, n)
    raw = symmetric_eigenvalues(matrix)
    numeric = group_multiplicities(raw)
    deviation = compare_spectra(closed, raw)
    trace_residual = abs(closed.total() - float(matrix.trace()))
    psd_ok = bool(raw[0] >= -PSD_TOL)
    quotient = quotient_eigenvalues(matrix, row.partition(m, n))
    containment_ok = _contained(quotient, raw, tol)
    passed = deviation < tol and trace_residual < tol and psd_ok and containment_ok
    return VerificationReport(
        family=family,
        m=m,
        n=n,
        kind=kind,
        closed_form=closed,
        numeric=numeric,
        max_abs_deviation=deviation,
        trace_residual=trace_residual,
        psd_ok=psd_ok,
        quotient_containment_ok=containment_ok,
        errata_flags=closed.errata_notes,
        passed=passed,
    )


def sweep(
    m_range: tuple[int, int],
    n_range: tuple[int, int],
    kinds=CASE_KINDS,
    tol: float = DEFAULT_CASE_TOL,
) -> list[VerificationReport]:
    """One report per grid cell per kind, ordered by (m, n, kind position).

    Cases below their family's smallest m, n are skipped; a request that
    leaves no case at all is a ValueError, not an empty pass.  Failing
    reports are kept, never raised; callers decide what a failure means.
    """
    (m_low, m_high), (n_low, n_high) = m_range, n_range
    m_low, m_high, n_low, n_high = _check_integers(
        m_low=m_low, m_high=m_high, n_low=n_low, n_high=n_high
    )
    for lo, hi in ((m_low, m_high), (n_low, n_high)):
        if not (1 <= lo <= hi <= MAX_SWEEP_PARAM):
            raise ValueError(f"range ({lo}, {hi}) outside 1..{MAX_SWEEP_PARAM}")
    if isinstance(kinds, str):  # tuple() would read it one character at a time
        raise ValueError(f"kinds must be a sequence of case kinds, not the string {kinds!r}")
    kinds = tuple(kinds)
    if not kinds:
        raise ValueError("no case kind requested")
    for case_kind in kinds:
        if case_kind not in CASES:
            raise ValueError(f"unknown case kind {case_kind!r}; expected one of {CASE_KINDS}")
    tol = _check_tol("tol", tol)
    requested = [CASES[case_kind] for case_kind in kinds]
    cases = [
        (family, m, n, kind)
        for m in range(m_low, m_high + 1)
        for n in range(n_low, n_high + 1)
        for family, kind in requested
        if min(m, n) >= FAMILIES[family].min_param
    ]
    if not cases:
        families = dict.fromkeys(family for family, _ in requested)
        domains = ", ".join(f"{f} needs m, n >= {FAMILIES[f].min_param}" for f in families)
        raise ValueError(f"no requested case lies in its family's domain ({domains})")
    return [verify_case(*case, tol=tol) for case in cases]


def reports_to_json(reports) -> str:
    return json.dumps([record(r) for r in reports], indent=2)


# --- randomized join checks ------------------------------------------------


@dataclass(frozen=True)
class JoinCheck:
    seed: int
    n1: int
    n2: int
    laplacian_deviation: float
    distance_laplacian_deviation: float
    ok: bool


def random_graph(order: int, rng: np.random.Generator) -> Graph:
    """Uniform random simple graph: each pair is an edge with probability 1/2, one
    draw per pair u < v, row by row: (0, 1), (0, 2), ..., (1, 2), ..."""
    upper = np.zeros((order, order), np.int8)
    upper[np.triu_indices(order, 1)] = rng.random(order * (order - 1) // 2) < 0.5
    return Graph(upper + upper.T)


def verify_random_joins(pair_count: int = 100, seed: int = 20260809) -> list[JoinCheck]:
    """Check both join spectrum maps on pair_count (an integer >= 1) random pairs of graphs
    of order 1..8, seeded from seed (an integer >= 0), each map to within DEFAULT_CASE_TOL.

    The component graphs may be disconnected; the join never is.  Each
    check records its own seed so any failure is reproducible.
    """
    if not _is_integer(pair_count) or pair_count < 1:
        raise ValueError("pair_count must be an integer >= 1")
    (seed,) = _check_sizes("verify_random_joins", 0, seed=seed)
    checks = []
    for k in range(pair_count):
        pair_seed = seed + k
        rng = np.random.default_rng(pair_seed)
        n1 = int(rng.integers(1, 9))
        n2 = int(rng.integers(1, 9))
        g1 = random_graph(n1, rng)
        g2 = random_graph(n2, rng)
        spec1 = symmetric_eigenvalues(laplacian_matrix(g1))
        spec2 = symmetric_eigenvalues(laplacian_matrix(g2))
        joined = join(g1, g2)
        lap_dev = compare_spectra(
            join_laplacian_spectrum(spec1, n1, spec2, n2),
            symmetric_eigenvalues(laplacian_matrix(joined)),
        )
        dl_dev = compare_spectra(
            join_distance_laplacian_spectrum(spec1, n1, spec2, n2),
            symmetric_eigenvalues(distance_laplacian(joined)),
        )
        checks.append(
            JoinCheck(
                seed=pair_seed,
                n1=n1,
                n2=n2,
                laplacian_deviation=lap_dev,
                distance_laplacian_deviation=dl_dev,
                ok=lap_dev <= DEFAULT_CASE_TOL and dl_dev <= DEFAULT_CASE_TOL,
            )
        )
    return checks
