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
``tol``.  ``verify_random_joins`` stress-tests the two join formulas on
seeded random graph pairs.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .closed_forms import (
    ClosedFormSpectrum,
    fan_distance_laplacian_spectrum,
    fan_laplacian_spectrum,
    join_distance_laplacian_spectrum,
    join_laplacian_spectrum,
    nc_distance_laplacian_spectrum,
    nc_laplacian_spectrum,
)
from .eigen import Spectrum, _check_tol, _expand, group_multiplicities, symmetric_eigenvalues
from .graphs import Graph, generalized_fan, join, make_graph, nc_graph
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
    closed_forms: dict[str, Callable[[int, int], ClosedFormSpectrum]]


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


def closed_form(family: str, kind: str) -> Callable[[int, int], ClosedFormSpectrum]:
    """The closed form of a case; UnsupportedCombination if the table has none."""
    row = FAMILIES.get(family)
    if row is None or kind not in row.closed_forms:
        raise UnsupportedCombination(f"no closed form for family {family!r} and kind {kind!r}")
    return row.closed_forms[kind]


def compare_spectra(a, b) -> float:
    """Max elementwise gap between two multisets after ascending expansion."""
    xs = sorted(_expand(a))
    ys = sorted(_expand(b))
    if len(xs) != len(ys):
        raise SpectrumSizeMismatch(f"multiset sizes differ: {len(xs)} vs {len(ys)}")
    return max((abs(x - y) for x, y in zip(xs, ys)), default=0.0)


def _contained(quotient: Spectrum, full: np.ndarray, tol: float = DEFAULT_CASE_TOL) -> bool:
    """True iff every quotient eigenvalue lies within tol of some value of the full spectrum."""
    return all(float(np.min(np.abs(full - value))) <= tol for value in quotient.expanded())


@dataclass(frozen=True)
class VerificationReport:
    family: str
    m: int
    n: int
    kind: str
    closed_form: ClosedFormSpectrum
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
    _check_tol("tol", tol, zero_ok=False)
    form = closed_form(family, kind)
    row = FAMILIES[family]
    matrix = build_matrix(row.graph(m, n), kind)
    closed = form(m, n)
    raw = symmetric_eigenvalues(matrix)
    numeric = group_multiplicities(raw)
    deviation = compare_spectra(closed, raw)
    trace_residual = abs(closed.total() - float(np.trace(matrix)))
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
    for lo, hi in (m_range, n_range):
        if not (1 <= lo <= hi <= MAX_SWEEP_PARAM):
            raise ValueError(f"range ({lo}, {hi}) outside 1..{MAX_SWEEP_PARAM}")
    kinds = tuple(kinds)
    if not kinds:
        raise ValueError("no case kind requested")
    for case_kind in kinds:
        if case_kind not in CASES:
            raise ValueError(f"unknown case kind {case_kind!r}; expected one of {CASE_KINDS}")
    _check_tol("tol", tol, zero_ok=False)
    requested = [CASES[case_kind] for case_kind in kinds]
    cases = [
        (family, m, n, kind)
        for m in range(m_range[0], m_range[1] + 1)
        for n in range(n_range[0], n_range[1] + 1)
        for family, kind in requested
        if min(m, n) >= FAMILIES[family].min_param
    ]
    if not cases:
        families = dict.fromkeys(family for family, _ in requested)
        domains = ", ".join(f"{f} needs m, n >= {FAMILIES[f].min_param}" for f in families)
        raise ValueError(f"no requested case lies in its family's domain ({domains})")
    return [verify_case(*case, tol=tol) for case in cases]


# --- serialization ---------------------------------------------------------


def report_to_dict(report: VerificationReport) -> dict:
    return asdict(report)


def _tuples(value):
    """JSON's lists back to the tuples of the frozen records, at any depth."""
    if isinstance(value, list):
        return tuple(_tuples(v) for v in value)
    if isinstance(value, dict):
        return {key: _tuples(v) for key, v in value.items()}
    return value


def report_from_dict(d: dict) -> VerificationReport:
    d = _tuples(d)
    closed, numeric = ClosedFormSpectrum(**d.pop("closed_form")), Spectrum(**d.pop("numeric"))
    return VerificationReport(closed_form=closed, numeric=numeric, **d)


def reports_to_json(reports) -> str:
    return json.dumps([report_to_dict(r) for r in reports], indent=2)


def reports_from_json(text: str) -> list[VerificationReport]:
    return [report_from_dict(d) for d in json.loads(text)]


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
    """Uniform random simple graph: each pair is an edge with probability 1/2."""
    edges = [
        (u, v)
        for u in range(order)
        for v in range(u + 1, order)
        if rng.random() < 0.5
    ]
    return make_graph(order, edges)


def verify_random_joins(
    pair_count: int = 100,
    seed: int = 20260809,
    max_order: int = 8,
    tol: float = DEFAULT_CASE_TOL,
) -> list[JoinCheck]:
    """Check both join spectrum maps on seeded random pairs of graphs.

    The component graphs may be disconnected; the join never is.  Each
    check records its own seed so any failure is reproducible.
    """
    _check_tol("tol", tol, zero_ok=False)
    checks = []
    for k in range(pair_count):
        pair_seed = seed + k
        rng = np.random.default_rng(pair_seed)
        n1 = int(rng.integers(1, max_order + 1))
        n2 = int(rng.integers(1, max_order + 1))
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
                ok=lap_dev <= tol and dl_dev <= tol,
            )
        )
    return checks
