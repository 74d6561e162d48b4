"""Reference spectra tables for small fan graphs, and their recomputation.

Two tables are bundled: one for the single-hub fans F_{1,n} (n = 3..7)
and one for generalized fans.  In the reference layout of the second
table the column headers are swapped: the first column (headed "n")
actually lists the hub count m and the second (headed "m") the path
length n.  The keys used here are the true (m, n).

``reproduce_*`` recomputes every cell (adjacency numerically, Laplacian
from the closed form), rounds to two decimals half away from zero, and
compares against the reference values with a 0.01 slack, by the rule that
``verify.compare_spectra`` applies.  Cells that
disagree get an erratum note; two reference cells are known to fail
(the n = 3 Laplacian row of the first table and the Laplacian row of
the (2, 2) generalized fan, whose reference values are the 4-cycle's).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .closed_forms import fan_laplacian_spectrum
from .eigen import _left_sum, symmetric_eigenvalues
from .graphs import generalized_fan
from .matrices import adjacency_matrix
from .verify import _largest_gap

MATCH_SLACK = 0.01 + 1e-9
COLUMNS = ("adjacency", "laplacian")  # each row's cells, as RowCheck names them

REFERENCE_FAN_TABLE: dict[int, tuple[tuple[float, ...], tuple[float, ...]]] = {
    # n: (adjacency values, laplacian values) as stated, order immaterial
    3: ((0, -1, -1.56, 2.56), (0, 1, 1, 4)),
    4: ((-1.62, 0.62, -1.47, -0.46, 2.93), (5, 3, 0, 1.58, 4.41)),
    5: ((3.22, 0.11, -1.53, -1.81, 1, -1), (6, 0, 2.38, 4.62, 1.38, 3.62)),
    6: ((-1.80, -0.44, 1.25, -1.82, -1.18, 0.54, 3.46), (7, 4, 3, 2, 0, 1.27, 4.73)),
    7: (
        (0, -2, -1.41, 1.41, -1.81, -0.71, 0.84, 3.67),
        (8, 0, 1.75, 3.44, 4.8, 1.2, 2.55, 4.25),
    ),
}

REFERENCE_GENERALIZED_FAN_TABLE: dict[
    tuple[int, int], tuple[tuple[float, ...], tuple[float, ...]]
] = {
    # true (m, n): (adjacency values, laplacian values) as stated
    (2, 2): ((2, -2, 0, 0), (0, 2, 2, 4)),
    (2, 3): ((-2, 0, 0, -1.24, 3.24), (0, 5, 5, 3, 3)),
    (3, 2): ((3, -1, -2, 0, 0), (0, 5, 5, 2, 2)),
    (3, 4): ((0, 0, -1.62, 0.62, -2.84, -0.49, 4.32), (0, 7, 5, 4, 4, 3.58, 6.41)),
    (4, 3): ((0, 0, 0, 0, -2.92, -1.3, 4.22), (0, 5, 7, 7, 3, 3, 3)),
}


def round_half_away(x: float) -> float:
    # to two decimals; the trailing + 0.0 normalizes -0.0
    return math.copysign(math.floor(abs(x) * 100 + 0.5), x) / 100 + 0.0


@dataclass(frozen=True)
class CellCheck:
    reference: tuple[float, ...]
    computed: tuple[float, ...]
    ok: bool
    note: str = ""


@dataclass(frozen=True)
class RowCheck:
    key: tuple[int, ...]
    adjacency: CellCheck
    laplacian: CellCheck


def _check_cell(reference, computed_exact, trace: float) -> CellCheck:
    reference = tuple(sorted(float(v) for v in reference))
    computed = tuple(sorted(round_half_away(v) for v in computed_exact))
    ok = len(reference) == len(computed) and _largest_gap(reference, computed) <= MATCH_SLACK
    note = "" if ok else (
        f"reference values {list(reference)} (sum {_left_sum(reference):g}) disagree with "
        f"the recomputed values {list(computed)} (matrix trace {trace:g})"
    )
    return CellCheck(reference, computed, ok, note)


def _check_row(key: tuple[int, ...], m: int, n: int, reference) -> RowCheck:
    graph = generalized_fan(m, n)
    computed = symmetric_eigenvalues(adjacency_matrix(graph)), fan_laplacian_spectrum(m, n).expanded()
    traces = 0.0, float(2 * graph.edge_count)  # each cell's matrix trace, in COLUMNS order
    return RowCheck(key, *map(_check_cell, reference, computed, traces))


def reproduce_fan_table() -> list[RowCheck]:
    """Recompute the single-hub fan table, one row per n."""
    return [
        _check_row((n,), 1, n, reference)
        for n, reference in sorted(REFERENCE_FAN_TABLE.items())
    ]


def reproduce_generalized_fan_table() -> list[RowCheck]:
    """Recompute the generalized fan table, one row per true (m, n)."""
    return [
        _check_row((m, n), m, n, reference)
        for (m, n), reference in sorted(REFERENCE_GENERALIZED_FAN_TABLE.items())
    ]
