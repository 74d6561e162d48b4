"""End-to-end acceptance checks, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass/fail
line each criterion prints.  The heavy closed-form vs numeric sweep
(2 <= m, n <= 12 for every closed-form kind) runs once and is shared.
"""

import math
import time

import numpy as np
import pytest

import stated
from fanspectra.closed_forms import fan_distance_laplacian_as_stated, nc_distance_laplacian_spectrum
from fanspectra.eigen import group_multiplicities, symmetric_eigenvalues
from fanspectra.graphs import generalized_fan, nc_graph, path_graph
from fanspectra.matrices import distance_laplacian, laplacian_matrix
from fanspectra.tables import reproduce_fan_table, reproduce_generalized_fan_table
from fanspectra.verify import (
    SpectrumSizeMismatch,
    compare_spectra,
    sweep,
    verify_random_joins,
)

SWEEP_RANGE = (2, 12)
CASE_TOL = 1e-8


def _record(number: int, description: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] acceptance {number}: {description}")
    assert ok, f"acceptance {number} failed: {description}"


@pytest.fixture(scope="module")
def full_sweep():
    start = time.perf_counter()
    reports = sweep(SWEEP_RANGE, SWEEP_RANGE, tol=CASE_TOL)
    elapsed = time.perf_counter() - start
    return reports, elapsed


def test_acceptance_1_fan_reference_table(capsys):
    start = time.perf_counter()
    rows = {row.key[0]: row for row in reproduce_fan_table()}
    elapsed = time.perf_counter() - start
    ok = all(rows[n].laplacian.ok for n in (4, 5, 6, 7))
    flagged = rows[3].laplacian
    ok = ok and not flagged.ok
    ok = ok and flagged.computed == (0.0, 2.0, 4.0, 4.0)
    ok = ok and flagged.reference == (0.0, 1.0, 1.0, 4.0)
    ok = ok and "sum 6" in flagged.note and "trace 10" in flagged.note
    ok = ok and elapsed < 1.0
    with capsys.disabled():
        _record(1, f"single-hub table rows n=4..7 reproduced, n=3 flagged ({elapsed:.2f}s)", ok)


def test_acceptance_2_generalized_fan_reference_table(capsys):
    start = time.perf_counter()
    rows = {row.key: row for row in reproduce_generalized_fan_table()}
    elapsed = time.perf_counter() - start
    ok = all(
        rows[key].adjacency.ok and rows[key].laplacian.ok
        for key in ((2, 3), (3, 2), (3, 4), (4, 3))
    )
    flagged = rows[(2, 2)].laplacian
    ok = ok and not flagged.ok
    ok = ok and flagged.computed == (0.0, 2.0, 4.0, 4.0)
    ok = ok and flagged.reference == (0.0, 2.0, 2.0, 4.0)
    ok = ok and elapsed < 1.0
    with capsys.disabled():
        _record(2, f"generalized table rows reproduced under header swap, (2,2) flagged ({elapsed:.2f}s)", ok)


def test_acceptance_3_closed_forms_match_oracle(full_sweep, capsys):
    reports, elapsed = full_sweep
    expected_cases = (SWEEP_RANGE[1] - SWEEP_RANGE[0] + 1) ** 2 * 4
    ok = len(reports) == expected_cases
    worst_dev = max(r.max_abs_deviation for r in reports)
    worst_trace = max(r.trace_residual for r in reports)
    ok = ok and worst_dev < CASE_TOL and worst_trace < CASE_TOL
    ok = ok and elapsed < 60.0
    with capsys.disabled():
        _record(
            3,
            f"sweep 2..12 squared, 4 kinds: max deviation {worst_dev:.2e}, "
            f"max trace residual {worst_trace:.2e} ({elapsed:.1f}s)",
            ok,
        )


def test_acceptance_4_join_maps_on_random_pairs(capsys):
    checks = verify_random_joins(pair_count=100, seed=20260809, max_order=8, tol=CASE_TOL)
    worst = max(
        max(c.laplacian_deviation, c.distance_laplacian_deviation) for c in checks
    )
    ok = len(checks) == 100 and all(c.ok for c in checks)
    with capsys.disabled():
        _record(4, f"both join spectrum maps hold on 100 seeded pairs (worst {worst:.2e})", ok)


def test_acceptance_5_quotient_containment_and_exact_quotients(full_sweep, capsys):
    reports, _ = full_sweep
    ok = all(r.quotient_containment_ok for r in reports)
    for m, n in stated.GRID:
        laplacian, distance = stated.computed_quotients(m, n)
        ok = ok and np.array_equal(laplacian, stated.laplacian_quotient(m, n))
        ok = ok and np.array_equal(distance, stated.distance_laplacian_quotient(m, n))
    with capsys.disabled():
        _record(5, "quotient eigenvalues contained in full spectra; stated 4x4 quotients exact", ok)


def test_acceptance_6_errata_demonstrations(capsys):
    # (a) the computed Laplacian quotient's characteristic polynomial is the
    # stated quartic and factors exactly, so the stated root pair (whose sum
    # is m+n) cannot solve it: the four roots must total 2m+2n+2.
    ok = True
    for m, n in stated.GRID:
        direct = stated.charpoly(stated.computed_quotients(m, n)[0])
        factored = np.polymul(np.polymul([1, 0], [1, -(m + n)]), [1, -(m + n + 2), 2 * m])
        ok = ok and direct == stated.laplacian_quartic(m, n) and np.array_equal(factored, direct)
        true_root_sum = -direct[1]
        stated_root_sum = 0 + (m + n) + (m + n)
        ok = ok and stated_root_sum != true_root_sum

    # (b) the pair-class distance Laplacian at (2, 2): trace 100, and the
    # derived hub eigenvalue 3n+5m = 16 is present with multiplicity
    # m-1 = 1; swapping in the stated pair would break the trace.
    m = n = 2
    matrix = distance_laplacian(nc_graph(m, n))
    ok = ok and float(np.trace(matrix)) == 100.0
    closed = nc_distance_laplacian_spectrum(m, n)
    ok = ok and closed.total() == pytest.approx(100.0, abs=1e-9)
    ok = ok and any(abs(v - 16.0) < 1e-12 and k == m - 1 for v, k in closed.pairs)
    numeric = group_multiplicities(symmetric_eigenvalues(matrix))
    ok = ok and any(abs(v - 16.0) < 1e-8 and k == m - 1 for v, k in numeric.pairs)
    stated_sum = closed.total() - (m - 1) * (3 * n + 5 * m) + (m - 1) * (3 * n + 5 * m - 2)
    ok = ok and stated_sum != pytest.approx(100.0, abs=1e-6)

    # (c) the stated fan distance-Laplacian multiset is oversized and is
    # rejected outright by the comparator.
    m, n = 3, 4
    oversized = fan_distance_laplacian_as_stated(m, n)
    ok = ok and len(oversized) == m + n + 1
    oracle = symmetric_eigenvalues(distance_laplacian(generalized_fan(m, n)))
    try:
        compare_spectra(oversized, oracle)
        ok = False
    except SpectrumSizeMismatch:
        pass
    with capsys.disabled():
        _record(6, "all three errata demonstrated (factored quartic, trace check, cardinality)", ok)


def test_acceptance_7_eigensolver_quality(full_sweep, capsys):
    ok = True
    for n in range(2, 51):
        lap = laplacian_matrix(path_graph(n))
        values = symmetric_eigenvalues(lap)
        analytic = np.sort([2.0 - 2.0 * math.cos(math.pi * j / n) for j in range(n)])
        ok = ok and float(np.max(np.abs(values - analytic))) <= 1e-9
        trace = float(np.trace(lap))
        ok = ok and abs(float(values.sum()) - trace) <= 1e-8 * max(1.0, abs(trace))
        ok = ok and values[0] >= -1e-9
    # the family matrices: eigenvalue sums against traces, minima against 0
    for m, n in ((2, 2), (5, 7), (12, 12)):
        for matrix in (
            laplacian_matrix(nc_graph(m, n)),
            distance_laplacian(nc_graph(m, n)),
        ):
            values = symmetric_eigenvalues(matrix)
            trace = float(np.trace(matrix))
            ok = ok and abs(float(values.sum()) - trace) <= 1e-8 * max(1.0, abs(trace))
            ok = ok and values[0] >= -1e-9
    reports, _ = full_sweep
    ok = ok and all(r.psd_ok for r in reports)
    with capsys.disabled():
        _record(7, "path Laplacians to n=50 within 1e-9; trace and semidefiniteness hold", ok)
