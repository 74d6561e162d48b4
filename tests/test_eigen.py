"""Jacobi eigensolver and multiplicity grouping tests.

numpy.linalg.eigvalsh serves as an independent reference for the
rotation kernel itself; everything downstream of this module relies on
the Jacobi solver alone.
"""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanspectra import eigen
from fanspectra.closed_forms import (
    ClosedFormSpectrum,
    fan_distance_laplacian_spectrum,
    fan_laplacian_spectrum,
    nc_distance_laplacian_spectrum,
    nc_laplacian_spectrum,
)
from fanspectra.eigen import (
    JacobiConvergenceError,
    Multiset,
    Spectrum,
    _round_plan,
    group_multiplicities,
    symmetric_eigenvalues,
)
from fanspectra.graphs import generalized_fan, make_graph, nc_graph, path_graph
from fanspectra.matrices import distance_laplacian, laplacian_matrix
from fanspectra.verify import sweep


def random_symmetric(order, seed, scale=5.0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(order, order)) * scale
    return (a + a.T) / 2.0


ADVERSARIAL_KINDS = ["near-diagonal", "graded", "graded-reversed", "exact-multiples", "ones"]


def adversarial(kind, order):
    """A matrix that is hard on Jacobi's accuracy, named by kind."""
    rng = np.random.default_rng(order)
    coupling = random_symmetric(order, seed=order, scale=1.0)
    grade = np.logspace(0, -6, order)  # entries from 1 down to 1e-12
    return {
        "near-diagonal": lambda: np.diag(rng.choice([-1.0, 1.0], order) * 10.0 ** rng.uniform(-6, 6, order))
        + 1e-9 * coupling,
        "graded": lambda: coupling * np.outer(grade, grade),
        "graded-reversed": lambda: (coupling * np.outer(grade, grade))[::-1, ::-1],
        "exact-multiples": lambda: np.kron(np.eye(order // 2 + 1), random_symmetric(3, seed=order)),
        "ones": lambda: np.ones((order, order)),
    }[kind]()


def pivot_destinations(m):
    """An m x m mask of where a round's pivots land in the next round's slots."""
    source = _round_plan(m)[0][:: m + 1] // m  # diagonal entries come from the diagonal
    return (source[:, None] ^ source) == 1  # slots 2i and 2i+1 differ in the last bit alone


@pytest.fixture(scope="module")
def grid_sweep():
    """The reports of the 2..12 verify grid and the Jacobi rounds it ran."""
    rounds = 0
    off_norm, jacobi_diagonal = eigen._off_norm, eigen._jacobi_diagonal

    def counting(work, spare):  # called once per sweep of m - 1 rounds ...
        nonlocal rounds
        rounds += work.shape[0] - 1
        return off_norm(work, spare)

    def uncounting_the_input(a, *args):  # ... and once on the input
        nonlocal rounds
        rounds -= a.shape[0] + a.shape[0] % 2 - 1
        return jacobi_diagonal(a, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(eigen, "_off_norm", counting)
        patch.setattr(eigen, "_jacobi_diagonal", uncounting_the_input)
        reports = sweep((2, 12), (2, 12))
    return reports, rounds


class TestSymmetricEigenvalues:
    def test_edge_laplacian(self):
        np.testing.assert_allclose(
            symmetric_eigenvalues(laplacian_matrix(path_graph(2))), [0.0, 2.0], atol=1e-12
        )

    def test_path_4_laplacian(self):
        expected = sorted(2 - 2 * math.cos(math.pi * j / 4) for j in range(4))
        np.testing.assert_allclose(
            symmetric_eigenvalues(laplacian_matrix(path_graph(4))), expected, atol=1e-12
        )

    def test_diagonal_matrix_returns_sorted_diagonal(self):
        vals = symmetric_eigenvalues(np.diag([3.0, -1.0, 2.0]))
        assert np.array_equal(vals, [-1.0, 2.0, 3.0])

    def test_empty_and_single(self):
        assert symmetric_eigenvalues(np.empty((0, 0))).size == 0
        assert np.array_equal(symmetric_eigenvalues(np.array([[7.0]])), [7.0])

    @given(order=st.integers(2, 48), seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_matches_lapack_reference(self, order, seed):
        a = random_symmetric(order, seed)
        np.testing.assert_allclose(
            symmetric_eigenvalues(a), np.linalg.eigvalsh(a), atol=1e-9
        )

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_trace_and_frobenius_identities(self, seed):
        a = random_symmetric(10, seed)
        vals = symmetric_eigenvalues(a)
        assert abs(vals.sum() - np.trace(a)) <= 1e-8 * max(1.0, abs(np.trace(a)))
        assert abs((vals**2).sum() - (a**2).sum()) <= 1e-8 * max(1.0, (a**2).sum())

    def test_permutation_invariance(self):
        a = distance_laplacian(generalized_fan(3, 4))
        rng = np.random.default_rng(7)
        perm = rng.permutation(a.shape[0])
        b = a[np.ix_(perm, perm)]
        np.testing.assert_allclose(
            symmetric_eigenvalues(a), symmetric_eigenvalues(b), atol=1e-9
        )

    def test_laplacian_zero_multiplicity_counts_components(self):
        # disjoint union of a 3-path and a 4-path
        edges = [(0, 1), (1, 2)] + [(3, 4), (4, 5), (5, 6)]
        lap = laplacian_matrix(make_graph(7, edges))
        spectrum = group_multiplicities(symmetric_eigenvalues(lap))
        value, multiplicity = spectrum.pairs[0]
        assert abs(value) <= 1e-9
        assert multiplicity == 2

    def test_input_validation(self):
        with pytest.raises(ValueError):
            symmetric_eigenvalues(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            symmetric_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            symmetric_eigenvalues(np.array([[np.inf, 0.0], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            symmetric_eigenvalues(np.eye(2), convergence_tol=0.0)
        with pytest.raises(ValueError):
            symmetric_eigenvalues(np.eye(2), sweep_cap=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "matrix",
        [
            [[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, "x"]],  # a Python max skips a NaN here
            [[2.0, "x", 0.0], ["x", 2.0, 0.0], [0.0, 0.0, 1.0]],
            [[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, "x"]],  # and not symmetric
        ],
    )
    def test_non_finite_entries_are_rejected_before_the_symmetry_check(self, matrix, bad):
        a = np.array([[bad if v == "x" else v for v in row] for row in matrix])
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            symmetric_eigenvalues(a)
        assert np.array_equal(symmetric_eigenvalues(np.empty((0, 0))), [])

    @pytest.mark.parametrize(
        "matrix",
        [
            [[0.0, 1e-200], [0.0, 0.0]],
            [[1e-12, 5e-11], [0.0, 1e-12]],
        ],
    )
    def test_symmetry_bound_is_relative_to_the_largest_entry(self, matrix):
        with pytest.raises(ValueError, match="not symmetric"):
            symmetric_eigenvalues(np.array(matrix))

    @pytest.mark.parametrize("matrix", [[[2, 1j], [-1j, 2]], np.eye(2, dtype=complex)])
    def test_complex_input_is_rejected(self, matrix):
        # a cast to float drops the imaginary parts: [[2, i], [-i, 2]] would give [2, 2], not [1, 3]
        with pytest.raises(ValueError, match="^matrix entries must be real$"):
            symmetric_eigenvalues(np.asarray(matrix))
        with pytest.raises(ValueError, match="^matrix entries must be real$"):
            symmetric_eigenvalues(matrix)

    def test_roundoff_asymmetry_is_accepted_at_any_scale(self):
        for scale in (1e-200, 1.0, 1e200):
            a = np.array([[2.0, 1.0], [1.0 + 1e-12, 2.0]]) * scale
            np.testing.assert_allclose(symmetric_eigenvalues(a), [scale, 3 * scale], rtol=1e-9)
        np.testing.assert_array_equal(symmetric_eigenvalues(np.zeros((3, 3))), [0.0, 0.0, 0.0])

    def test_sweep_cap_failure_carries_diagnostics(self):
        a = random_symmetric(8, seed=3)
        with pytest.raises(JacobiConvergenceError, match="off-diagonal norm"):
            symmetric_eigenvalues(a, sweep_cap=1)

    @pytest.mark.parametrize("tol", [math.inf, math.nan, -1e-12, 0.0, -0.0])
    def test_convergence_tol_must_be_finite_and_positive(self, tol):
        with pytest.raises(ValueError, match="^convergence_tol must be finite and positive$"):
            symmetric_eigenvalues(np.eye(2), convergence_tol=tol)

    def test_diagnostics_are_in_the_units_of_the_input(self):
        a = random_symmetric(8, seed=3) * 1e100
        with pytest.raises(JacobiConvergenceError) as caught:
            symmetric_eigenvalues(a, sweep_cap=1)
        initial = float(re.search(r"initial ([-+.e0-9]+)", str(caught.value)).group(1))
        off_diagonal = a - np.diag(np.diag(a))
        assert initial == pytest.approx(np.sqrt(np.sum(off_diagonal**2)), rel=1e-3)

    @pytest.mark.parametrize("factor", [1e200, 1e-200])
    def test_entries_far_from_one(self, factor):
        # squares of these entries overflow or underflow in double precision
        for order in (6, 5, 16, 33):
            base = random_symmetric(order, seed=11)
            expected = np.linalg.eigvalsh(base) * factor
            values = symmetric_eigenvalues(base * factor)
            assert np.max(np.abs(values - expected)) <= 1e-12 * np.max(np.abs(base * factor))


class TestRoundRobinSchedule:
    @pytest.mark.parametrize("m", [2, 4, 6, 10, 16])
    def test_each_sweep_rotates_every_pair_once_and_restores_the_order(self, m):
        source = _round_plan(m)[0][:: m + 1] // m
        slots = np.arange(m)  # slots[k] = the index held in slot k
        met = []
        for _ in range(m - 1):
            met += [frozenset(pair) for pair in slots.reshape(-1, 2).tolist()]
            slots = slots[source]
        assert len(met) == len(set(met)) == m * (m - 1) // 2
        assert np.array_equal(slots, np.arange(m))

    @pytest.mark.parametrize("m", [2, 4, 6, 10, 16])
    def test_the_zero_entry_is_gathered_onto_the_pivots_alone(self, m):
        gather = _round_plan(m)[0].reshape(m, m)
        source, pivots = gather.diagonal() // m, pivot_destinations(m)
        assert np.array_equal(gather == m * m, pivots) and pivots.sum() == m
        assert np.array_equal(gather[~pivots], (source[:, None] * m + source)[~pivots])

    @pytest.mark.parametrize("order", [2, 7, 16])
    def test_every_pivot_is_exactly_zero_after_a_round(self, monkeypatch, order):
        m = order + order % 2
        pivots = pivot_destinations(m).reshape(-1)
        seen, off_norm = [], eigen._off_norm

        def recording(work, spare):  # after each sweep's last round, and once before any
            seen.append(work.reshape(-1)[pivots])
            return off_norm(work, spare)

        monkeypatch.setattr(eigen, "_off_norm", recording)
        symmetric_eigenvalues(random_symmetric(order, seed=order))
        assert len(seen) > 1 and all(np.all(entries == 0.0) for entries in seen[1:])

    @pytest.mark.parametrize("order", [2, 3, *range(5, 50, 2)])
    def test_small_and_odd_orders(self, order):
        a = random_symmetric(order, seed=order)
        np.testing.assert_allclose(
            symmetric_eigenvalues(a), np.linalg.eigvalsh(a), atol=1e-9
        )

    def test_exact_zeros_between_equal_diagonal_entries(self):
        # pairs with a_pp == a_qq and a_pq == 0 make the tangent formula 0/0
        a = 2.0 * np.eye(6)
        a[0, 1] = a[1, 0] = 1.0
        np.testing.assert_allclose(symmetric_eigenvalues(a), [1, 2, 2, 2, 2, 3], atol=1e-14)
        np.testing.assert_allclose(
            symmetric_eigenvalues(np.ones((5, 5))), [0, 0, 0, 0, 5], atol=1e-14
        )

    def test_block_diagonal_input(self):
        blocks = [random_symmetric(k, seed=k) for k in (3, 4, 5)]
        a = np.zeros((12, 12))
        start = 0
        for block in blocks:
            a[start : start + len(block), start : start + len(block)] = block
            start += len(block)
        expected = np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in blocks]))
        np.testing.assert_allclose(symmetric_eigenvalues(a), expected, atol=1e-12)

    @pytest.mark.parametrize(
        "builder, graph, form",
        [
            (laplacian_matrix, generalized_fan, fan_laplacian_spectrum),
            (distance_laplacian, generalized_fan, fan_distance_laplacian_spectrum),
            (laplacian_matrix, nc_graph, nc_laplacian_spectrum),
            (distance_laplacian, nc_graph, nc_distance_laplacian_spectrum),
        ],
    )
    def test_high_multiplicity_family_spectra(self, builder, graph, form):
        # twelve hubs: eigenvalues of multiplicity 11 and more
        for m, n in ((12, 2), (12, 3)):
            np.testing.assert_allclose(
                symmetric_eigenvalues(builder(graph(m, n))), form(m, n).expanded(), atol=1e-9
            )

    def test_does_not_call_lapack(self, monkeypatch):
        a = distance_laplacian(nc_graph(3, 4))
        expected = np.linalg.eigvalsh(a)

        def forbidden(*args, **kwargs):
            raise AssertionError("the Jacobi oracle called numpy.linalg")

        for name in ("eigh", "eigvalsh", "eig", "eigvals"):
            monkeypatch.setattr(np.linalg, name, forbidden)
        np.testing.assert_allclose(symmetric_eigenvalues(a), expected, atol=1e-9)


class TestRoundLoop:
    @staticmethod
    def _peak_bytes(matrix):
        symmetric_eigenvalues(matrix)  # warm-up: builds and caches the order's round plan
        tracemalloc.start()
        try:
            symmetric_eigenvalues(matrix)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("m, n", [(4, 4), (12, 12)])  # orders 16 and 48
    def test_rounds_allocate_nothing(self, m, n):
        # a diagonal matrix of the same order runs no round at all
        lap = laplacian_matrix(nc_graph(m, n))
        assert self._peak_bytes(lap) - self._peak_bytes(np.diag(np.diag(lap))) <= 512

    def test_the_cached_plans_are_read_only_and_shared_safely(self):
        _, gap_floor, one = _round_plan(16)
        assert not gap_floor.flags.writeable and not one.flags.writeable
        assert np.array_equal(gap_floor, np.full(8, 2.0**-52)) and np.array_equal(one, np.ones(8))
        matrices = [
            random_symmetric(3, seed=1), laplacian_matrix(nc_graph(4, 4)), random_symmetric(3, seed=2)
        ]
        interleaved = [symmetric_eigenvalues(a) for a in matrices]
        for a, values in zip(matrices, interleaved):
            _round_plan.cache_clear()
            assert np.array_equal(symmetric_eigenvalues(a), values)


class TestOracleRegressionGuards:
    def test_the_verify_grid_takes_no_more_rounds(self, grid_sweep):
        # 84,069: the grid's count when each round applied J^T A J and set
        # the pair blocks from the update formulas
        assert grid_sweep[1] <= 84_069

    def test_every_grid_case_passes_far_inside_the_case_tolerance(self, grid_sweep):
        reports = grid_sweep[0]
        assert len(reports) == 484 and all(report.passed for report in reports)
        assert max(report.max_abs_deviation for report in reports) <= 1e-11

    @pytest.mark.parametrize("order", [5, 8, 16, 33])
    @pytest.mark.parametrize("kind", ADVERSARIAL_KINDS)
    def test_adversarial_matrices_match_lapack(self, kind, order):
        a = adversarial(kind, order)
        error = np.max(np.abs(symmetric_eigenvalues(a) - np.linalg.eigvalsh(a)))
        assert error <= 1e-12 * np.max(np.abs(a))


class TestGrouping:
    def test_merges_numerical_duplicates(self):
        spectrum = group_multiplicities([0.0, 1e-13, 2.0], grouping_tol=1e-9)
        assert spectrum.pairs == ((5e-14, 2), (2.0, 1))

    def test_empty_input(self):
        assert group_multiplicities([]).pairs == ()

    def test_representative_is_group_mean(self):
        spectrum = group_multiplicities([1.0, 1.0 + 4e-7, 1.0 + 8e-7], grouping_tol=1e-6)
        assert spectrum.pairs == ((1.0 + 4e-7, 3),)

    def test_a_chain_of_small_gaps_does_not_merge_past_the_tolerance(self):
        # 101 values 0.4e-6 apart span 40e-6; each gap is within 1e-6
        values = [i * 4e-7 for i in range(101)]
        spectrum = group_multiplicities(values, grouping_tol=1e-6)
        assert [k for _, k in spectrum.pairs] == [3] * 33 + [2]
        assert spectrum.order == 101

    @given(
        start=st.floats(-100.0, 100.0),
        gaps=st.lists(st.floats(0.0, 1e-6), min_size=1, max_size=200),
        tol=st.sampled_from([1e-9, 1e-6, 1e-3]),
    )
    @settings(max_examples=60)
    def test_every_group_is_no_wider_than_the_tolerance(self, start, gaps, tol):
        values = list(np.cumsum([start, *gaps]))
        spectrum = group_multiplicities(values, grouping_tol=tol)
        assert spectrum.order == len(values)
        offset = 0
        for _, count in spectrum.pairs:
            group = values[offset : offset + count]
            assert group[-1] - group[0] <= tol
            offset += count
        # greedy from the left: the next group starts more than tol above this one
        starts = np.cumsum([0] + [count for _, count in spectrum.pairs])[:-1]
        assert all(values[b] - values[a] > tol for a, b in zip(starts, starts[1:]))

    def test_fan_3_4_laplacian_multiplicities(self):
        vals = symmetric_eigenvalues(laplacian_matrix(generalized_fan(3, 4)))
        spectrum = group_multiplicities(vals)
        assert [k for _, k in spectrum.pairs] == [1, 1, 2, 1, 1, 1]

    def test_requires_sorted_input(self):
        with pytest.raises(ValueError):
            group_multiplicities([2.0, 1.0])

    def test_requires_finite_values(self):
        with pytest.raises(ValueError):
            group_multiplicities([0.0, float("nan")])

    @pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf, -math.inf, -5e-324])
    def test_grouping_tol_must_be_finite_and_non_negative(self, tol):
        with pytest.raises(ValueError, match="^grouping_tol must be finite and non-negative$"):
            group_multiplicities([1.0, 2.0], grouping_tol=tol)

    def test_zero_grouping_tol_merges_exact_duplicates_only(self):
        spectrum = group_multiplicities([1.0, 1.0, 1.0 + 1e-15], grouping_tol=0.0)
        assert spectrum.pairs == ((1.0, 2), (1.0 + 1e-15, 1))

    @given(seed=st.integers(0, 5_000))
    @settings(max_examples=30)
    def test_multiplicities_cover_the_input(self, seed):
        rng = np.random.default_rng(seed)
        values = np.sort(rng.normal(size=rng.integers(0, 20)))
        spectrum = group_multiplicities(values)
        assert spectrum.order == values.size


class TestSpectrumType:
    def test_expansion_round_trip(self):
        s = Spectrum(((0.0, 2), (1.5, 1)), 1e-6)
        assert s.expanded() == [0.0, 0.0, 1.5]
        assert s.values() == [0.0, 1.5]
        assert s.order == 3
        assert s.total() == 1.5

    def test_both_spectrum_types_share_the_multiset_members(self):
        closed = ClosedFormSpectrum(((0.0, 1), (2.0, 2)), "test")
        numeric = Spectrum(((0.0, 1), (2.0, 2)))
        for s in (closed, numeric):
            assert isinstance(s, Multiset)
            assert (s.order, s.expanded(), s.values(), s.total()) == (3, [0.0, 2.0, 2.0], [0.0, 2.0], 4.0)
