"""Jacobi eigensolver and multiplicity grouping tests.

numpy.linalg.eigvalsh serves as an independent reference for the
rotation kernel itself; everything downstream of this module relies on
the Jacobi solver alone.
"""

import fractions
import itertools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanspectra import eigen
from fanspectra.closed_forms import (
    fan_distance_laplacian_spectrum,
    fan_laplacian_spectrum,
    nc_distance_laplacian_spectrum,
    nc_laplacian_spectrum,
)
from fanspectra.eigen import (
    DEFAULT_CONVERGENCE_TOL,
    GROUPING_SCALE,
    JacobiConvergenceError,
    Spectrum,
    _round_plan,
    group_multiplicities,
    record,
    symmetric_eigenvalues,
)
from fanspectra.graphs import generalized_fan, make_graph, nc_graph, path_graph
from fanspectra.matrices import MatrixKind, build_matrix, distance_laplacian, laplacian_matrix
from fanspectra.verify import sweep, verify_case


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


def record_runs(patch, read=lambda member: None):
    """Hook the solver; the returned list gets one (members, order, reads) for each Jacobi
    run it makes (one member for a matrix solved whole, two for the halves of a matrix
    that equals its reversal), where reads maps each member's flat offset to read(member)
    at each off-norm taken of it: once on its scaled input, then after each sweep that
    rotated it."""
    runs, off_norm, diagonal = [], eigen._off_norm, eigen._diagonal

    def recording(work, spare, m, start=0):
        member = work[start : start + m * m].reshape(m, m)
        runs[-1][2].setdefault(start, []).append(read(member))
        return off_norm(work, spare, m, start)

    def opened(a, exponent, convergence_tol, members):
        runs.append((members, len(a) // members, {}))
        return diagonal(a, exponent, convergence_tol, members)

    patch.setattr(eigen, "_off_norm", recording)
    patch.setattr(eigen, "_diagonal", opened)
    return runs


def solve_reading(monkeypatch, matrix, read=lambda work: None):
    """The matrix's eigenvalues, and its Jacobi runs as record_runs gives them, with
    each run's reads a list in member order."""
    runs = record_runs(monkeypatch, read)
    values = symmetric_eigenvalues(matrix)
    return values, [(members, order, list(reads.values())) for members, order, reads in runs]


@pytest.fixture(scope="module")
def grid_sweep():
    """The reports of the 2..12 verify grid, the Jacobi runs it made, the rounds they ran
    (a round of a stack counted once), the sweeps its members of order 2 and 4 took, and
    the runs of two members that stopped at different sweeps."""
    with pytest.MonkeyPatch.context() as patch:
        runs = record_runs(patch)
        reports = sweep((2, 12), (2, 12))
    rounds = small_sweeps = uneven = 0
    for _, order, reads in runs:
        sweeps = [len(seen) - 1 for seen in reads.values()]
        rounds += (order + order % 2 - 1) * max(sweeps)  # the run sweeps until its last member stops
        small_sweeps += sum(sweeps) if order in (2, 4) else 0
        uneven += len(set(sweeps)) > 1
    return reports, len(runs), rounds, small_sweeps, uneven


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
        empty = symmetric_eigenvalues(np.empty((0, 0)))
        assert empty.shape == (0,) and empty.dtype == np.float64
        # orders 0 and 1 take the general path; a 1 x 1 input comes back bit for bit
        for value in (7.0, 0.0, -0.0, 5e-324, -5e-324, 1e-310, 1.7e308, -1.7e308):
            result = symmetric_eigenvalues(np.array([[value]]))
            assert result.tobytes() == np.array([value]).tobytes()
        assert symmetric_eigenvalues([[3]]).tobytes() == np.array([3.0]).tobytes()

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

    @pytest.mark.parametrize("position", range(9))
    def test_the_scale_is_the_largest_magnitude_in_any_layout(self, position):
        # read off argmax and argmin, which stop at the first NaN wherever it sits
        a = np.arange(9.0).reshape(3, 3) - 4.0
        a.flat[position] = -9.0
        for x in (a, a.T, a[::-1, ::-1], np.asfortranarray(a), a[:, 1:]):
            assert eigen._abs_max(x) == float(np.abs(x).max())
        a.flat[position] = math.nan
        assert math.isnan(eigen._abs_max(a)) and math.isnan(eigen._abs_max(a.T))
        assert eigen._abs_max(np.empty((0, 0))) == 0.0

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

    @pytest.mark.parametrize(
        "matrix",
        [
            np.full((2, 2), 1e308),  # eigenvalue 2e308, past the largest double
            np.full((2, 2), -1e308),
            np.full((4, 4), 1e308),  # equal to its reversal: solved as two halves
            1.5e308 * (np.eye(3, k=1) + np.eye(3, k=-1)),  # +-2.1e308 at both ends
        ],
        ids=["2x2", "2x2-negative", "4x4-split", "path-3"],
    )
    def test_a_spectrum_beyond_float64_is_a_named_error(self, matrix):
        # before the scaled values are multiplied back, not an overflow warning in ldexp
        with pytest.raises(ValueError, match="^the spectrum leaves float64"):
            symmetric_eigenvalues(matrix)

    def test_a_spectrum_at_the_top_of_float64_is_returned(self):
        np.testing.assert_allclose(symmetric_eigenvalues(np.full((2, 2), 8e307)), [0.0, 1.6e308], atol=1e293)
        big = np.finfo(float).max
        assert symmetric_eigenvalues([[big, 0.0], [0.0, -big]]).tolist() == [-big, big]

    def test_sweep_cap_failure_carries_diagnostics(self, monkeypatch):
        monkeypatch.setattr(eigen, "SWEEP_CAP", 1)  # read when the solve runs
        a = random_symmetric(8, seed=3)
        with pytest.raises(JacobiConvergenceError, match="^no convergence after 1 sweeps: off-diagonal norm"):
            symmetric_eigenvalues(a)

    def test_a_sweep_that_does_not_lower_the_off_norm_stops_the_solve(self, monkeypatch):
        # an off-norm no lower than before the sweep is a stall, even when equal to it
        monkeypatch.setattr(eigen, "_off_norm", lambda work, spare, m, start=0: 1.0)
        with pytest.raises(JacobiConvergenceError) as caught:
            symmetric_eigenvalues(random_symmetric(8, seed=3))
        assert re.match(
            r"no convergence after 1 sweeps: off-diagonal norm \S+ stalled \(\S+ before sweep 1\), "
            r"target \S+ \(initial \S+\)$",
            str(caught.value),
        )

    @pytest.mark.parametrize(
        "family, m, n, split",
        [
            (generalized_fan, 2, 3, False),
            (nc_graph, 2, 2, True),
            (nc_graph, 9, 7, True),
            (generalized_fan, 16, 16, False),
        ],
    )
    def test_a_tolerance_below_roundoff_stalls_long_before_the_cap(self, monkeypatch, family, m, n, split):
        # the off-norm reaches its roundoff floor and stops falling: no sweep after that
        # can meet a 1e-300 target, so the first one that does not lower it ends the solve
        a = laplacian_matrix(family(m, n))
        runs = record_runs(monkeypatch)
        with pytest.raises(JacobiConvergenceError) as caught:
            symmetric_eigenvalues(a, convergence_tol=1e-300)
        [(members, _, reads)] = runs
        assert members == (2 if split else 1)
        sweeps = int(re.match(r"no convergence after (\d+) sweeps: ", str(caught.value)).group(1))
        assert 1 <= sweeps < eigen.SWEEP_CAP // 4 and " stalled (" in str(caught.value)
        assert max(len(seen) for seen in reads.values()) - 1 == sweeps
        initial = float(re.search(r"initial ([-+.e0-9]+)", str(caught.value)).group(1))
        norm = float(re.search(r"off-diagonal norm ([-+.e0-9]+)", str(caught.value)).group(1))
        assert norm <= 1e-12 * initial  # converged as far as roundoff lets it
        # the default target is met on the way down, so the same matrix converges
        assert np.max(np.abs(symmetric_eigenvalues(a) - np.linalg.eigvalsh(a))) <= 1e-12 * np.max(np.abs(a))

    @pytest.mark.parametrize("tol", [math.inf, math.nan, -1e-12, 0.0, -0.0])
    def test_convergence_tol_must_be_finite_and_positive(self, tol):
        with pytest.raises(ValueError, match="^convergence_tol must be finite and positive$"):
            symmetric_eigenvalues(np.eye(2), convergence_tol=tol)

    @pytest.mark.parametrize(
        "tol", ["1e-13", None, 1e-13 + 0j, np.array([1e-13]), np.array(True), np.array([1e-12])]
    )
    def test_a_convergence_tol_that_is_not_a_number_is_rejected(self, tol):
        # once a TypeError from math.isfinite (np.array(True) was read as 1, too loose);
        # np.array([1e-12]) equals the default, and once skipped the check for that reason
        with pytest.raises(ValueError, match="^convergence_tol must be a number, got "):
            symmetric_eigenvalues(np.eye(2), convergence_tol=tol)

    @pytest.mark.parametrize(
        "tol", [np.float64(1e-13), np.float32(1e-13), np.array(1e-13), fractions.Fraction(1, 10**13)]
    )
    def test_a_real_scalar_or_0_d_convergence_tol_is_accepted(self, tol):
        matrix = laplacian_matrix(generalized_fan(2, 3))
        values = symmetric_eigenvalues(matrix, convergence_tol=tol)
        assert np.max(np.abs(values - np.linalg.eigvalsh(matrix))) <= 1e-12

    @pytest.mark.parametrize("tol", [math.nextafter(1e-12, 1.0), 1e-9, 0.5, 0.9, 1.0, 2.0, 1e300])
    def test_convergence_tol_must_be_at_most_the_default(self, tol):
        # the default grouping width assumes values at least this tight: at 0.9 the
        # fan's values would be up to 0.40 off, and from 1 on its vertex degrees
        matrix = laplacian_matrix(generalized_fan(2, 3))
        with pytest.raises(ValueError, match="^convergence_tol must be at most 1e-12$"):
            symmetric_eigenvalues(matrix, convergence_tol=tol)
        exact = np.linalg.eigvalsh(matrix)
        for tighter in (DEFAULT_CONVERGENCE_TOL, 1e-14):
            values = symmetric_eigenvalues(matrix, convergence_tol=tighter)
            assert np.max(np.abs(values - exact)) <= 1e-12

    def test_diagnostics_are_in_the_units_of_the_input(self, monkeypatch):
        monkeypatch.setattr(eigen, "SWEEP_CAP", 1)
        a = random_symmetric(8, seed=3) * 1e100
        with pytest.raises(JacobiConvergenceError) as caught:
            symmetric_eigenvalues(a)
        initial = float(re.search(r"initial ([-+.e0-9]+)", str(caught.value)).group(1))
        off_diagonal = a - np.diag(np.diag(a))
        assert initial == pytest.approx(np.sqrt(np.sum(off_diagonal**2)), rel=1e-3)

    def test_a_split_solve_reports_the_whole_s_target_in_input_units(self, monkeypatch):
        # each half stops at the whole's target over sqrt 2, so the two together meet it
        monkeypatch.setattr(eigen, "SWEEP_CAP", 1)
        a = reversal_symmetric(8, seed=3, scale=1e100)
        with pytest.raises(JacobiConvergenceError) as caught:
            symmetric_eigenvalues(a)
        target = float(re.search(r"target ([-+.e0-9]+)", str(caught.value)).group(1))
        off_diagonal = a - np.diag(np.diag(a))
        assert target == pytest.approx(1e-12 * np.sqrt(np.sum(off_diagonal**2) / 2), rel=1e-3)

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
        source = _round_plan(m, 1)[:: m + 1] // m
        slots = np.arange(m)  # slots[k] = the index held in slot k
        met = []
        for _ in range(m - 1):
            met += [frozenset(pair) for pair in slots.reshape(-1, 2).tolist()]
            slots = slots[source]
        assert len(met) == len(set(met)) == m * (m - 1) // 2
        assert np.array_equal(slots, np.arange(m))

    @pytest.mark.parametrize("m", [2, 4, 6, 10, 16])
    def test_the_gather_is_a_permutation(self, m):
        # the pivots move with the rest: no entry is copied from elsewhere or dropped
        gather = _round_plan(m, 1)
        assert np.array_equal(np.sort(gather), np.arange(m * m))
        source = gather[:: m + 1] // m
        assert np.array_equal(gather, (source[:, None] * m + source).ravel())

    @pytest.mark.parametrize("m", [2, 4, 6, 10, 16])
    @pytest.mark.parametrize("members", [2, 3])
    def test_a_stack_s_gather_moves_each_member_as_alone_and_keeps_its_pads(self, m, members):
        gather, block = _round_plan(m, members), m * (m + 1)
        assert np.array_equal(np.sort(gather), np.arange((members - 1) * block + m * m))
        for i in range(members):
            assert np.array_equal(gather[i * block :][: m * m], _round_plan(m, 1) + i * block)
            pad = np.arange(i * block + m * m, min((i + 1) * block, gather.size))
            assert np.array_equal(gather[pad], pad)

    @pytest.mark.parametrize("order", [2, 7, 16, 33])
    @pytest.mark.parametrize("kind", ["random", "graded"])
    def test_a_sweep_keeps_the_frobenius_norm(self, monkeypatch, kind, order):
        # rotations are orthogonal, so only roundoff may move the norm; an entry
        # set to zero by fiat (a pair the floor held back keeps its a_pq) would show
        a = random_symmetric(order, seed=order) if kind == "random" else adversarial(kind, order)
        _, [(_, _, [norms])] = solve_reading(monkeypatch, a, lambda work: math.sqrt(float(np.vdot(work, work))))
        assert len(norms) > 1 and abs(norms[1] - norms[0]) <= 1e-14 * norms[0]

    @pytest.mark.parametrize("order", range(1, 51))
    def test_small_and_odd_orders(self, order):
        # odd orders rotate a padded column pair; order 2 reads a (2, 1) complex view
        rng = np.random.default_rng(order)
        upper = np.triu(rng.random((order, order)) < 0.3, 1)
        edges = zip(*np.nonzero(upper))
        for a in (random_symmetric(order, seed=order), laplacian_matrix(make_graph(order, edges))):
            error = np.max(np.abs(symmetric_eigenvalues(a) - np.linalg.eigvalsh(a)))
            assert error <= 1e-12 * np.max(np.abs(a))

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


def shuffled_nc_laplacian(m, n):
    """nc(m, n)'s Laplacian under a fixed permutation that does not equal its reversal,
    so that it is solved whole, in one full-order Jacobi solve."""
    lap = laplacian_matrix(nc_graph(m, n))
    order = np.random.default_rng(0).permutation(lap.shape[0])
    lap = lap[np.ix_(order, order)]
    assert not np.array_equal(lap, lap[::-1, ::-1])
    return lap


class TestRoundLoop:
    @staticmethod
    def _peak_bytes(solve, matrix):
        solve(matrix)  # warm-up: builds and caches the order's round plan
        tracemalloc.start()
        try:
            solve(matrix)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @staticmethod
    def _split(matrix):
        exponent = math.frexp(float(np.abs(matrix).max()))[1]
        return eigen._diagonal(matrix, exponent, eigen.DEFAULT_CONVERGENCE_TOL, 2)

    @pytest.mark.parametrize("m, n", [(4, 4), (12, 12)])  # orders 16 and 48
    @pytest.mark.parametrize("split", [False, True])
    def test_rounds_allocate_nothing(self, m, n, split):
        # a diagonal matrix of the same order runs no round at all, and is never split
        lap = laplacian_matrix(nc_graph(m, n)) if split else shuffled_nc_laplacian(m, n)
        diagonal = np.diag(np.diag(lap))
        solve = self._split if split else symmetric_eigenvalues
        assert self._peak_bytes(solve, lap) - self._peak_bytes(solve, diagonal) <= 512

    @pytest.mark.parametrize(
        "laplacian, m, n",
        [
            pytest.param(shuffled_nc_laplacian, 4, 4, id="4-4"),  # order 16
            pytest.param(shuffled_nc_laplacian, 12, 12, id="12-12"),  # order 48
            # orders 23 and 47, each padded by a zero row and column (a fan is never split)
            pytest.param(lambda m, n: laplacian_matrix(generalized_fan(m, n)), 11, 12, id="fan-11-12"),
            pytest.param(lambda m, n: laplacian_matrix(generalized_fan(m, n)), 23, 24, id="fan-23-24"),
        ],
    )
    def test_the_solver_holds_at_most_two_matrix_buffers(self, laplacian, m, n):
        # the phase table lives in whichever buffer is free, never in a third one; at an
        # odd order the setup's write into a strided slot took a matrix-sized buffer more
        lap = laplacian(m, n)
        padded = len(lap) + len(lap) % 2
        assert self._peak_bytes(symmetric_eigenvalues, lap) <= 2 * padded**2 * 8 + 4096

    @pytest.mark.parametrize("m, n", [(4, 4), (12, 12), (11, 12)])  # orders 16, 48 and 46
    def test_a_split_holds_at_most_one_matrix_of_buffers(self, m, n):
        # the stack's two buffers, each B + CJ and B - CJ with the pad entries between
        # them, about a half of the padded V x V; a third would pass it.  The halves of
        # order 46 have odd order 23, where the off-norm's np.vdot once copied each slice
        lap = laplacian_matrix(nc_graph(m, n))
        k = len(lap) // 2
        assert self._peak_bytes(self._split, lap) <= (2 * (k + k % 2)) ** 2 * 8 + 4096

    def test_the_symmetry_check_holds_at_most_one_matrix_temporary(self):
        # a - a.T held two: numpy copied the transposed operand as well as the difference
        lap = laplacian_matrix(nc_graph(12, 12))  # order 48
        check = lambda a: eigen._check_symmetric(a, float(np.abs(a).max()))  # noqa: E731
        assert self._peak_bytes(check, lap) <= lap.size * 8 + 4096

    def test_the_cached_plan_is_one_gather_and_shared_safely(self):
        # the gap floor changes each sweep and the pivots each round, so both are
        # the solve's own; the plan is the gather alone, and no solve writes it
        plan = _round_plan(16, 1)
        assert isinstance(plan, np.ndarray) and plan.shape == (256,) and plan.dtype == np.intp
        before = plan.copy()
        matrices = [random_symmetric(3, seed=1), shuffled_nc_laplacian(4, 4), random_symmetric(3, seed=2)]
        interleaved = [symmetric_eigenvalues(a) for a in matrices]
        assert np.array_equal(_round_plan(16, 1), before)
        for a, values in zip(matrices, interleaved):
            _round_plan.cache_clear()
            assert np.array_equal(symmetric_eigenvalues(a), values)

    def test_np_sign_of_a_complex_pivot_is_its_correctly_rounded_phase(self):
        # each round normalises its pivots u with one np.sign call, which numpy 2.0 and
        # later define for complex input as u / |u|, each part divided by hypot(Re u, Im u);
        # numpy 1.x gives the sign of Re u alone, and no pair would be rotated
        rng = np.random.default_rng(20261020)
        size = 20_000
        re = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-8, 8, size)
        im = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-8, 8, size)
        phase, modulus = np.sign(re + 1j * im), np.hypot(re, im)
        same = np.array_equal(phase.real, re / modulus) and np.array_equal(phase.imag, im / modulus)
        floor = "np.sign of a complex array is not u / hypot(Re u, Im u): the solver needs numpy>=2.0"
        assert same, f"{floor}, and this is numpy {np.__version__}"

    @staticmethod
    def _round_phases(app, apq, aqq, gap_floor):
        """Each pair's c + i s, built by the round's six pivot calls as _jacobi makes them."""
        pivot, norm = np.empty(len(app), np.complex128), np.empty(len(app))
        np.subtract(aqq, app, norm)
        np.hypot(norm, gap_floor, pivot.real)
        np.copysign(eigen._TWO, norm, norm)
        np.multiply(apq, norm, pivot.imag)
        np.sqrt(pivot, pivot)
        np.sign(pivot, pivot)
        return pivot

    def test_the_half_angle_pivot_is_a_unit_inner_rotation_no_longer_than_the_exact_one(self):
        # w = hypot(d, f) + 2i sign(d) a_pq; the root of w halves its angle, so s / c is
        # 2 sign(d) a_pq / (hypot(d, f) + |w|), the floored symSchur2 tangent
        rng = np.random.default_rng(20261021)
        size = 10_000
        magnitude = lambda: rng.choice([-1.0, 1.0], size) * 2.0 ** rng.uniform(-60, 1, size)  # noqa: E731
        app, apq, aqq, gap_floor = magnitude(), magnitude(), magnitude(), np.abs(magnitude())
        edges = [  # (a_pp, a_pq, a_qq, f)
            (0.0, 0.5, 0.0, 2.0**-52), (0.0, -0.5, -0.0, 2.0**-52), (1.0, 1e-9, 1.0, 2.0**-52),
            (0.0, -2.0**-60, -0.0, 2.0), (0.25, 0.0, -0.75, 2.0**-52), (-0.75, 0.0, 0.25, 2.0**-52),
            (0.0, 0.0, 0.0, 2.0**-52), (0.0, 0.0, -0.0, 1.0), (0.5, 2.0**-30, 0.5 + 2.0**-50, 1.0),
            (0.5, -2.0**-30, 0.5 - 2.0**-50, 1.0), (2.0, 2.0**-60, -2.0, 2.0**-52),
            (-2.0, -2.0**-60, 2.0, 2.0**-52), (2.0**-60, 1.0, -2.0**-60, 2.0**-60),
        ]
        app, apq, aqq, gap_floor = (
            np.concatenate([drawn, edge]) for drawn, edge in zip((app, apq, aqq, gap_floor), zip(*edges))
        )
        phase = self._round_phases(app, apq, aqq, gap_floor)
        c, s = phase.real, phase.imag
        assert np.all(np.abs(np.abs(phase) - 1.0) <= 4 * np.finfo(float).eps)
        assert np.all(c > 0.0)  # an inner rotation: |angle| < pi / 4
        d = aqq - app
        assert np.array_equal(np.signbit(s), np.signbit(apq * d))  # the sign of a_pq d, or of 0
        for ci, si, p, a, q, di in zip(*map(np.ndarray.tolist, (c, s, app, apq, aqq, d))):
            exact = 0.0 if a == 0.0 else 2.0 * a / (di + math.copysign(math.hypot(di, 2.0 * a), di))
            assert abs(si / ci) <= abs(exact) * (1.0 + 8.0 * np.finfo(float).eps)
            # J^T A J's a_pq for J = [[c, s], [-s, c]], exactly: a (c^2 - s^2) - c s (a_qq - a_pp),
            # against |a_pq| times c^2 + s^2, the factor by which J scales
            c_, s_, a_ = fractions.Fraction(ci), fractions.Fraction(si), fractions.Fraction(a)
            rotated = a_ * (c_ * c_ - s_ * s_) - c_ * s_ * (fractions.Fraction(q) - fractions.Fraction(p))
            assert abs(rotated) <= abs(a_) * (c_ * c_ + s_ * s_)


class TestOracleRegressionGuards:
    def test_the_verify_grid_takes_no_more_rounds(self, grid_sweep):
        # one run per solve, of the 484 matrices and their 484 quotients; 35,928
        # rounds, a round of the two halves of an nc matrix or nc quotient counted
        # once, plus 1%. Counted per member the halves run 53,003
        assert grid_sweep[1] == 968
        assert 0 < grid_sweep[2] <= 36_290

    def test_the_verify_grid_keeps_its_accuracy(self, grid_sweep):
        # 3.27e-13 at most with each phase the correctly rounded (np.sign) half angle
        # (np.sqrt) of w; 3.41e-13 from the full-angle pivot, and a complex divide by
        # hypot(Re u, Im u) + 0i gave 7.53e-13
        assert max(report.max_abs_deviation for report in grid_sweep[0]) <= 4e-13

    def test_the_grid_runs_stacks_with_a_member_frozen(self, grid_sweep):
        # 98 of the grid's 484 two-member runs stop one member sweeps before the other,
        # which then runs 1,387 of the 35,928 rounds beside a frozen member
        assert grid_sweep[4] > 0

    def test_the_grid_s_order_2_and_4_solves_take_no_extra_sweeps(self, grid_sweep):
        # 735 sweeps, counted per member: the order-2 halves of the nc quotients and
        # the order-4 halves of nc(2, 2) among them; a first-sweep floor of 1% of the
        # input's off-norm shortened even an isolated pair's exact rotation: 1,217
        assert grid_sweep[3] <= 800

    @pytest.mark.parametrize("blocks", [[0], [1], [0, 1, 2, 3, 4, 5]])
    def test_pairs_the_first_round_rotates_alone_take_one_sweep(self, monkeypatch, blocks):
        # a lone 2 x 2, or 2 x 2 blocks on the slots that the first round pairs: each
        # exact rotation zeroes its block, and every later pair has a_pq = 0 exactly.
        # Block 0 is the 2-vertex path's Laplacian, whose equal diagonal asks 45 degrees
        block_of = [laplacian_matrix(path_graph(2))]
        block_of += [random_symmetric(2, seed=k) for k in range(1, 6)]
        a = np.zeros((2 * len(blocks), 2 * len(blocks)))
        for slot, k in enumerate(blocks):
            a[2 * slot : 2 * slot + 2, 2 * slot : 2 * slot + 2] = block_of[k]
        values, [(_, _, [seen])] = solve_reading(monkeypatch, a)
        assert np.max(np.abs(values - np.linalg.eigvalsh(a))) <= 1e-14 * np.max(np.abs(a))
        assert len(seen) - 1 == 1

    def test_a_clustered_spectrum_converges_quadratically(self, monkeypatch):
        # nc(12, 3)'s L has n and n + 2 each m - 1 times: each member of its one run
        # of two order-15 halves takes 5 sweeps, and a whole solve without the floor took 12
        lap = laplacian_matrix(nc_graph(12, 3))
        values, [(members, order, reads)] = solve_reading(monkeypatch, lap)
        np.testing.assert_allclose(values, nc_laplacian_spectrum(12, 3).expanded(), atol=1e-12)
        assert (members, order) == (2, 15)
        assert all(len(seen) - 1 <= 6 for seen in reads)

    @pytest.mark.parametrize("kind", ["random", "equal-couplings", "signed-equal-couplings"])
    def test_a_large_odd_dense_matrix_does_not_stall(self, monkeypatch, kind):
        # the gap floor may shorten a rotation but must never switch a pair off.
        # Order 129 is odd and larger than any grid case. At order 257 every |a_pq|
        # starts at 1e-3, below 1% of the off-norm: the exact first sweep finishes
        # equal couplings, while with random signs it leaves over 96% of the pairs
        # below each later sweep's floor, for eight more sweeps
        if kind == "random":
            a = random_symmetric(129, seed=129)
        else:
            couplings = np.ones((257, 257))
            if kind == "signed-equal-couplings":
                signs = np.triu(np.random.default_rng(257).choice([-1.0, 1.0], (257, 257)), 1)
                couplings = signs + signs.T
            a = np.eye(257) + 1e-3 * (couplings - np.diag(np.diag(couplings)))
        values, [(_, _, [seen])] = solve_reading(monkeypatch, a)
        assert np.max(np.abs(values - np.linalg.eigvalsh(a))) <= 1e-12 * np.max(np.abs(a))
        assert len(seen) - 1 < eigen.SWEEP_CAP

    def test_every_grid_case_passes_far_inside_the_case_tolerance(self, grid_sweep):
        reports = grid_sweep[0]
        assert len(reports) == 484 and all(report.passed for report in reports)
        # 7.53e-13 with each nc matrix solved as its two halves
        assert max(report.max_abs_deviation for report in reports) <= 1e-12

    def test_every_grid_case_keeps_its_closed_form_multiplicities(self, grid_sweep):
        # the union of an nc matrix's halves groups exactly as the whole did
        for report in grid_sweep[0]:
            numeric = [k for _, k in report.numeric.pairs]
            assert numeric == [k for _, k in report.closed_form.pairs], (report.case_tag, report.m, report.n)

    @pytest.mark.parametrize("family", ["fan", "nc"])
    @pytest.mark.parametrize("kind", ["laplacian", "distance-laplacian"])
    def test_large_cases_keep_their_closed_form_multiplicities(self, kind, family):
        # up to order 256 (nc(64, 64)), each grouped at its own default width
        for m, n in itertools.product((16, 64), repeat=2):
            report = verify_case(family, m, n, kind)
            assert [k for _, k in report.numeric.pairs] == [k for _, k in report.closed_form.pairs], (m, n)

    @pytest.mark.parametrize("builder", [laplacian_matrix, distance_laplacian])
    def test_the_largest_grid_matrices_match_lapack(self, builder):
        # nc(12, 12), order 48, solved as two halves: 4.6e-14 for L and 6.4e-13 for
        # D^L (max |a| = 150)
        a = builder(nc_graph(12, 12))
        assert np.max(np.abs(symmetric_eigenvalues(a) - np.linalg.eigvalsh(a))) <= 2e-12

    @pytest.mark.parametrize("order", [5, 8, 16, 33])
    @pytest.mark.parametrize("kind", ADVERSARIAL_KINDS)
    def test_adversarial_matrices_match_lapack(self, kind, order):
        a = adversarial(kind, order)
        error = np.max(np.abs(symmetric_eigenvalues(a) - np.linalg.eigvalsh(a)))
        assert error <= 1e-12 * np.max(np.abs(a))


# equal to its reversal, with halves B + CJ = [[2, e], [e, 2]] and B - CJ = [[0, e], [e, 0]]
# far below the whole's off-norm, e = 1e-20
HALVES_AT_TARGET = np.array([[1, 1e-20, 0, 1], [1e-20, 1, 1, 0], [0, 1, 1, 1e-20], [1, 0, 1e-20, 1]])
# a dense half that takes several sweeps
DENSE_HALF = np.array([[4.0, 1, 2, 3], [1, -2, 1, 1], [2, 1, 5, 2], [3, 1, 2, 1]])


def reversal_symmetric(order, seed, scale=1.0):
    """A random symmetric matrix that equals its reversal a[::-1, ::-1] exactly."""
    a = random_symmetric(order, seed)
    return (a + a[::-1, ::-1]) * scale


def from_halves(plus, minus):
    """The order-2k matrix that equals its reversal and has the halves B + CJ = plus and
    B - CJ = minus, up to the rounding of (plus +- minus) / 2."""
    b, cj = (plus + minus) / 2, (plus - minus) / 2
    j = np.eye(len(plus))[::-1]
    a = np.block([[b, cj @ j], [j @ cj, j @ b @ j]])
    assert np.array_equal(a, a[::-1, ::-1])
    return a


class TestReversalSplit:
    @staticmethod
    def _runs(monkeypatch, matrix):
        """The matrix's eigenvalues, and each of its Jacobi runs' members and order."""
        values, runs = solve_reading(monkeypatch, matrix)
        return values, [(members, order) for members, order, _ in runs]

    @pytest.mark.parametrize("scale", [1.0, 1e200, 1e-200])
    @pytest.mark.parametrize("order", range(4, 51, 2))
    def test_a_matrix_equal_to_its_reversal_is_solved_as_two_halves(self, monkeypatch, order, scale):
        a = reversal_symmetric(order, seed=order, scale=scale)
        assert np.array_equal(a, a[::-1, ::-1])
        values, runs = self._runs(monkeypatch, a)
        assert runs == [(2, order // 2)]  # one run of two members
        assert np.max(np.abs(values - np.linalg.eigvalsh(a))) <= 1e-12 * np.max(np.abs(a))

    @pytest.mark.parametrize("case", ["odd", "order-2", "moved-inside", "moved-corner", "fan"])
    def test_a_matrix_that_is_not_its_reversal_or_small_or_odd_is_solved_whole(self, monkeypatch, case):
        if case == "odd":
            a = reversal_symmetric(7, seed=7)
        elif case == "order-2":
            a = laplacian_matrix(path_graph(2))  # one exact rotation: a split only costs a setup
        elif case == "fan":
            a = laplacian_matrix(generalized_fan(4, 4))
        else:
            a = reversal_symmetric(8, seed=8)
            p, q = (1, 3) if case == "moved-inside" else (0, 0)  # the corner is tested first
            a[p, q] += 2.0**-40
            a[q, p] = a[p, q]
        values, runs = self._runs(monkeypatch, a)
        assert runs == [(1, a.shape[0])]
        assert np.max(np.abs(values - np.linalg.eigvalsh(a))) <= 1e-12 * np.max(np.abs(a))

    def test_a_reversal_equal_matrix_that_is_symmetric_up_to_roundoff(self, monkeypatch):
        # each half's symmetric part is a half of the symmetric part, which the solver reads
        a = reversal_symmetric(10, seed=10)
        a[1, 3] += 1e-11
        a[-2, -4] += 1e-11  # the reversal's image of (1, 3)
        assert np.array_equal(a, a[::-1, ::-1]) and not np.array_equal(a, a.T)
        values, runs = self._runs(monkeypatch, a)
        assert runs == [(2, 5)]
        expected = np.linalg.eigvalsh((a + a.T) / 2)
        assert np.max(np.abs(values - expected)) <= 1e-12 * np.max(np.abs(a))

    def test_a_half_far_below_the_whole_s_off_norm_stops_at_the_whole_s_target(self, monkeypatch):
        # B + CJ = [[2, e], [e, 2]]: held to its own off-norm it would have to reach
        # 1e-12 * e, and the gap floor cuts every rotation between its equal diagonal
        # entries short, so it ran out of sweeps
        values, [(members, order, reads)] = solve_reading(monkeypatch, HALVES_AT_TARGET)
        assert (members, order) == (2, 2)
        assert all(len(seen) - 1 <= 1 for seen in reads)
        assert np.max(np.abs(values - np.linalg.eigvalsh(HALVES_AT_TARGET))) <= 1e-15

    @pytest.mark.parametrize(
        "m, n, kind",
        [(31, 63, kind) for kind in MatrixKind] + [(64, 64, "laplacian"), (64, 64, "distance-laplacian")],
    )
    def test_large_nc_matrices_match_lapack(self, m, n, kind):
        # orders 188 and 256, solved as halves of 94 and 128: at most 3.3e-14 of max |λ|
        a = build_matrix(nc_graph(m, n), kind, t=0.5)
        expected = np.linalg.eigvalsh(a)
        assert np.max(np.abs(symmetric_eigenvalues(a) - expected)) <= 1e-13 * np.max(np.abs(expected))


class TestStackedRun:
    """The halves of a matrix that equals its reversal run as one padded stack of two."""

    @pytest.mark.parametrize("scale", [1.0, 1e200, 1e-200])
    @pytest.mark.parametrize("order", [8, 10, 14, 24])  # halves of order 4, 5, 7 and 12
    def test_each_member_ends_bit_for_bit_as_its_own_solve(self, monkeypatch, order, scale):
        runs, jacobi = [], eigen._jacobi

        def capturing(work, spare, m, *args):
            members = [work[i * m * (m + 1) :][: m * m].copy() for i in (0, 1)]  # before the run
            jacobi(work, spare, m, *args)
            runs.append((members, work.copy(), m, args))

        monkeypatch.setattr(eigen, "_jacobi", capturing)
        symmetric_eigenvalues(reversal_symmetric(order, seed=order, scale=scale))
        [(members, stack, m, (exponent, tol, halves, off_norm))] = runs
        for i, (alone, half) in enumerate(zip(members, halves)):
            jacobi(alone, np.empty_like(alone), m, exponent, tol, (half,), off_norm)
            stacked = stack[i * m * (m + 1) :][: m * m].reshape(m, m)
            alone = alone.reshape(m, m)
            assert np.diagonal(alone).tobytes() == np.diagonal(stacked).tobytes()
            # a round transposes a member it does not rotate (J^T A J with J = I writes
            # A^T), and a sweep is m - 1 rounds: one that stopped first may end transposed
            assert np.array_equal(stacked, alone) or np.array_equal(stacked, alone.T)

    def test_members_at_their_target_from_the_start_are_never_rotated(self, monkeypatch):
        values, [(members, order, reads)] = solve_reading(monkeypatch, HALVES_AT_TARGET)
        assert (members, order) == (2, 2) and [len(seen) - 1 for seen in reads] == [0, 0]
        assert values.tolist() == [0.0, 0.0, 2.0, 2.0]  # the halves' diagonals, exactly

    def test_a_member_at_its_target_stays_frozen_while_the_other_runs(self, monkeypatch):
        # B + CJ is diagonal; B - CJ takes the run through several sweeps
        a = from_halves(np.diag([1.0, 2.0, 3.0, 4.0]), DENSE_HALF)
        values, [(members, order, reads)] = solve_reading(monkeypatch, a)
        assert (members, order) == (2, 4) and len(reads[0]) == 1 and len(reads[1]) > 2
        assert {1.0, 2.0, 3.0, 4.0} <= set(values.tolist())  # permuted, never rotated
        assert np.max(np.abs(values - np.linalg.eigvalsh(a))) <= 1e-14 * np.max(np.abs(a))

    @pytest.mark.parametrize("stopped", [0, 1, 2])  # first, middle and last
    def test_a_member_at_its_target_anywhere_in_a_stack_is_frozen(self, stopped):
        # a stack of three laid out as _diagonal lays out two; the shared target is 1e-12,
        # and the near-diagonal member starts at 1e-13 sqrt 30 off its diagonal.  Rotated
        # between its equal diagonal entries, a stopped member in the middle of the stack
        # would end 5e-13 from the diagonal it reaches alone
        m = 6
        members = [random_symmetric(m, seed=seed) for seed in (1, 2, 3)]
        members = [a / (1.01 * np.max(np.abs(a))) for a in members]  # entries below 1
        members[stopped] = 0.5 * np.eye(m) + 1e-13 * (np.ones((m, m)) - np.eye(m))
        work = np.zeros(3 * m * (m + 1) - m)
        for i, a in enumerate(members):
            work[i * m * (m + 1) :][: m * m] = a.ravel()
        eigen._jacobi(work, np.zeros_like(work), m, 0, 1e-12, (0, 0, 0), 1.0)
        for i, a in enumerate(members):
            alone = a.flatten()
            eigen._jacobi(alone, np.empty_like(alone), m, 0, 1e-12, (0,), 1.0)
            stacked = work[i * m * (m + 1) :][: m * m]
            assert stacked[:: m + 1].tobytes() == alone[:: m + 1].tobytes()

    def test_a_stack_out_of_sweeps_reports_the_failing_member_in_input_units(self, monkeypatch):
        # B + CJ's one coupling sits on the first round's pair and is zeroed in one sweep,
        # so member 1, B - CJ, is the one still above the target
        monkeypatch.setattr(eigen, "SWEEP_CAP", 1)
        plus = np.diag([1.0, 2.0, 3.0, 4.0])
        plus[0, 1] = plus[1, 0] = 1.0
        with pytest.raises(JacobiConvergenceError) as caught:
            symmetric_eigenvalues(from_halves(plus, DENSE_HALF) * 1e100)
        initial = float(re.search(r"initial ([-+.e0-9]+)", str(caught.value)).group(1))
        off_diagonal = DENSE_HALF - np.diag(np.diag(DENSE_HALF))
        assert initial == pytest.approx(1e100 * np.sqrt(np.sum(off_diagonal**2)), rel=1e-3)


class TestGrouping:
    def test_merges_numerical_duplicates(self):
        spectrum = group_multiplicities([0.0, 1e-13, 2.0], grouping_tol=1e-9)
        assert spectrum.pairs == ((5e-14, 2), (2.0, 1))

    def test_empty_input(self):
        assert group_multiplicities([]).pairs == ()

    def test_representative_is_group_mean(self):
        spectrum = group_multiplicities([1.0, 1.0 + 4e-7, 1.0 + 8e-7], grouping_tol=1e-6)
        assert spectrum.pairs == ((1.0 + 4e-7, 3),)

    def test_a_group_mean_adds_left_to_right_on_every_python(self):
        # a group of the 2..6 sweep: CPython's sum through 3.11 adds left to right and gives
        # 13.0, 3.12's compensated sum gives 12.999999999999998
        group = [12.999999999999995, 12.999999999999996, 13.000000000000004]
        assert group_multiplicities(group).pairs == ((13.0, 3),)

    @pytest.mark.parametrize(
        "values, grouping_tol",
        [
            ([1.7e308, 1.7e308], None),
            ([-1.7e308] * 3, None),
            ([1e308, 1e308, 1.5e308], None),  # 1.5e308 is a group of its own
            ([1e308, 1.2e308, 1.7e308], 1e308),
            ([np.finfo(float).max] * 5, None),
            ([-np.finfo(float).max, -np.finfo(float).max, 1.0, np.finfo(float).max], 0.0),
        ],
    )
    def test_a_group_whose_sum_overflows_has_a_finite_mean_inside_it(self, values, grouping_tol):
        # adding the copies left to right overflows; the mean must not
        spectrum = group_multiplicities(values, grouping_tol)
        start = 0
        for mean, count in spectrum.pairs:
            group = values[start : start + count]
            assert math.isfinite(mean) and group[0] <= mean <= group[-1]
            start += count
        assert start == len(values)

    def test_an_overflowing_group_leaves_the_other_means_and_its_exact_ones_alone(self):
        assert group_multiplicities([1.7e308, 1.7e308]).pairs == ((1.7e308, 2),)
        # the 2..6 sweep's group still averages left to right, beside values near the top
        group = [12.999999999999995, 12.999999999999996, 13.000000000000004]
        assert group_multiplicities(group + [1.7e308, 1.7e308]).pairs == ((13.0, 3), (1.7e308, 2))

    @pytest.mark.parametrize(
        "values",
        [
            # adding v / count over the copies rounds to 1.4752323030512927e+308 here, one ulp low
            [1.1633321407921532e308, 1.4300846387713586e308, 1.5406375886550726e308, 1.7668748439865867e308],
            [1.0072409213272559e308, 1.0144106662179157e308, 1.292068737931468e308, 1.4614266180557632e308,
             1.6283000712547944e308],
            [-np.finfo(float).max, -np.finfo(float).max, -1.5e308],
            [1e308, 1e308 + 2**971, 1e308 + 2**972],
        ],
    )
    def test_an_overflowing_group_mean_is_exactly_rounded(self, values):
        exact = float(sum(map(fractions.Fraction, values)) / len(values))
        assert group_multiplicities(values, grouping_tol=1e308).pairs == ((exact, len(values)),)

    def test_an_overflowing_atom_group_mean_is_exactly_rounded(self):
        # adding v / count over the copies rounds to 1.5883827718576325e+308 here, one ulp low
        values, counts = [1.4570454899652414e308, 1.6098217228913398e308, 1.6982811027163166e308], [3, 3, 3]
        exact = float(sum(fractions.Fraction(v) * k for v, k in zip(values, counts)) / 9)
        assert exact == 1.5883827718576327e308
        assert eigen._group_atoms(values, counts, 1e308).pairs == ((exact, 9),)

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

    @pytest.mark.parametrize(
        "values", [[2.0, 1.0], [0.0, 1.0, 3.0, 2.0], [0.0, 0.0, -1e-300], np.array([1.0, 0.5])]
    )
    def test_requires_sorted_input(self, values):
        # the descending pair first, last or alone
        with pytest.raises(ValueError, match="^values must be sorted ascending$"):
            group_multiplicities(values)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", [0, 2, 4], ids=["first", "middle", "last"])
    def test_requires_finite_values(self, bad, where):
        values = [0.0, 1.0, 2.0, 3.0, 4.0]
        values[where] = bad
        # checked before the order, so a non-finite value that also breaks it is named as such
        with pytest.raises(ValueError, match="^values must be finite$"):
            group_multiplicities(values)

    @pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf, -math.inf, -5e-324])
    def test_grouping_tol_must_be_finite_and_non_negative(self, tol):
        with pytest.raises(ValueError, match="^grouping_tol must be finite and non-negative$"):
            group_multiplicities([1.0, 2.0], grouping_tol=tol)

    @pytest.mark.parametrize("tol", [True, False, np.True_, np.False_])
    def test_a_bool_grouping_tol_is_rejected(self, tol):
        # True once merged 1.0, 1.5 and 1.9 into one value of multiplicity 3
        with pytest.raises(ValueError, match="^grouping_tol must be a number, got "):
            group_multiplicities([1.0, 1.5, 1.9], grouping_tol=tol)

    @pytest.mark.parametrize("tol", [np.array([1e-9]), "1e-9", 1e-9 + 0j, [1e-9]])
    def test_a_grouping_tol_that_is_not_a_number_is_rejected(self, tol):
        # once a TypeError from math.isfinite
        with pytest.raises(ValueError, match="^grouping_tol must be a number, got "):
            group_multiplicities([1.0, 2.0], grouping_tol=tol)

    @pytest.mark.parametrize("tol", [np.float64(0.6), np.float32(0.6), np.array(0.6), 1])
    def test_a_real_scalar_or_0_d_grouping_tol_is_accepted(self, tol):
        assert group_multiplicities([1.0, 1.5, 3.0], grouping_tol=tol).pairs == ((1.25, 2), (3.0, 1))

    def test_zero_grouping_tol_merges_exact_duplicates_only(self):
        spectrum = group_multiplicities([1.0, 1.0, 1.0 + 1e-15], grouping_tol=0.0)
        assert spectrum.pairs == ((1.0, 2), (1.0 + 1e-15, 1))

    @pytest.mark.parametrize(
        "values, width",
        [([], 1.0), ([0.5, 0.5], 1.0), ([-1.0, 0.0, 1.0], 1.0), ([0.0, 44.0], 44.0),
         ([-300.0, 2.0], 300.0), ([-3.0, -2.0], 3.0)],
    )
    def test_the_default_width_scales_with_the_largest_magnitude(self, values, width):
        # max(1, max|v|), read off whichever end of the sorted values is larger in magnitude
        assert group_multiplicities(values).grouping_tol == GROUPING_SCALE * width

    def test_an_explicit_width_is_absolute(self):
        # 5e-8 apart, beyond the default width at 1000, 1e-8, and within an explicit 1e-7
        values = [1000.0, 1000.0 + 5e-8]
        assert group_multiplicities(values).pairs == ((1000.0, 1), (1000.0 + 5e-8, 1))
        merged = group_multiplicities(values, grouping_tol=1e-7)
        assert (merged.order, len(merged.pairs), merged.grouping_tol) == (2, 1, 1e-7)

    def test_nc_31_63_adjacency_keeps_its_two_close_simple_eigenvalues(self):
        # -1.99758973330 and -1.99758972851 are 4.8e-9 apart, about ten times the
        # default width there (spectral radius about 44); a width of 1e-6 would merge them
        spectrum = group_multiplicities(symmetric_eigenvalues(build_matrix(nc_graph(31, 63), "adjacency")))
        close = [(v, k) for v, k in spectrum.pairs if abs(v + 1.99759) < 1e-5]
        assert [k for _, k in close] == [1, 1]
        assert 4e-9 < close[1][0] - close[0][0] < 6e-9
        assert 4e-10 < spectrum.grouping_tol < 5e-10

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
        assert s.pairs == ((0.0, 2), (1.5, 1))
        assert s.order == 3
        assert s.total() == 1.5

    def test_a_total_adds_left_to_right_on_every_python(self):
        # (0.1 + 0.2) + 0.3 rounds twice; a compensated sum (CPython 3.12's) gives 0.6
        assert Spectrum(((0.1, 1), (0.2, 1), (0.3, 1))).total() == 0.6000000000000001

    def test_a_total_of_finite_pairs_whose_products_overflow_is_their_sum(self):
        # -inf + inf was nan: each product leaves float64, their sum does not
        spectrum = group_multiplicities([-1.7e308, -1.7e308, 1.7e308, 1.7e308])
        assert spectrum.pairs == ((-1.7e308, 2), (1.7e308, 2))
        assert spectrum.total() == 0.0
        assert Spectrum(((-1.7e308, 2), (1e308, 1), (1.7e308, 1))).total() == 1e308 - 1.7e308
        big = float(np.finfo(float).max)
        assert Spectrum(((big, 1), (big, 1), (-big, 1))).total() == big  # a partial sum overflows

    @pytest.mark.parametrize(
        "pairs",
        [((1.7e308, 2),), ((-1.7e308, 2),), ((1e308, 1), (1.7e308, 1)), ((float(np.finfo(float).max), 3),)],
    )
    def test_a_total_that_leaves_float64_is_infinite(self, pairs):
        expected = math.copysign(math.inf, pairs[0][0])
        assert Spectrum(pairs).total() == expected
        assert group_multiplicities([v for v, k in pairs for _ in range(k)]).total() == expected

    def test_a_total_of_an_infinite_or_nan_value_is_not_redone(self):
        assert Spectrum(((-math.inf, 1), (1.0, 1))).total() == -math.inf
        assert math.isnan(Spectrum(((-math.inf, 1), (math.inf, 1))).total())
        assert math.isnan(Spectrum(((math.nan, 1),)).total())

    def test_closed_and_numeric_spectra_share_the_multiset_members(self):
        closed = Spectrum(((0.0, 1), (2.0, 2)), source="test", errata_notes=())
        numeric = Spectrum(((0.0, 1), (2.0, 2)), 1e-6)
        for s in (closed, numeric):
            assert (s.order, s.expanded(), s.total()) == (3, [0.0, 2.0, 2.0], 4.0)
            assert [v for v, _ in s.pairs] == [0.0, 2.0]

    def test_a_closed_and_a_numeric_spectrum_with_equal_pairs_differ(self):
        pairs = ((0.0, 1), (3.0, 1))
        closed = Spectrum(pairs, source="test", errata_notes=())
        numeric = group_multiplicities([0.0, 3.0])
        assert numeric.pairs == closed.pairs
        assert numeric != closed
        assert numeric == Spectrum(pairs, GROUPING_SCALE * 3.0)
        assert closed == Spectrum(pairs, source="test", errata_notes=())


class TestRecord:
    def test_a_closed_form_writes_pairs_source_and_errata_notes(self):
        fan = record(fan_laplacian_spectrum(2, 3))
        assert list(fan) == ["pairs", "source", "errata_notes"]
        assert fan["source"] == "fan-laplacian"
        assert json.loads(json.dumps(fan))["errata_notes"] == []  # () is not None
        noted = record(fan_distance_laplacian_spectrum(2, 3))
        assert list(noted) == ["pairs", "source", "errata_notes"] and len(noted["errata_notes"]) == 1

    def test_a_numeric_spectrum_writes_pairs_and_grouping_tol(self):
        numeric = record(group_multiplicities([0.0, 1.0, 1.0]))
        assert numeric == {"pairs": ((0.0, 1), (1.0, 2)), "grouping_tol": GROUPING_SCALE}
        assert list(numeric) == ["pairs", "grouping_tol"]

    def test_a_field_that_is_none_is_left_out(self):
        assert record(Spectrum(((1.0, 2),))) == {"pairs": ((1.0, 2),)}
        assert list(record(Spectrum((), source="s"))) == ["pairs", "source"]
        text = json.dumps(record(Spectrum((), errata_notes=(), grouping_tol=0.0)))
        assert text == '{"pairs": [], "grouping_tol": 0.0, "errata_notes": []}'

    def test_a_verification_report_writes_each_spectrum_by_the_rule(self):
        (report,) = sweep((2, 2), (3, 3), kinds=("nc-laplacian",))
        written = record(report)
        assert list(written["closed_form"]) == ["pairs", "source", "errata_notes"]
        assert list(written["numeric"]) == ["pairs", "grouping_tol"]
