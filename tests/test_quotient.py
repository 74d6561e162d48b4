"""Partition, quotient matrix, and equitable-spectrum tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanspectra.eigen import symmetric_eigenvalues
from fanspectra.graphs import generalized_fan, make_graph, nc_graph, path_graph
from fanspectra.matrices import distance_laplacian, laplacian_matrix
from fanspectra.quotient import (
    NotEquitableError,
    fan_partition,
    is_equitable,
    make_partition,
    nc_partition,
    quotient_eigenvalues,
    quotient_matrix,
    side_partition,
)


def singleton_partition(order):
    return make_partition([[v] for v in range(order)])


CYCLE4 = make_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
ALTERNATE = make_partition([[0, 2], [1, 3]])  # interleaved, not contiguous, blocks


class TestPartitionValidation:
    def test_blocks_must_cover(self):
        with pytest.raises(ValueError):
            make_partition([[0], [1]]).validate_for(3)

    def test_blocks_must_be_disjoint(self):
        with pytest.raises(ValueError):
            make_partition([[0, 1], [1, 2]]).validate_for(3)

    def test_blocks_must_be_nonempty(self):
        with pytest.raises(ValueError):
            make_partition([[0, 1], []]).validate_for(2)

    def test_vertices_in_range(self):
        with pytest.raises(ValueError):
            make_partition([[0, 7]]).validate_for(2)


class TestQuotientMatrix:
    def test_singleton_partition_reproduces_the_matrix(self):
        lap = laplacian_matrix(path_graph(4))
        q = quotient_matrix(lap, singleton_partition(4))
        assert np.array_equal(q.matrix, lap)

    def test_join_side_partition_on_distance_laplacian(self):
        # (path of 3) joined with (2 hubs): blocks of sizes 3 and 2
        g = generalized_fan(2, 3)
        q = quotient_matrix(distance_laplacian(g), side_partition(3, 2))
        assert np.array_equal(q.matrix, [[2, -2], [-3, 3]])
        assert q.block_sizes == (3, 2)

    def test_nc_laplacian_quotient_entries(self):
        m, n = 3, 4
        q = quotient_matrix(laplacian_matrix(nc_graph(m, n)), nc_partition(m, n))
        expected = [[3, -3, 0, 0], [-4, 5, -1, 0], [0, -1, 5, -4], [0, 0, -3, 3]]
        assert np.array_equal(q.matrix, expected)

    def test_interleaved_blocks_on_the_4_cycle(self):
        # every vertex has both neighbors in the other block and its antipode in its own
        q = quotient_matrix(laplacian_matrix(CYCLE4), ALTERNATE)
        assert np.array_equal(q.matrix, [[2, -2], [-2, 2]])
        assert q.block_sizes == (2, 2)
        q = quotient_matrix(distance_laplacian(CYCLE4), ALTERNATE)
        assert np.array_equal(q.matrix, [[2, -2], [-2, 2]])

    def test_nc_distance_laplacian_quotient_entries(self):
        q = quotient_matrix(distance_laplacian(nc_graph(2, 2)), nc_partition(2, 2))
        expected = [[12, -2, -4, -6], [-2, 10, -4, -4], [-4, -4, 10, -2], [-6, -4, -2, 12]]
        assert np.array_equal(q.matrix, expected)


def block_sums_by_loops(matrix, partition):
    """Reference: the sum of every block M_ij, slicing one block pair at a time."""
    return np.array([[matrix[np.ix_(bi, bj)].sum() for bj in partition.blocks]
                     for bi in partition.blocks])


class TestAgainstBlockLoops:
    @given(seed=st.integers(0, 10_000), order=st.integers(1, 9), t=st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_products_match_the_block_loops(self, seed, order, t):
        # integer entries, so both summation orders are exact; blocks are scattered
        rng = np.random.default_rng(seed)
        a = rng.integers(-3, 4, size=(order, order)).astype(float)
        a = a + a.T
        owner = rng.permutation(np.arange(order) % min(t, order))
        partition = make_partition([np.flatnonzero(owner == j) for j in range(min(t, order))])
        sums = block_sums_by_loops(a, partition)
        sizes = np.array(partition.block_sizes, dtype=float)
        assert np.array_equal(quotient_matrix(a, partition).matrix, sums / sizes[:, None])
        spreads = [np.ptp(a[np.ix_(bi, bj)].sum(axis=1)) for bi in partition.blocks
                   for bj in partition.blocks]
        assert is_equitable(a, partition, tol=0.0) == (max(spreads) == 0.0)


class TestEquitability:
    def test_singleton_is_always_equitable(self):
        lap = laplacian_matrix(path_graph(3))
        assert is_equitable(lap, singleton_partition(3))

    def test_unbalanced_path_split_is_not_equitable(self):
        lap = laplacian_matrix(path_graph(3))
        assert not is_equitable(lap, make_partition([[0], [1, 2]]))

    def test_nc_four_block_partition_is_equitable(self):
        m, n = 3, 4
        assert is_equitable(laplacian_matrix(nc_graph(m, n)), nc_partition(m, n))
        assert is_equitable(distance_laplacian(nc_graph(m, n)), nc_partition(m, n))

    def test_fan_side_partition_is_equitable(self):
        m, n = 4, 5
        assert is_equitable(laplacian_matrix(generalized_fan(m, n)), fan_partition(m, n))

    def test_non_equitable_partition_is_rejected(self):
        lap = laplacian_matrix(path_graph(3))
        with pytest.raises(NotEquitableError):
            quotient_eigenvalues(lap, make_partition([[0], [1, 2]]))

    def test_interleaved_blocks(self):
        assert is_equitable(laplacian_matrix(CYCLE4), ALTERNATE)
        assert is_equitable(distance_laplacian(CYCLE4), ALTERNATE)
        # on the path 0-1-2-3 vertex 0 has one neighbor in {1, 3} and vertex 2 has two
        assert not is_equitable(laplacian_matrix(path_graph(4)), ALTERNATE)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-9])
    def test_tolerance_must_be_finite_and_non_negative(self, tol):
        # P3 with blocks {0}, {1, 2} is not equitable; a NaN tolerance used to pass it
        # and give the quotient spectrum {0, 1.5}, which is not in P3's {0, 1, 3}
        lap = laplacian_matrix(path_graph(3))
        partition = make_partition([[0], [1, 2]])
        with pytest.raises(ValueError, match="^equitable tolerance must be finite and non-negative$"):
            is_equitable(lap, partition, tol=tol)
        with pytest.raises(ValueError, match="finite and non-negative"):
            quotient_eigenvalues(lap, partition, equitable_tol=tol)

    def test_zero_tolerance_is_exact(self):
        assert is_equitable(laplacian_matrix(CYCLE4), ALTERNATE, tol=0.0)


class TestNonFiniteInput:
    # the spread np.ptp of a NaN row sum is NaN, and NaN > tol is False: it would pass as equitable
    @pytest.mark.parametrize("first, second", [(np.nan, 0), (np.inf, 0), (-np.inf, 0), (1e308, 1e308)])
    def test_non_finite_row_sums_are_rejected(self, first, second):
        lap = laplacian_matrix(nc_graph(2, 3))
        lap[1, 5], lap[1, 6] = first, second  # path vertex 1 to the second hub block {5, 6}
        for partition in (nc_partition(2, 3), make_partition([range(10)])):
            for call in (quotient_matrix, is_equitable, quotient_eigenvalues):
                with pytest.raises(ValueError, match="must be finite"):
                    call(lap, partition)


class TestQuotientEigenvalues:
    def test_join_quotient_spectrum(self):
        g = generalized_fan(2, 3)
        spectrum = quotient_eigenvalues(distance_laplacian(g), side_partition(3, 2))
        np.testing.assert_allclose(spectrum.expanded(), [0.0, 5.0], atol=1e-10)

    def test_nc_laplacian_quotient_at_2_2(self):
        # roots of x (x-4) (x^2 - 6x + 4)
        expected = sorted([0.0, 4.0, 3 - 5**0.5, 3 + 5**0.5])
        spectrum = quotient_eigenvalues(laplacian_matrix(nc_graph(2, 2)), nc_partition(2, 2))
        np.testing.assert_allclose(spectrum.expanded(), expected, atol=1e-10)

    def test_nc_distance_laplacian_quotient_at_2_2(self):
        expected = sorted([0.0, 12.0, 16 - 2 * 2**0.5, 16 + 2 * 2**0.5])
        spectrum = quotient_eigenvalues(distance_laplacian(nc_graph(2, 2)), nc_partition(2, 2))
        np.testing.assert_allclose(spectrum.expanded(), expected, atol=1e-10)

    def test_interleaved_quotient_of_the_4_cycle(self):
        # Laplacian spectrum of C4 is {0, 2, 2, 4}, distance Laplacian {0, 4, 6, 6}
        for matrix, full in ((laplacian_matrix(CYCLE4), [0, 2, 2, 4]),
                             (distance_laplacian(CYCLE4), [0, 4, 6, 6])):
            np.testing.assert_allclose(symmetric_eigenvalues(matrix), full, atol=1e-12)
            spectrum = quotient_eigenvalues(matrix, ALTERNATE)
            np.testing.assert_allclose(spectrum.expanded(), [0.0, 4.0], atol=1e-12)

    @given(seed=st.integers(0, 5_000))
    @settings(max_examples=20, deadline=None)
    def test_singleton_partition_gives_full_spectrum(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(-3, 4, size=(6, 6)).astype(float)
        a = (a + a.T) / 2.0
        full = symmetric_eigenvalues(a)
        quotient = quotient_eigenvalues(a, singleton_partition(6))
        np.testing.assert_allclose(quotient.expanded(), full, atol=1e-9)

    @given(m=st.integers(2, 6), n=st.integers(2, 6))
    @settings(max_examples=15, deadline=None)
    def test_containment_in_full_spectrum(self, m, n):
        mat = distance_laplacian(nc_graph(m, n))
        full = symmetric_eigenvalues(mat)
        for value in quotient_eigenvalues(mat, nc_partition(m, n)).expanded():
            assert np.min(np.abs(full - value)) <= 1e-8
