"""Partition, quotient matrix, and equitable-spectrum tests."""

import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanspectra import quotient
from fanspectra.eigen import group_multiplicities, symmetric_eigenvalues
from fanspectra.graphs import generalized_fan, make_graph, nc_graph, path_graph
from fanspectra.matrices import (
    MatrixKind, adjacency_matrix, build_matrix, distance_laplacian, laplacian_matrix,
)
from fanspectra.quotient import (
    EQUITABLE_TOL,
    NotEquitableError,
    Partition,
    fan_partition,
    is_equitable,
    nc_partition,
    quotient_eigenvalues,
    quotient_matrix,
)


def singleton_partition(order):
    return Partition([[v] for v in range(order)])


CYCLE4 = make_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
ALTERNATE = Partition([[0, 2], [1, 3]])  # interleaved, not contiguous, blocks


class TestPartitionValidation:
    # a partition is checked when built; its order N is the number of vertices listed
    def test_blocks_must_cover(self):
        with pytest.raises(ValueError, match=r"^partition must cover vertices 0\.\.1 exactly once$"):
            Partition([[0], [2]])  # a gap

    def test_blocks_must_be_disjoint(self):
        # a vertex in two blocks, or twice in one
        for blocks, top in (([[0, 1], [1, 2]], 3), ([[0, 0], [1]], 2)):
            with pytest.raises(ValueError, match=rf"^partition must cover vertices 0\.\.{top} exactly"):
                Partition(blocks)

    def test_blocks_must_be_nonempty(self):
        with pytest.raises(ValueError, match="^partition blocks must be nonempty$"):
            Partition([[0, 1], []])

    def test_vertices_in_range(self):
        for blocks in ([[0, 7]], [[-1, 0]]):
            with pytest.raises(ValueError, match=r"^partition must cover vertices 0\.\.1 exactly once$"):
                Partition(blocks)

    @pytest.mark.parametrize(
        "blocks",
        [
            [[0, 2.9], [1]], [[0, 2.0], [1]], [["1"], [0]], [[np.float64(0)], [1]], [[0], 1],
            ((0,), (True,)), [[False], [1]], [[0], [np.True_]],
        ],
    )
    def test_vertices_must_be_integers(self, blocks):
        # truncation would silently make [[0, 2.9], [1]] the partition {0, 2}, {1},
        # and ((0,), (True,)) was accepted as the partition {0}, {1}
        with pytest.raises(ValueError, match="^partition blocks must hold integer vertices$"):
            Partition(blocks)

    def test_numpy_integer_vertices_are_accepted(self):
        partition = Partition([np.array([0, 2]), [np.int32(1)]])
        assert partition.blocks == ((0, 2), (1,))
        assert all(type(v) is int for block in partition.blocks for v in block)

    def test_a_partition_compares_and_pickles_by_its_blocks(self):
        partition = nc_partition(2, 3)
        assert partition == Partition([range(3), (3, 4), [5, 6], np.arange(7, 10)])
        assert pickle.loads(pickle.dumps(partition)) == partition
        assert vars(partition) == {"blocks": partition.blocks}

    def test_the_block_data_is_built_once_and_read_only(self, monkeypatch):
        partition = nc_partition(2, 3)
        lap = laplacian_matrix(nc_graph(2, 3))
        built, make = [], quotient._BlockData
        monkeypatch.setattr(quotient, "_BlockData", lambda *arrays: built.append(1) or make(*arrays))
        for call in (quotient_matrix, is_equitable, quotient_eigenvalues, quotient_matrix):
            call(lap, partition)
        assert built == [1]
        data = partition._block_data
        assert data.vertices.tolist() == list(range(10))
        assert data.starts.tolist() == [0, 3, 5, 7]
        assert data.sizes.tolist() == [3.0, 2.0, 2.0, 3.0]
        assert np.array_equal(data.indicator, np.repeat(np.eye(4), [3, 2, 2, 3], axis=0))
        for array in data:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0

    def test_the_block_data_leaves_equality_hash_repr_and_pickling_alone(self):
        partition, fresh = nc_partition(2, 3), nc_partition(2, 3)
        before = (hash(partition), repr(partition), pickle.dumps(partition))
        assert is_equitable(laplacian_matrix(nc_graph(2, 3)), partition)
        assert "_block_data" in vars(partition) and "_block_data" not in vars(fresh)
        assert partition == fresh and (hash(partition), repr(partition)) == before[:2]
        assert pickle.dumps(partition) == before[2]
        copy = pickle.loads(pickle.dumps(partition))
        assert copy == partition and vars(copy) == {"blocks": partition.blocks}
        assert not copy._block_data.indicator.flags.writeable
        # a matrix of the wrong order still gets the same error once the data exists
        with pytest.raises(ValueError, match="^partition of order 10 for a matrix of order 4$"):
            quotient_matrix(laplacian_matrix(path_graph(4)), partition)

    @pytest.mark.parametrize(
        "ranges, lists",
        [
            ([range(3), range(3, 5), range(5, 7), range(7, 10)], [[0, 1, 2], [3, 4], [5, 6], [7, 8, 9]]),
            ([range(0, 6, 2), range(1, 6, 2)], [[0, 2, 4], [1, 3, 5]]),  # stepped
            ([range(5, 1, -2), [0, 1, 2], range(4, 7, 2)], [[5, 3], [0, 1, 2], [4, 6]]),  # mixed
        ],
    )
    def test_range_blocks_make_the_same_partition_as_lists(self, ranges, lists):
        from_ranges, from_lists = Partition(ranges), Partition(lists)
        assert from_ranges == from_lists and hash(from_ranges) == hash(from_lists)
        assert repr(from_ranges) == repr(from_lists)
        assert all(type(v) is int for block in from_ranges.blocks for v in block)
        copy = pickle.loads(pickle.dumps(from_ranges))
        assert copy == from_lists and pickle.dumps(from_ranges) == pickle.dumps(from_lists)
        for got, want in zip(from_ranges._block_data, from_lists._block_data):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("bad", [True, np.True_, 2.5])
    def test_list_blocks_beside_ranges_are_still_checked_per_vertex(self, bad):
        with pytest.raises(ValueError, match="^partition blocks must hold integer vertices$"):
            Partition([range(2), [bad]])

    def test_an_empty_range_block_is_still_rejected(self):
        with pytest.raises(ValueError, match="^partition blocks must be nonempty$"):
            Partition([range(2), range(0)])
        with pytest.raises(ValueError, match=r"^partition must cover vertices 0\.\.2 exactly once$"):
            Partition([range(2), range(1, 2)])

    @pytest.mark.parametrize("call", [quotient_matrix, is_equitable, quotient_eigenvalues])
    def test_direct_construction_is_checked_before_any_quotient(self, call):
        # once an IndexError from inside numpy, which the CLI does not map to exit 3
        lap = laplacian_matrix(path_graph(3))
        with pytest.raises(ValueError, match="^partition blocks must hold integer vertices$"):
            call(lap, Partition(((0, 2.9), (1,))))

    @pytest.mark.parametrize("call", [quotient_matrix, is_equitable, quotient_eigenvalues])
    @pytest.mark.parametrize("order", [2, 4])
    def test_a_partition_of_another_order_is_rejected(self, call, order):
        lap = laplacian_matrix(path_graph(order))
        with pytest.raises(ValueError, match=f"^partition of order 3 for a matrix of order {order}$"):
            call(lap, Partition(((0, 2), (1,))))

    @pytest.mark.parametrize("call", [quotient_matrix, is_equitable, quotient_eigenvalues])
    @pytest.mark.parametrize("shape", [(3,), (3, 3, 3), (2, 3), (3, 2)])
    def test_a_matrix_that_is_not_square_is_rejected(self, call, shape):
        # a 1-D or 3-D matrix once passed as equitable, and 2x3 failed inside numpy's matmul
        expected = rf"^expected a square matrix, got shape {re.escape(str(shape))}$"
        with pytest.raises(ValueError, match=expected):
            call(np.zeros(shape), Partition(((0, 1, 2),)))

    @pytest.mark.parametrize("size", [2.5, "3", True, np.True_])
    @pytest.mark.parametrize(
        "build", [fan_partition, nc_partition]
    )
    def test_canonical_partitions_reject_a_size_that_is_not_an_integer(self, build, size):
        with pytest.raises(ValueError, match="must be an integer, got"):
            build(size, 2)

    @pytest.mark.parametrize("integer", [np.uint8, np.int8])
    @pytest.mark.parametrize("build", [fan_partition, nc_partition])
    def test_narrow_numpy_sizes_give_the_python_int_partition(self, build, integer):
        # the block bounds are sums of the sizes: 70 + 70 + 70 once wrapped around in uint8
        assert build(integer(70), integer(70)) == build(70, 70)

    def test_canonical_partitions_reject_an_empty_block(self):
        # a zero size would leave a block empty: the size rule names it first
        for build, least in ((fan_partition, 1), (nc_partition, 2)):
            message = f"^{build.__name__} requires m >= {least} and n >= {least}$"
            with pytest.raises(ValueError, match=message):
                build(0, 2)

    @pytest.mark.parametrize("m, n", [(1, 3), (3, 1), (1, 1), (0, 3), (-1, 2)])
    def test_canonical_partitions_follow_their_graph_builders_size_rule(self, m, n):
        # nc(1, 3) has no graph, so it has no canonical partition either
        for build, graph in ((fan_partition, generalized_fan), (nc_partition, nc_graph)):
            try:
                graph(m, n)
            except ValueError:
                with pytest.raises(ValueError, match=f"^{build.__name__} requires m >= "):
                    build(m, n)
            else:
                assert build(m, n).block_sizes[:2] == (n, m)


class TestQuotientMatrix:
    def test_singleton_partition_reproduces_the_matrix(self):
        lap = laplacian_matrix(path_graph(4))
        q = quotient_matrix(lap, singleton_partition(4))
        assert np.array_equal(q, lap)

    def test_join_side_partition_on_distance_laplacian(self):
        # (path of 3) joined with (2 hubs): blocks of sizes 3 and 2
        g = generalized_fan(2, 3)
        q = quotient_matrix(distance_laplacian(g), fan_partition(2, 3))
        assert np.array_equal(q, [[2, -2], [-3, 3]])
        assert fan_partition(2, 3).block_sizes == (3, 2)

    def test_nc_laplacian_quotient_entries(self):
        m, n = 3, 4
        q = quotient_matrix(laplacian_matrix(nc_graph(m, n)), nc_partition(m, n))
        expected = [[3, -3, 0, 0], [-4, 5, -1, 0], [0, -1, 5, -4], [0, 0, -3, 3]]
        assert np.array_equal(q, expected)

    def test_interleaved_blocks_on_the_4_cycle(self):
        # every vertex has both neighbors in the other block and its antipode in its own
        q = quotient_matrix(laplacian_matrix(CYCLE4), ALTERNATE)
        assert np.array_equal(q, [[2, -2], [-2, 2]])
        assert ALTERNATE.block_sizes == (2, 2)
        q = quotient_matrix(distance_laplacian(CYCLE4), ALTERNATE)
        assert np.array_equal(q, [[2, -2], [-2, 2]])

    def test_nc_distance_laplacian_quotient_entries(self):
        q = quotient_matrix(distance_laplacian(nc_graph(2, 2)), nc_partition(2, 2))
        expected = [[12, -2, -4, -6], [-2, 10, -4, -4], [-4, -4, 10, -2], [-6, -4, -2, 12]]
        assert np.array_equal(q, expected)


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
        partition = Partition([np.flatnonzero(owner == j) for j in range(min(t, order))])
        sums = block_sums_by_loops(a, partition)
        sizes = np.array(partition.block_sizes, dtype=float)
        assert np.array_equal(quotient_matrix(a, partition), sums / sizes[:, None])
        spreads = [np.ptp(a[np.ix_(bi, bj)].sum(axis=1)) for bi in partition.blocks
                   for bj in partition.blocks]
        assert is_equitable(a, partition) == (max(spreads) == 0.0)  # integer spreads: 0 or >= 1


def symmetrised_quotient_pairs(matrix, partition):
    """Reference: c[i][j] = blocksum(i, j) / sqrt(|b_i| |b_j|) from the upper
    triangle, mirrored, then solved and grouped."""
    sizes = np.array(partition.block_sizes, dtype=float)
    upper = np.triu(block_sums_by_loops(matrix, partition) / np.sqrt(np.outer(sizes, sizes)))
    return group_multiplicities(symmetric_eigenvalues(upper + np.triu(upper, 1).T)).pairs


FAMILY_GRIDS = {
    "fan": (generalized_fan, fan_partition, range(1, 13)),
    "nc": (nc_graph, nc_partition, range(2, 13)),
}


class TestBitIdentityOnTheFamilies:
    # Laplacian and distance Laplacian entries are integers, so every block sum
    # is exact in any summation order and the references pin the outputs bit for bit
    @pytest.mark.parametrize("build", [laplacian_matrix, distance_laplacian])
    @pytest.mark.parametrize("family", sorted(FAMILY_GRIDS))
    def test_quotient_layer_matches_the_block_loops(self, family, build):
        graph, canonical, params = FAMILY_GRIDS[family]
        for m in params:
            for n in params:
                matrix, partition = build(graph(m, n)), canonical(m, n)
                sizes = np.array(partition.block_sizes, dtype=float)
                expected = block_sums_by_loops(matrix, partition) / sizes[:, None]
                assert np.array_equal(quotient_matrix(matrix, partition), expected), (m, n)
                assert is_equitable(matrix, partition) is True, (m, n)
                pairs = quotient_eigenvalues(matrix, partition).pairs
                assert pairs == symmetrised_quotient_pairs(matrix, partition), (m, n)


    @pytest.mark.parametrize("kind", list(MatrixKind), ids=[kind.value for kind in MatrixKind])
    @pytest.mark.parametrize("family", sorted(FAMILY_GRIDS))
    def test_c_is_the_scaled_block_sums_as_computed_bit_for_bit(self, monkeypatch, family, kind):
        # the solver takes C's exact symmetric part itself, so C is handed over unmirrored;
        # the integer kinds L and D^L give an exactly symmetric C
        solved = []
        monkeypatch.setattr(quotient, "symmetric_eigenvalues", lambda c: solved.append(c) or symmetric_eigenvalues(c))
        graph, canonical, params = FAMILY_GRIDS[family]
        checked = 0
        for m in params[:5]:
            for n in params[:5]:
                matrix, partition = build_matrix(graph(m, n), kind, t=0.3), canonical(m, n)
                if not is_equitable(matrix, partition):
                    continue
                quotient_eigenvalues(matrix, partition)
                data = partition._block_data
                expected = data.indicator.T @ (matrix @ data.indicator) / np.sqrt(np.outer(data.sizes, data.sizes))
                assert solved[-1].tobytes() == expected.tobytes(), (m, n)
                if kind in (MatrixKind.LAPLACIAN, MatrixKind.DISTANCE_LAPLACIAN):
                    assert np.array_equal(solved[-1], solved[-1].T), (m, n)
                checked += 1
        assert checked > 0


class TestEquitability:
    def test_singleton_is_always_equitable(self):
        lap = laplacian_matrix(path_graph(3))
        assert is_equitable(lap, singleton_partition(3))

    def test_unbalanced_path_split_is_not_equitable(self):
        lap = laplacian_matrix(path_graph(3))
        assert not is_equitable(lap, Partition([[0], [1, 2]]))

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
            quotient_eigenvalues(lap, Partition([[0], [1, 2]]))

    def test_interleaved_blocks(self):
        assert is_equitable(laplacian_matrix(CYCLE4), ALTERNATE)
        assert is_equitable(distance_laplacian(CYCLE4), ALTERNATE)
        # on the path 0-1-2-3 vertex 0 has one neighbor in {1, 3} and vertex 2 has two
        assert not is_equitable(laplacian_matrix(path_graph(4)), ALTERNATE)

    def test_a_spread_of_exactly_the_tolerance_is_equitable(self):
        # the tolerance is EQUITABLE_TOL times max|a_ij|, here the entry `scale` between
        # the singleton blocks {2} and {3}; vertices 0 and 1 share a block, and their row
        # sums toward block {2} are 0 and d, exactly, since scale is a power of two
        for scale in (2.0**-40, 1.0, 2.0**40):
            for d, equitable in ((EQUITABLE_TOL * scale, True), (2 * EQUITABLE_TOL * scale, False)):
                a = np.zeros((4, 4))
                a[1, 2] = a[2, 1] = d
                a[2, 3] = a[3, 2] = scale
                assert is_equitable(a, Partition([[0, 1], [2], [3]])) == equitable, (scale, d)

    def test_a_scaled_down_matrix_is_judged_as_the_unscaled_one(self):
        # at an absolute 1e-9 every spread of 1e-12 * A passed, and the quotient's
        # 6.67e-13 was returned, though no eigenvalue of the matrix is near it
        a = adjacency_matrix(generalized_fan(2, 3))
        assert not is_equitable(a, fan_partition(2, 3))
        with pytest.raises(NotEquitableError):
            quotient_eigenvalues(1e-12 * a, fan_partition(2, 3))


class TestNonFiniteInput:
    # the spread np.ptp of a NaN row sum is NaN, and NaN > tol is False: it would pass as equitable
    @pytest.mark.parametrize("first, second", [(np.nan, 0), (np.inf, 0), (-np.inf, 0), (1e308, 1e308)])
    def test_non_finite_row_sums_are_rejected(self, first, second):
        lap = laplacian_matrix(nc_graph(2, 3))
        lap[1, 5], lap[1, 6] = first, second  # path vertex 1 to the second hub block {5, 6}
        for partition in (nc_partition(2, 3), Partition([range(10)])):
            for call in (quotient_matrix, is_equitable, quotient_eigenvalues):
                with pytest.raises(ValueError, match="must be finite"):
                    call(lap, partition)


class TestComplexInput:
    def test_complex_matrices_are_rejected(self):
        lap = laplacian_matrix(nc_graph(2, 3)).astype(complex)
        lap[1, 5], lap[5, 1] = -1 + 1j, -1 - 1j  # Hermitian; a cast to float would drop the i
        for call in (quotient_matrix, is_equitable, quotient_eigenvalues):
            with pytest.raises(ValueError, match="^matrix entries must be real$"):
                call(lap, nc_partition(2, 3))


class TestQuotientEigenvalues:
    def test_join_quotient_spectrum(self):
        g = generalized_fan(2, 3)
        spectrum = quotient_eigenvalues(distance_laplacian(g), fan_partition(2, 3))
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

    @pytest.mark.parametrize(
        "matrix",
        [
            [[0.0, 1.0], [0.0, 0.0]],  # eigenvalues 0, 0; its upper triangle's are -1, 1
            [[2.0, 1.0, 0.0], [3.0, 0.0, 0.0], [0.0, 0.0, 1.0]],  # 3, -1, 1; its upper triangle's are 1 -+ sqrt 2, 1
            # a - a^T overflows: rejected all the same, with no overflow warning first
            [[0.0, 1e308], [-1e308, 0.0]],
            [[1.7e308, 1e308], [-1e308, 1.7e308]],
            [[0.0, -np.finfo(float).max], [np.finfo(float).max, 0.0]],
        ],
    )
    def test_a_non_symmetric_matrix_is_rejected(self, matrix):
        partition = singleton_partition(len(matrix))
        assert is_equitable(matrix, partition)  # singletons are equitable for any matrix
        for call in (symmetric_eigenvalues, lambda a: quotient_eigenvalues(a, partition)):
            with pytest.raises(ValueError, match="^matrix is not symmetric$"):
                call(matrix)

    @pytest.mark.parametrize(
        "matrix, blocks",
        [
            (np.roll(np.eye(3), 1, axis=1), [range(3)]),  # the 3-cycle permutation: C = [[1]]
            (np.kron(np.eye(2), np.roll(np.eye(3), 1, axis=1)), [range(3), range(3, 6)]),  # C = I
        ],
    )
    def test_a_non_symmetric_matrix_with_symmetric_block_sums_is_rejected(self, matrix, blocks):
        # every block row sums to 1, so the partition is equitable and C is symmetric:
        # the check on the matrix itself rejects it
        partition = Partition(blocks)
        assert is_equitable(matrix, partition)
        with pytest.raises(ValueError, match="^matrix is not symmetric$"):
            quotient_eigenvalues(matrix, partition)

    @pytest.mark.parametrize("grouping_tol", [True, False, np.True_])
    def test_a_bool_grouping_tol_is_rejected(self, grouping_tol):
        # True would pass as a width of 1.0
        matrix = laplacian_matrix(generalized_fan(2, 3))
        with pytest.raises(ValueError, match="^grouping_tol must be a number, got "):
            quotient_eigenvalues(matrix, fan_partition(2, 3), grouping_tol=grouping_tol)

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
