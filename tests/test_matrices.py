"""Matrix builder tests, including the distance-family structure checks."""

import copy
import pickle
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanspectra import graphs, matrices
from fanspectra.graphs import (
    DisconnectedGraphError,
    generalized_fan,
    join,
    make_graph,
    nc_graph,
    path_graph,
)
from fanspectra.matrices import (
    MatrixKind,
    adjacency_matrix,
    build_matrix,
    distance_laplacian,
    distance_matrix,
    distance_signless_laplacian,
    generalized_distance,
    laplacian_matrix,
    transmission_matrix,
)
from fanspectra.verify import random_graph

K2 = path_graph(2)


def floyd_warshall(graph):
    """Independent all-pairs oracle (different algorithm from the builder's BFS)."""
    n = graph.vertex_count
    big = float("inf")
    d = np.full((n, n), big)
    np.fill_diagonal(d, 0.0)
    for u, v in graph.sorted_edges():
        d[u, v] = d[v, u] = 1.0
    for k in range(n):
        d = np.minimum(d, d[:, [k]] + d[[k], :])
    return d


def memos(g):
    """The names of the memos a graph keeps beside its adjacency."""
    return [name for name in vars(g) if name != "adjacency"]


class TestAdjacencyAndLaplacian:
    def test_adjacency_of_an_edge(self):
        assert np.array_equal(adjacency_matrix(K2), [[0, 1], [1, 0]])

    def test_laplacian_of_an_edge(self):
        assert np.array_equal(laplacian_matrix(K2), [[1, -1], [-1, 1]])

    def test_fan_2_2_adjacency_is_complete_minus_one_edge(self):
        expected = np.ones((4, 4)) - np.eye(4)
        expected[2, 3] = expected[3, 2] = 0.0
        assert np.array_equal(adjacency_matrix(generalized_fan(2, 2)), expected)

    def test_adjacency_row_sums_are_degrees(self):
        m, n = 3, 4
        degrees = np.zeros(2 * (m + n))
        for u, v in nc_graph(m, n).sorted_edges():
            degrees[[u, v]] += 1
        assert np.array_equal(adjacency_matrix(nc_graph(m, n)).sum(axis=1), degrees)

    def test_laplacian_trace_is_degree_sum(self):
        g = generalized_fan(3, 4)
        assert np.trace(laplacian_matrix(g)) == 2 * g.edge_count == 30

    def test_null_graph_laplacian_is_zero(self):
        assert not laplacian_matrix(make_graph(4, [])).any()

    @given(m=st.integers(1, 6), n=st.integers(1, 6))
    def test_laplacian_rows_sum_to_zero(self, m, n):
        lap = laplacian_matrix(generalized_fan(m, n))
        assert np.array_equal(lap.sum(axis=1), np.zeros(m + n))


class TestDistanceFamily:
    def test_path_distance_matrix(self):
        assert np.array_equal(distance_matrix(path_graph(3)), [[0, 1, 2], [1, 0, 1], [2, 1, 0]])

    def test_disconnected_is_an_error(self):
        for op in (distance_matrix, transmission_matrix, distance_laplacian,
                   distance_signless_laplacian, lambda g: generalized_distance(g, 0.3)):
            with pytest.raises(DisconnectedGraphError):
                op(make_graph(2, []))

    def test_nc_block_pattern(self):
        m, n = 3, 4
        d = distance_matrix(nc_graph(m, n))
        hubs1 = slice(n, n + m)
        hubs2 = slice(n + m, n + 2 * m)
        path2 = slice(n + 2 * m, 2 * n + 2 * m)
        cross_hub = 3.0 * np.ones((m, m)) - 2.0 * np.eye(m)
        assert np.array_equal(d[hubs1, hubs2], cross_hub)
        assert np.array_equal(d[:n, path2], np.full((n, n), 3.0))
        assert np.array_equal(d[hubs1, path2], np.full((m, n), 2.0))

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_join_distances_are_at_most_two(self, seed):
        rng = np.random.default_rng(seed)
        g = join(random_graph(int(rng.integers(1, 7)), rng),
                 random_graph(int(rng.integers(1, 7)), rng))
        d = distance_matrix(g)
        assert set(np.unique(d)) <= {0.0, 1.0, 2.0}

    @given(m=st.integers(2, 5), n=st.integers(2, 5))
    @settings(max_examples=20, deadline=None)
    def test_distances_match_floyd_warshall(self, m, n):
        g = nc_graph(m, n)
        assert np.array_equal(distance_matrix(g), floyd_warshall(g))

    @pytest.mark.parametrize("k", [127, 128, 129, 130])
    def test_long_paths_around_the_int8_limit(self, k):
        # a path of order 128 has diameter 127, the largest int8 distance
        g = path_graph(k)
        index = np.arange(k)
        assert np.array_equal(distance_matrix(g), np.abs(index[:, None] - index))
        assert g._distances[k - 1].tolist() == list(range(k - 1, -1, -1))

    def test_triangle_inequality_and_zero_diagonal(self):
        d = distance_matrix(nc_graph(2, 3))
        n = d.shape[0]
        assert np.array_equal(np.diag(d), np.zeros(n))
        for k in range(n):
            assert np.all(d <= d[:, [k]] + d[[k], :] + 1e-12)


class TestTransmissionAndBlends:
    def test_path_transmissions(self):
        assert np.array_equal(np.diag(transmission_matrix(path_graph(3))), [3, 2, 3])

    def test_nc_2_2_transmissions(self):
        tr = np.diag(transmission_matrix(nc_graph(2, 2)))
        assert list(tr) == [13, 13, 12, 12, 12, 12, 13, 13]

    def test_transmission_matrix_is_diagonal(self):
        t = transmission_matrix(path_graph(4))
        assert np.array_equal(t, np.diag(np.diag(t)))

    def test_edge_graph_matrices(self):
        assert np.array_equal(distance_laplacian(K2), [[1, -1], [-1, 1]])
        assert np.array_equal(distance_signless_laplacian(K2), [[1, 1], [1, 1]])
        assert np.array_equal(generalized_distance(K2, 0.5), [[0.5, 0.5], [0.5, 0.5]])

    def test_distance_laplacian_trace_nc_2_2(self):
        assert np.trace(distance_laplacian(nc_graph(2, 2))) == 100

    def test_distance_laplacian_rows_sum_to_zero(self):
        dl = distance_laplacian(nc_graph(3, 4))
        assert np.array_equal(dl.sum(axis=1), np.zeros(dl.shape[0]))

    def test_signless_minus_laplacian_is_twice_distance(self):
        g = generalized_fan(2, 5)
        delta = distance_signless_laplacian(g) - distance_laplacian(g)
        assert np.array_equal(delta, 2.0 * distance_matrix(g))

    @pytest.mark.parametrize("t", [0.25, 0.5, 0.9])
    def test_blend_is_exact_combination(self, t):
        g = generalized_fan(3, 3)
        expected = t * transmission_matrix(g) + (1 - t) * distance_matrix(g)
        assert np.array_equal(generalized_distance(g, t), expected)

    @pytest.mark.parametrize("t", [0.0, 1.0, -0.3, 1.5])
    def test_blend_parameter_validation(self, t):
        with pytest.raises(ValueError):
            generalized_distance(K2, t)

    @pytest.mark.parametrize("t", ["0.5", 0.5 + 0j, [0.5], np.array([0.5, 0.7]), np.array([0.5]), True])
    def test_a_blend_parameter_that_is_not_a_number_is_rejected(self, t):
        # once a TypeError from comparing it with 0.0, or numpy's "truth value is ambiguous"
        with pytest.raises(ValueError, match="^blend parameter t must be a number, got "):
            generalized_distance(path_graph(3), t)

    @pytest.mark.parametrize(
        "t", [np.float64(0.5), np.float32(0.5), np.array(0.5), Fraction(1, 2), np.float32(0.3), np.array(0.25)]
    )
    def test_a_real_scalar_or_0_d_blend_parameter_is_accepted(self, t):
        # the builder uses t as its float, bit for bit: a Fraction once reached numpy as an
        # object and failed there
        g = generalized_fan(3, 4)
        assert generalized_distance(g, t).tobytes() == generalized_distance(g, float(t)).tobytes()


class TestDispatch:
    def test_build_matrix_covers_every_kind(self):
        g = generalized_fan(2, 3)
        for kind in MatrixKind:
            t = 0.5 if kind is MatrixKind.GENERALIZED_DISTANCE else None
            mat = build_matrix(g, kind, t=t)
            assert mat.shape == (5, 5)
            assert np.array_equal(mat, mat.T)

    def test_build_matrix_accepts_strings(self):
        g = path_graph(3)
        assert np.array_equal(build_matrix(g, "laplacian"), laplacian_matrix(g))

    def test_generalized_distance_requires_t(self):
        with pytest.raises(ValueError):
            build_matrix(path_graph(3), MatrixKind.GENERALIZED_DISTANCE)

    def test_the_builder_itself_names_a_missing_blend_parameter(self):
        # checked before the 0 < t < 1 comparison, which would raise a TypeError for None
        with pytest.raises(ValueError, match="^generalized-distance requires the blend parameter t$"):
            generalized_distance(path_graph(3), None)

    @pytest.mark.parametrize(
        "kind", [MatrixKind.GENERALIZED_DISTANCE, "generalized-distance"], ids=["member", "string"]
    )
    def test_generalized_distance_without_t_names_the_blend_parameter(self, kind):
        with pytest.raises(ValueError, match="^generalized-distance requires the blend parameter t$"):
            build_matrix(path_graph(3), kind)

    @pytest.mark.parametrize(
        "kind",
        ["", "Laplacian", "laplacian ", "generalized distance", 3, 2.5, None, b"laplacian",
         ["laplacian"], (["laplacian"],), {"laplacian": 1}],
        ids=["empty", "capitalized", "padded", "spaced", "int", "float", "none", "bytes",
             "list", "tuple-of-list", "dict"],
    )
    def test_a_bad_kind_raises_as_the_enum_does(self, kind):
        # the table is asked first, and only a miss converts: a bad kind, an unhashable one
        # included, gets MatrixKind's own error, whatever t is
        with pytest.raises(ValueError) as expected:
            MatrixKind(kind)
        for t in (None, 0.5):
            with pytest.raises(ValueError) as caught:
                build_matrix(path_graph(3), kind, t=t)
            assert type(caught.value) is type(expected.value) and str(caught.value) == str(expected.value)

    @pytest.mark.parametrize("graph", [generalized_fan(3, 4), nc_graph(2, 3)], ids=["fan", "nc"])
    @pytest.mark.parametrize("kind", list(MatrixKind), ids=[kind.value for kind in MatrixKind])
    @pytest.mark.parametrize("as_string", [False, True], ids=["member", "string"])
    def test_build_matrix_returns_the_builders_own_array(self, graph, kind, as_string):
        builders = {
            MatrixKind.ADJACENCY: adjacency_matrix,
            MatrixKind.LAPLACIAN: laplacian_matrix,
            MatrixKind.DISTANCE: distance_matrix,
            MatrixKind.TRANSMISSION: transmission_matrix,
            MatrixKind.DISTANCE_LAPLACIAN: distance_laplacian,
            MatrixKind.DISTANCE_SIGNLESS_LAPLACIAN: distance_signless_laplacian,
            MatrixKind.GENERALIZED_DISTANCE: lambda g: generalized_distance(g, 0.3),
        }
        built = build_matrix(graph, kind.value if as_string else kind, t=0.3)
        own = builders[kind](graph)
        assert built.dtype == own.dtype == np.float64
        assert np.array_equal(built, own)
        assert np.array_equal(np.signbit(built), np.signbit(own))

    def test_build_matrix_looks_the_builder_up_when_called(self, monkeypatch):
        # a builder rebound on the module, as a test double or a tracer does, is the one called
        calls = []
        monkeypatch.setattr(matrices, "distance_matrix", lambda g: calls.append(g) or "double")
        g = path_graph(3)
        assert build_matrix(g, "distance") == "double"
        assert calls == [g]


class TestDiagonalWrites:
    # each builder takes its row sums as one BLAS product with the ones vector and writes
    # w times them as one strided multiply on its flat view; these are the x.sum(axis=1)
    # and np.fill_diagonal forms it replaced, bit for bit, and Tr's np.diag.  nc(64, 64)
    # has V = 256, and path_graph(256) row sums up to 32,640
    @staticmethod
    def reference(g, kind):
        if kind == "laplacian":
            a = adjacency_matrix(g)
            x = np.negative(a)
            np.fill_diagonal(x, a.sum(axis=1))
            return x
        d = distance_matrix(g)
        sums = d.sum(axis=1)
        if kind == "transmission":
            return np.diag(sums)
        if kind == "distance-laplacian":
            x, diagonal = np.negative(d), sums
        elif kind == "distance-signless-laplacian":
            x, diagonal = d, sums
        else:  # generalized-distance at t = 0.3
            x, diagonal = d * (1.0 - 0.3), 0.3 * sums
        np.fill_diagonal(x, diagonal)
        return x

    @pytest.mark.parametrize(
        "graph",
        [
            generalized_fan(3, 4),
            nc_graph(2, 3),
            path_graph(1),
            path_graph(5),
            # a transposed or Fortran-ordered input is stored in C order, so the flat view is a view
            graphs.Graph(np.asfortranarray(nc_graph(2, 3).adjacency)),
            graphs.Graph(generalized_fan(3, 4).adjacency.T),
            nc_graph(64, 64),
            path_graph(256),
        ],
        ids=["fan", "nc", "K1", "P5", "nc-fortran", "fan-transposed", "nc64", "P256"],
    )
    @pytest.mark.parametrize(
        "kind",
        [
            "laplacian", "transmission", "distance-laplacian", "distance-signless-laplacian",
            "generalized-distance",
        ],
    )
    def test_each_diagonal_matches_fill_diagonal_bit_for_bit(self, graph, kind):
        built, want = build_matrix(graph, kind, t=0.3), self.reference(graph, kind)
        assert built.flags.c_contiguous and built.dtype == want.dtype
        assert np.array_equal(built, want)
        assert np.array_equal(np.signbit(built), np.signbit(want))  # the -0.0 off-diagonals

    def test_the_empty_graph_has_an_empty_laplacian(self):
        assert laplacian_matrix(graphs.make_graph(0, [])).shape == (0, 0)


class TestDistanceMemo:
    def test_one_bfs_serves_every_kind(self, monkeypatch):
        calls = []
        hops = graphs._hops

        def counted(g):
            calls.append(g)
            return hops(g)

        monkeypatch.setattr(graphs, "_hops", counted)
        g = nc_graph(3, 4)
        for kind in MatrixKind:
            build_matrix(g, kind, t=0.5)
        assert calls == [g]

    @pytest.mark.parametrize(
        "build", [distance_matrix, distance_laplacian, lambda g: generalized_distance(g, 0.3)]
    )
    def test_mutating_a_result_leaves_the_next_build_unchanged(self, build):
        g = generalized_fan(2, 4)
        first = build(g)
        expected = first.copy()
        first[...] = 7.0
        assert np.array_equal(build(g), expected)
        assert np.array_equal(distance_matrix(g), floyd_warshall(g))

    def test_memo_is_read_only(self):
        g = path_graph(4)
        distance_matrix(g)
        assert not g._distances.flags.writeable
        with pytest.raises(ValueError):
            g._distances[0, 1] = 5

    def test_disconnected_raises_on_every_call(self):
        g = make_graph(3, [])
        for _ in range(2):
            with pytest.raises(DisconnectedGraphError):
                distance_matrix(g)

    def test_threads_racing_on_first_use_agree(self):
        template = nc_graph(9, 9)
        builders = [adjacency_matrix, laplacian_matrix, distance_laplacian]
        expected = [build(template).tobytes() for build in builders]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                g = graphs.Graph(template.adjacency)  # fresh, no hop memo yet
                results = []

                def work(shift):
                    order = builders[shift:] + builders[:shift]
                    results.append({build: build(g).tobytes() for build in order})

                workers = [threading.Thread(target=work, args=(k % 3,)) for k in range(6)]
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(timeout=30)
                assert not any(worker.is_alive() for worker in workers)
                assert len(results) == len(workers)
                for result in results:
                    assert [result[build] for build in builders] == expected
                assert memos(g) == ["_distances"] and not g._distances.flags.writeable
                assert np.array_equal(g._distances, floyd_warshall(template))
        finally:
            sys.setswitchinterval(interval)


class TestAdjacency:
    """The graph's own read-only adjacency, which every build copies, and the one hop memo."""

    def test_every_kind_reads_the_one_adjacency(self):
        g = nc_graph(3, 4)
        adjacency = g.adjacency
        for kind in MatrixKind:
            build_matrix(g, kind, t=0.5)
        assert g.adjacency is adjacency and memos(g) == ["_distances"]
        assert np.array_equal(adjacency_matrix(g), g._distances == 1)

    def test_adjacency_is_read_only_and_builds_are_fresh(self):
        source = adjacency_matrix(nc_graph(3, 4))
        g = graphs.Graph(source)
        source[0, 1] = source[1, 0] = 0  # the graph holds its own copy
        first = adjacency_matrix(g)
        assert g.adjacency.dtype == np.int8 and not g.adjacency.flags.writeable
        with pytest.raises(ValueError):
            g.adjacency[0, 1] = 0
        first[...] = 7.0
        assert np.array_equal(adjacency_matrix(g), floyd_warshall(g) == 1)
        assert g == nc_graph(3, 4)

    @pytest.mark.parametrize("graph", [nc_graph(3, 4), generalized_fan(5, 2), path_graph(130)])
    def test_the_hop_matrix_is_the_only_memo(self, graph):
        g = graphs.Graph(graph.adjacency)  # fresh, no memos yet
        a, lap = adjacency_matrix(g), laplacian_matrix(g)
        assert memos(g) == []
        distance_matrix(g)
        assert memos(g) == ["_distances"]
        for before, after in ((a, adjacency_matrix(g)), (lap, laplacian_matrix(g))):
            assert after.dtype == before.dtype and after.tobytes() == before.tobytes()
        assert memos(g) == ["_distances"]

    @pytest.mark.parametrize("duplicate", [copy.deepcopy, lambda g: pickle.loads(pickle.dumps(g))])
    def test_a_copy_is_read_only_and_builds_its_own_memo(self, duplicate):
        g = nc_graph(3, 4)
        distance_matrix(g)
        h = duplicate(g)
        assert h == g and hash(h) == hash(g) and memos(h) == []
        assert not h.adjacency.flags.writeable
        with pytest.raises(ValueError):
            h.adjacency[0, 1] = 0
        assert np.array_equal(distance_matrix(h), floyd_warshall(g))
        assert not h._distances.flags.writeable

    def test_attributes_cannot_be_assigned(self):
        g = nc_graph(3, 4)
        with pytest.raises(AttributeError):
            g.adjacency = np.zeros((14, 14), np.int8)
        with pytest.raises(AttributeError):
            g.vertex_count = 3
        assert g == nc_graph(3, 4)
