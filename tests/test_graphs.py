"""Graph construction, ordering, and traversal tests."""

import hashlib
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanspectra import graphs
from fanspectra.graphs import (
    DisconnectedGraphError,
    Graph,
    UNREACHABLE,
    generalized_fan,
    join,
    make_graph,
    nc_graph,
    path_graph,
    to_dot,
    to_edge_list,
)
from fanspectra.matrices import MatrixKind, adjacency_matrix, build_matrix, distance_matrix
from fanspectra.verify import random_graph


def reference_nc_edges(m, n):
    """nc(m, n) edge by edge, from the index layout in the graphs module docstring."""
    hubs1, hubs2, path2 = n, n + m, n + 2 * m
    edges = set()
    for i in range(n - 1):
        edges.add((i, i + 1))
        edges.add((path2 + i, path2 + i + 1))
    for h in range(m):
        for p in range(n):
            edges.add((p, hubs1 + h))
            edges.add((hubs2 + h, path2 + p))
        edges.add((hubs1 + h, hubs2 + h))
    return edges


def reference_join_edges(g1, g2):
    """The join's edges one by one: g1's, g2's shifted past g1, and every cross pair."""
    shift = g1.vertex_count
    edges = set(g1.sorted_edges())
    for u, v in g2.sorted_edges():
        edges.add((u + shift, v + shift))
    for u in range(g1.vertex_count):
        for v in range(g2.vertex_count):
            edges.add((u, v + shift))
    return edges


def edge_set(graph):
    """The graph's edges as a set of (u, v) pairs with u < v."""
    return frozenset(graph.sorted_edges())


def reference_adjacency(order, edges):
    """The 0/1 adjacency of an edge set, entry by entry."""
    a = [[0] * order for _ in range(order)]
    for u, v in edges:
        a[u][v] = a[v][u] = 1
    return a


def row_sum_degrees(graph):
    """Vertex degrees as the adjacency's row sums."""
    return adjacency_matrix(graph).sum(axis=1).astype(int).tolist()


def sparse_random_graph(seed):
    """A seeded graph on 2..60 vertices with about 1.5 edges per vertex."""
    rng = np.random.default_rng(seed)
    order = int(rng.integers(2, 61))
    pairs = [(u, v) for u in range(order) for v in range(u + 1, order)]
    return make_graph(order, [pair for pair in pairs if rng.random() < 3.0 / order])


def reference_distances(graph, source):
    """Independent oracle: frontier-expansion shortest paths on a dict adjacency."""
    neighbors = {v: set() for v in range(graph.vertex_count)}
    for u, v in graph.sorted_edges():
        neighbors[u].add(v)
        neighbors[v].add(u)
    seen = {source: 0}
    frontier = {source}
    level = 0
    while frontier:
        level += 1
        frontier = {w for v in frontier for w in neighbors[v] if w not in seen}
        for w in frontier:
            seen[w] = level
    return [seen.get(v, UNREACHABLE) for v in range(graph.vertex_count)]


class TestBasicFamilies:
    def test_null_graph(self):
        # the graph on m vertices with no edges, built from an empty edge list
        g = make_graph(3, [])
        assert g.vertex_count == 3
        assert g.edge_count == 0 and g.sorted_edges() == []
        assert row_sum_degrees(make_graph(5, [])) == [0, 0, 0, 0, 0]

    def test_null_graph_single_vertex(self):
        assert make_graph(1, []).vertex_count == 1

    def test_path_graph(self):
        assert path_graph(4).sorted_edges() == [(0, 1), (1, 2), (2, 3)]
        assert path_graph(1).edge_count == 0
        assert path_graph(2).sorted_edges() == [(0, 1)]
        assert row_sum_degrees(path_graph(3)) == [1, 2, 1]

    @pytest.mark.parametrize("bad", [0, -1])
    def test_rejects_empty_parameters(self, bad):
        with pytest.raises(ValueError, match=r"^path_graph requires n >= 1$"):
            path_graph(bad)

    def test_join_counts(self):
        g = join(make_graph(3, []), path_graph(4))
        assert g.vertex_count == 7
        assert g.edge_count == 3 + 3 * 4

    def test_join_of_single_vertices_is_an_edge(self):
        g = join(make_graph(1, []), make_graph(1, []))
        assert g.sorted_edges() == [(0, 1)]

    def test_join_requires_nonempty(self):
        with pytest.raises(ValueError):
            join(make_graph(0, []), path_graph(2))

    @pytest.mark.parametrize("other", [None, 3, np.zeros((2, 2), np.int8)], ids=["None", "int", "ndarray"])
    def test_join_names_an_argument_that_is_not_a_graph(self, other):
        # once an AttributeError from other.vertex_count
        message = f"^join requires two nonempty graphs, got g{{}} = {re.escape(repr(other))}$"
        with pytest.raises(ValueError, match=message.format(2)):
            join(path_graph(2), other)
        with pytest.raises(ValueError, match=message.format(1)):
            join(other, path_graph(2))


class TestFan:
    def test_degrees_3_4(self):
        g = generalized_fan(3, 4)
        degrees = row_sum_degrees(g)
        # path vertices first: ends have 1+3 neighbors, middles 2+3, hubs 4
        assert degrees == [4, 5, 5, 4, 4, 4, 4]

    def test_single_hub_degree(self):
        for n in (1, 2, 5):
            g = generalized_fan(1, n)
            assert row_sum_degrees(g)[n] == n

    def test_2_2_is_complete_minus_hub_edge(self):
        # hand enumeration: path edge, plus both hubs joined to both path vertices
        expected = {(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)}
        assert edge_set(generalized_fan(2, 2)) == frozenset(expected)

    @given(m=st.integers(1, 8), n=st.integers(1, 8))
    def test_equals_join_of_path_and_null(self, m, n):
        assert generalized_fan(m, n) == join(path_graph(n), make_graph(m, []))

    @pytest.mark.parametrize("m,n", [(0, 3), (3, 0)])
    def test_parameter_validation(self, m, n):
        with pytest.raises(ValueError, match=r"^generalized_fan requires m >= 1 and n >= 1$"):
            generalized_fan(m, n)


class TestNcGraph:
    def test_counts_3_4(self):
        g = nc_graph(3, 4)
        assert g.vertex_count == 14
        assert g.edge_count == 2 * (3 + 12) + 3

    def test_counts_2_2(self):
        g = nc_graph(2, 2)
        assert g.vertex_count == 8
        assert g.edge_count == 12

    @given(m=st.integers(2, 8), n=st.integers(2, 8))
    def test_vertex_and_edge_counts(self, m, n):
        g = nc_graph(m, n)
        assert g.vertex_count == 2 * (m + n)
        assert g.edge_count == 2 * (n - 1 + m * n) + m

    @given(m=st.integers(2, 8), n=st.integers(2, 8))
    def test_hub_degrees(self, m, n):
        degrees = row_sum_degrees(nc_graph(m, n))
        for h in range(n, n + 2 * m):
            assert degrees[h] == n + 1

    @given(m=st.integers(2, 6), n=st.integers(2, 6))
    def test_first_copy_is_the_fan(self, m, n):
        g = nc_graph(m, n)
        first = frozenset(e for e in g.sorted_edges() if max(e) < n + m)
        assert first == edge_set(generalized_fan(m, n))

    @given(m=st.integers(2, 6), n=st.integers(2, 6))
    def test_mirrored_second_copy_is_the_fan(self, m, n):
        g = nc_graph(m, n)
        top = 2 * (m + n) - 1
        second = [e for e in g.sorted_edges() if min(e) >= n + m]
        relabeled = frozenset(
            (min(top - u, top - v), max(top - u, top - v)) for u, v in second
        )
        assert relabeled == edge_set(generalized_fan(m, n))

    def test_matching_edges(self):
        g = nc_graph(3, 4)
        for i in range(3):
            assert (4 + i, 7 + i) in g.sorted_edges()

    def test_construction_is_deterministic(self):
        assert nc_graph(4, 5) == nc_graph(4, 5)
        assert generalized_fan(4, 5) == generalized_fan(4, 5)

    @pytest.mark.parametrize("m,n", [(1, 4), (4, 1), (0, 2), (2, 0)])
    def test_domain_restriction(self, m, n):
        with pytest.raises(ValueError, match=r"^nc_graph requires m >= 2 and n >= 2$"):
            nc_graph(m, n)


class TestBuildersAgainstReferences:
    """The builders against edge-by-edge references, as edges and as adjacency."""

    @pytest.mark.parametrize("m", range(2, 13))
    def test_nc_graph(self, m):
        for n in range(2, 13):
            g = nc_graph(m, n)
            reference = frozenset(reference_nc_edges(m, n))
            assert g.vertex_count == 2 * (m + n) and edge_set(g) == reference
            assert np.array_equal(adjacency_matrix(g), reference_adjacency(g.vertex_count, reference))

    @pytest.mark.parametrize("m", range(2, 13))
    def test_fan_joins(self, m):
        for n in range(2, 13):
            path, hubs = path_graph(n), make_graph(m, [])
            builds = [
                (join(path, hubs), path, hubs),
                (join(hubs, path), hubs, path),
                (generalized_fan(m, n), path, hubs),
            ]
            for g, first, second in builds:
                reference = frozenset(reference_join_edges(first, second))
                assert g.vertex_count == m + n and edge_set(g) == reference
                assert np.array_equal(adjacency_matrix(g), reference_adjacency(m + n, reference))

    @pytest.mark.parametrize("seed", range(40))
    def test_joins_of_random_pairs(self, seed):
        rng = np.random.default_rng(seed)
        g1 = random_graph(int(rng.integers(1, 13)), rng)
        g2 = random_graph(int(rng.integers(1, 13)), rng)
        g = join(g1, g2)
        reference = frozenset(reference_join_edges(g1, g2))
        assert g.vertex_count == g1.vertex_count + g2.vertex_count and edge_set(g) == reference
        assert np.array_equal(adjacency_matrix(g), reference_adjacency(g.vertex_count, reference))


class TestTraversal:
    """The hop matrix, one row per source, and disconnection through the distance builder."""

    def test_path_distances(self):
        assert path_graph(3)._distances.tolist() == [[0, 1, 2], [1, 0, 1], [2, 1, 0]]

    def test_fan_path_ends_two_apart(self):
        g = generalized_fan(3, 4)
        assert g._distances[0, 3] == 2

    def test_nc_opposite_paths_three_apart(self):
        hops = nc_graph(3, 4)._distances
        assert (hops[:4, 10:14] == 3).all() and (hops[10:14, :4] == 3).all()

    def test_unreachable_marker(self):
        assert make_graph(2, [])._distances.tolist() == [[0, UNREACHABLE], [UNREACHABLE, 0]]

    @given(
        g=st.one_of(
            st.builds(nc_graph, st.integers(2, 6), st.integers(2, 6)),
            st.builds(path_graph, st.integers(1, 40)),
            # half of the pairs are edges, so small ones are often disconnected
            st.builds(
                lambda order, seed: random_graph(order, np.random.default_rng(seed)),
                st.integers(1, 12),
                st.integers(0, 10_000),
            ),
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_against_reference_oracle(self, g):
        expected = [reference_distances(g, source) for source in range(g.vertex_count)]
        assert g._distances.tolist() == expected
        # a graph is connected iff one source, any source, reaches every vertex
        if UNREACHABLE in expected[0]:
            with pytest.raises(DisconnectedGraphError):
                distance_matrix(g)
        else:
            assert distance_matrix(g).tolist() == expected

    @staticmethod
    def _products(monkeypatch, g):
        """How many matrix products the BFS makes for g."""
        calls, matmul = [], np.matmul
        monkeypatch.setattr(np, "matmul", lambda *args, **kwargs: calls.append(1) or matmul(*args, **kwargs))
        g._distances  # fills the hop memo: one BFS
        return len(calls)

    @pytest.mark.parametrize(
        "g, products",
        [
            *[(generalized_fan(m, n), 1) for m, n in [(1, 3), (2, 2), (3, 4), (56, 56)]],
            *[(nc_graph(m, n), 2) for m, n in [(2, 2), (3, 4), (34, 34)]],
            (Graph(1 - np.eye(6, dtype=np.int8)), 0),  # complete: level 1 reaches every pair
            (generalized_fan(1, 2), 0),  # the triangle
            *[(path_graph(n), max(n - 2, 0)) for n in [1, 2, 3, 10, 130]],
            # disconnected: every level up to the first empty one, which takes a product
            (make_graph(2, []), 0),  # no level 2 in a 2-vertex graph
            (make_graph(3, []), 1),
            (make_graph(5, [(0, 1), (1, 2), (3, 4)]), 2),
            (make_graph(5, [(0, 1), (1, 2), (2, 3)]), 3),
            (make_graph(4, [(0, 1), (1, 2), (2, 3)]), 2),  # connected again: no empty level
        ],
    )
    def test_one_product_per_level_after_the_first(self, monkeypatch, g, products):
        # level 1 is the adjacency; the loop stops once every pair is reached
        assert self._products(monkeypatch, g) == products

    @pytest.mark.parametrize("seed", range(40))
    def test_joins_and_random_graphs_take_a_product_per_level_after_the_first(self, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        g1, g2 = random_graph(int(rng.integers(1, 9)), rng), random_graph(int(rng.integers(1, 9)), rng)
        assert self._products(monkeypatch, join(g1, g2)) <= 1  # diameter at most 2
        g = random_graph(int(rng.integers(1, 13)), rng)
        hops = [reference_distances(g, source) for source in range(g.vertex_count)]
        eccentricity = max(max(row) for row in hops)
        if any(UNREACHABLE in row for row in hops):
            # levels 2..eccentricity find pairs, then one finds none, if V - 1 levels allow it
            expected = min(max(eccentricity, 1), g.vertex_count - 2)
        else:
            expected = max(eccentricity - 1, 0)
        assert self._products(monkeypatch, g) == expected

    @pytest.mark.parametrize("layout", [np.asfortranarray, np.transpose], ids=["fortran", "transposed"])
    @pytest.mark.parametrize(
        "g", [generalized_fan(3, 4), nc_graph(3, 4), path_graph(5), make_graph(3, [])], ids=["fan", "nc", "P5", "null"]
    )
    def test_the_input_layout_does_not_change_the_hops(self, g, layout):
        # the graph keeps its adjacency in C order, which the hop matrix's diagonal write needs
        other = Graph(layout(g.adjacency))
        assert other.adjacency.flags.c_contiguous and other == g
        assert other._distances.flags.c_contiguous
        assert np.array_equal(other._distances, g._distances)
        expected = [reference_distances(g, source) for source in range(g.vertex_count)]
        assert other._distances.tolist() == expected

    @pytest.mark.parametrize(
        "g, dtype",
        [
            # sparse, so most are disconnected and have long shortest paths
            *[(sparse_random_graph(seed), np.int8) for seed in range(24)],
            *[(random_graph(order, np.random.default_rng(order)), np.int8) for order in (2, 7, 40, 128)],
            (make_graph(0, []), np.int8),
            (make_graph(1, []), np.int8),
            (path_graph(128), np.int8),  # distance 127, the largest int8
            (path_graph(129), np.int16),
            (path_graph(256), np.int16),
            (make_graph(129, [(0, 1)]), np.int16),  # UNREACHABLE written over level counts
        ],
        ids=[*(f"sparse{seed}" for seed in range(24)), "G2", "G7", "G40", "G128", "V0", "V1", "P128", "P129",
             "P256", "V129-one-edge"],
    )
    def test_level_counts_match_an_independent_bfs(self, g, dtype):
        # each hop is the number of levels l >= 0 with d(u, v) > l, UNREACHABLE where no path is
        hops = graphs._hops(g)
        assert hops.dtype == dtype and hops.flags.c_contiguous
        assert hops.tolist() == [reference_distances(g, source) for source in range(g.vertex_count)]

    def test_large_order_rows_are_int16(self):
        # order 130 does not fit int8, so the hop rows are int16
        hops = path_graph(130)._distances
        assert hops.dtype == np.int16
        assert hops[0].tolist() == list(range(130))
        assert hops[129].tolist() == list(range(129, -1, -1))

    def test_distance_memo_leaves_equality_and_hash_alone(self):
        g = generalized_fan(2, 3)
        before = hash(g)
        assert g._distances.dtype == np.int8
        assert "_distances" in vars(g)
        assert hash(g) == before
        assert g == make_graph(5, g.sorted_edges()) and hash(g) == hash(make_graph(5, g.sorted_edges()))

    def test_connectivity(self):
        with pytest.raises(DisconnectedGraphError):
            distance_matrix(make_graph(2, []))
        for g in (make_graph(1, []), nc_graph(2, 2), generalized_fan(1, 1)):
            assert UNREACHABLE not in distance_matrix(g)


SIMPLE = r"^adjacency must be symmetric, with entries 0 or 1 and a zero diagonal$"


class TestValidationAndExport:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            make_graph(3, [(1, 1)])

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ValueError, match=r"^edge \(0, 5\) is invalid for a graph on 2 vertices$"):
            make_graph(2, [(0, 5)])

    @pytest.mark.parametrize("count", [2.5, 3.0, np.float64(3.0), "3", None, -1, True, False])
    def test_rejects_a_vertex_count_that_is_not_a_non_negative_integer(self, count):
        # rejected at construction, not later as a TypeError from the first matrix
        with pytest.raises(ValueError, match="^vertex_count must be a non-negative integer$"):
            make_graph(count, [(0, 1)])

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([(0, 1), (2, 2), (0, 5)], "self-loop at vertex 2"),
            ([(0, 1), (5, 0), (2, 2)], r"edge \(0, 5\) is invalid"),
            ([(2, 0), (1, 1.5), (1, 1)], r"edge \(1, 1.5\) is invalid"),
            ([(2, 0), (1, 1), (1, 1.5)], "self-loop at vertex 1"),
            ([(0, 1), (-1, 2), (0, 2**70)], r"edge \(-1, 2\) is invalid"),
            ([(0, 1), (0, 2**70)], rf"edge \(0, {2**70}\) is invalid"),
            # ends that compare equal but are not two integers: no self-loop
            ([(True, 1)], r"edge \(True, 1\) is invalid for a graph on 3 vertices$"),
            ([(1.0, 1)], r"edge \(1.0, 1\) is invalid for a graph on 3 vertices$"),
            ([(1, 1.0)], r"edge \(1, 1.0\) is invalid for a graph on 3 vertices$"),
            ([(0, 1), (np.True_, 1), (2, 2)], r"edge \(True, 1\) is invalid"),
            ([(0, 1), (2, 2), (1.0, 1)], "self-loop at vertex 2$"),
        ],
    )
    def test_names_the_first_bad_edge_in_input_order(self, edges, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            make_graph(3, edges)

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([(0, 1, 2)], r"edge \(0, 1, 2\)"),
            ([0, 1], "edge 0"),
            ([(0, 1), (1,)], r"edge \(1,\)"),
            ([(0, 1), (0, [1, 2])], r"edge \(0, \[1, 2\]\)"),
        ],
    )
    def test_names_the_first_entry_that_is_not_a_pair(self, edges, message):
        # once numpy's reshape or "inhomogeneous shape" message, naming no edge
        with pytest.raises(ValueError, match=f"^{message} is not a pair of vertices$"):
            make_graph(3, edges)

    @pytest.mark.parametrize("edges", [None, 3, 2.5])
    def test_rejects_edges_that_cannot_be_iterated(self, edges):
        # once a TypeError from the loop over them
        with pytest.raises(ValueError, match=f"^edges must be an iterable of vertex pairs, got {edges!r}$"):
            make_graph(3, edges)

    def test_a_bad_edge_before_an_entry_that_is_not_a_pair_is_named_first(self):
        with pytest.raises(ValueError, match="^self-loop at vertex 1$"):
            make_graph(3, [(0, 1), (1, 1), (0, 1, 2)])
        with pytest.raises(ValueError, match=r"^edge \(0, 5\) is invalid"):
            make_graph(3, [(5, 0), (1,)])

    @pytest.mark.parametrize(
        "adjacency, message",
        [
            (np.zeros((2, 3)), r"^adjacency must be a square matrix, got shape \(2, 3\)$"),
            (np.zeros(4), r"^adjacency must be a square matrix, got shape \(4,\)$"),
            ([[0, 2], [2, 0]], SIMPLE),
            ([[0, 0.5], [0.5, 0]], SIMPLE),
            ([[0, 1], [0, 0]], SIMPLE),
            ([[1, 0], [0, 0]], SIMPLE),
            (np.array([[0, 1], [1, 0]], complex), SIMPLE),
            (np.array([[0, 1j], [1j, 0]]), SIMPLE),
            (np.array([[0, None], [None, 0]], object), SIMPLE),
            (np.array([[0, 1], [1, None]], object), SIMPLE),
            (np.array([[0, 1 + 0j], [1 + 0j, 0]], object), SIMPLE),
            (np.array([[0, np.complex128(1)], [np.complex128(1), 0]], object), SIMPLE),
        ],
    )
    def test_graph_rejects_an_adjacency_that_is_not_simple(self, adjacency, message):
        # non-square, an entry 2 or 0.5, an asymmetric entry, a self-loop on the diagonal,
        # entries that are not real (a complex 0/1 array once passed with a ComplexWarning,
        # a None in an object array was a TypeError from the int8 cast, and so was an
        # object array's complex 1, while its numpy complex 1 passed with a ComplexWarning)
        with pytest.raises(ValueError, match=message):
            Graph(adjacency)

    @pytest.mark.parametrize("dtype", [int, float, bool, np.uint8, object])
    def test_graph_keeps_a_read_only_int8_copy_of_any_0_1_array(self, dtype):
        g = Graph(np.array([[0, 1], [1, 0]], dtype))
        assert g == path_graph(2) and hash(g) == hash(path_graph(2))
        assert g.adjacency.dtype == np.int8 and not g.adjacency.flags.writeable
        assert Graph(np.zeros((0, 0), dtype)).vertex_count == 0

    @pytest.mark.parametrize("size", [2.5, "3", 3.0, True, np.True_])
    @pytest.mark.parametrize(
        "build, name",
        [
            (lambda s: nc_graph(s, 3), "m"),
            (lambda s: nc_graph(3, s), "n"),
            (path_graph, "n"),
            (lambda s: generalized_fan(2, s), "n"),
            (lambda s: generalized_fan(s, 2), "m"),
        ],
    )
    def test_builders_reject_a_size_that_is_not_an_integer(self, build, name, size):
        # once a TypeError from range() or from comparing a string with 1
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {size!r}$"):
            build(size)

    @pytest.mark.parametrize("integer", [np.int64, np.int32, np.uint8])
    def test_builders_accept_numpy_integer_sizes(self, integer):
        assert nc_graph(integer(2), integer(3)) == nc_graph(2, 3)
        assert generalized_fan(integer(2), integer(3)) == generalized_fan(2, 3)
        assert path_graph(integer(3)) == path_graph(3)

    @pytest.mark.parametrize("integer", [np.uint8, np.int8])
    def test_narrow_numpy_sizes_give_the_python_int_graph(self, integer):
        # 2 * (m + n) once wrapped around in uint8: nc_graph(uint8 70, uint8 70) had 24 vertices
        assert nc_graph(integer(70), integer(70)) == nc_graph(70, 70)
        assert nc_graph(integer(70), integer(70)).vertex_count == 280
        assert generalized_fan(integer(100), integer(100)) == generalized_fan(100, 100)
        assert path_graph(integer(100)) == path_graph(100)

    @pytest.mark.parametrize("integer", [np.int64, np.int8, np.uint8])
    def test_accepts_a_numpy_integer_vertex_count(self, integer):
        # the count is read back from the array as an int: -max(count, 1) once overflowed a uint8
        g = make_graph(integer(3), [(0, 1), (1, 2)])
        assert g.vertex_count == 3 and type(g.vertex_count) is int and g == path_graph(3)
        for kind in MatrixKind:
            assert np.array_equal(build_matrix(g, kind, t=0.5), build_matrix(path_graph(3), kind, t=0.5))

    @pytest.mark.parametrize(
        "edge",
        [
            (0, 1.5), (0.0, 1.0), (0, np.float64(2.0)), (Fraction(1, 2), 2), ("0", "1"),
            (None, 1), ("0", 1), (1, "a"), (True, 2), (0, True),
        ],
    )
    def test_rejects_non_integer_endpoints(self, edge):
        # None, "0" and "a" once escaped as a TypeError from ordering the pair, and
        # (True, 2) and (0, True) were read as (1, 2) and (0, 1)
        message = rf"edge \({edge[0]}, {edge[1]}\) is invalid for a graph on 3 vertices"
        with pytest.raises(ValueError, match=message):
            make_graph(3, [edge])

    @pytest.mark.parametrize("integer", [np.int64, np.int32, np.uint8, np.intp])
    def test_accepts_numpy_integer_endpoints(self, integer):
        g = make_graph(3, [(integer(2), integer(0)), (integer(1), integer(2))])
        assert g == make_graph(3, [(0, 2), (1, 2)])
        expected = [[0, 0, 1], [0, 0, 1], [1, 1, 0]]
        assert np.array_equal(adjacency_matrix(g), expected)

    def test_normalizes_duplicate_and_reversed_edges(self):
        g = make_graph(3, [(2, 0), (0, 2), (1, 0)])
        assert g.sorted_edges() == [(0, 1), (0, 2)]

    def test_reads_edges_from_a_one_shot_iterator(self):
        edges = [(2, 0), (0, 2), (1, 0)]
        assert make_graph(3, (edge for edge in edges)) == make_graph(3, edges)
        with pytest.raises(ValueError, match="^self-loop at vertex 1$"):
            make_graph(3, (edge for edge in [(0, 1), (1, 1), (0, 1, 2)]))

    def test_export_of_the_paper_families_is_pinned(self):
        # fan 1..12 x 1..12, then nc 2..12 x 2..12: any change to the edges or their order shows
        graphs = [generalized_fan(m, n) for m in range(1, 13) for n in range(1, 13)]
        graphs += [nc_graph(m, n) for m in range(2, 13) for n in range(2, 13)]
        text = "".join(to_edge_list(g) + to_dot(g) for g in graphs).encode()
        assert len(text) == 374_322
        assert hashlib.sha256(text).hexdigest().startswith("83d30fc60690ed6c")

    def test_edge_list_is_ascending(self):
        text = to_edge_list(generalized_fan(1, 3))
        assert text == "0 1\n0 3\n1 2\n1 3\n2 3\n"

    def test_dot_lists_isolated_vertices(self):
        text = to_dot(make_graph(2, []), name="pair")
        assert "graph pair {" in text
        assert "  0;" in text and "  1;" in text
        assert "--" not in text

    @pytest.mark.parametrize("name", ['a"b', "", "2fan", "fan-2-3", "x y", "G\n", "é", "node", "Graph", None])
    def test_dot_rejects_a_name_that_is_not_a_dot_id(self, name):
        # once written as is: 'graph a"b {' is not valid DOT, nor is a keyword as a bare ID
        with pytest.raises(ValueError, match=r"^name must be a DOT ID \(a letter or _, "):
            to_dot(make_graph(2, []), name=name)

    @pytest.mark.parametrize("name", ["G", "_", "fan_2_3", "nc_64_64", "graph1"])
    def test_dot_takes_a_name_that_is_a_dot_id(self, name):
        assert to_dot(make_graph(2, []), name=name).startswith(f"graph {name} {{\n")
