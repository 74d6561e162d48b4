"""Graph construction, ordering, and traversal tests."""

import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanspectra.graphs import (
    DisconnectedGraphError,
    Graph,
    UNREACHABLE,
    _hop_matrix,
    generalized_fan,
    join,
    make_graph,
    nc_graph,
    null_graph,
    path_graph,
    to_dot,
    to_edge_list,
)
from fanspectra.matrices import adjacency_matrix, distance_matrix
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
    edges = set(g1.edges)
    for u, v in g2.edges:
        edges.add((u + shift, v + shift))
    for u in range(g1.vertex_count):
        for v in range(g2.vertex_count):
            edges.add((u, v + shift))
    return edges


def row_sum_degrees(graph):
    """Vertex degrees as the adjacency's row sums."""
    return adjacency_matrix(graph).sum(axis=1).astype(int).tolist()


def reference_distances(graph, source):
    """Independent oracle: frontier-expansion shortest paths on a dict adjacency."""
    neighbors = {v: set() for v in range(graph.vertex_count)}
    for u, v in graph.edges:
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
        g = null_graph(3)
        assert g.vertex_count == 3
        assert g.edge_count == 0
        assert row_sum_degrees(null_graph(5)) == [0, 0, 0, 0, 0]

    def test_null_graph_single_vertex(self):
        assert null_graph(1).vertex_count == 1

    def test_path_graph(self):
        assert path_graph(4).edges == frozenset({(0, 1), (1, 2), (2, 3)})
        assert path_graph(1).edge_count == 0
        assert path_graph(2).edges == frozenset({(0, 1)})
        assert row_sum_degrees(path_graph(3)) == [1, 2, 1]

    @pytest.mark.parametrize("bad", [0, -1])
    def test_rejects_empty_parameters(self, bad):
        with pytest.raises(ValueError):
            null_graph(bad)
        with pytest.raises(ValueError):
            path_graph(bad)

    def test_join_counts(self):
        g = join(null_graph(3), path_graph(4))
        assert g.vertex_count == 7
        assert g.edge_count == 3 + 3 * 4

    def test_join_of_single_vertices_is_an_edge(self):
        g = join(null_graph(1), null_graph(1))
        assert g.edges == frozenset({(0, 1)})

    def test_join_requires_nonempty(self):
        with pytest.raises(ValueError):
            join(Graph(0, frozenset()), path_graph(2))


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
        assert generalized_fan(2, 2).edges == frozenset(expected)

    @given(m=st.integers(1, 8), n=st.integers(1, 8))
    def test_equals_join_of_path_and_null(self, m, n):
        assert generalized_fan(m, n) == join(path_graph(n), null_graph(m))

    @pytest.mark.parametrize("m,n", [(0, 3), (3, 0)])
    def test_parameter_validation(self, m, n):
        with pytest.raises(ValueError):
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
        first = frozenset(e for e in g.edges if max(e) < n + m)
        assert first == generalized_fan(m, n).edges

    @given(m=st.integers(2, 6), n=st.integers(2, 6))
    def test_mirrored_second_copy_is_the_fan(self, m, n):
        g = nc_graph(m, n)
        top = 2 * (m + n) - 1
        second = [e for e in g.edges if min(e) >= n + m]
        relabeled = frozenset(
            (min(top - u, top - v), max(top - u, top - v)) for u, v in second
        )
        assert relabeled == generalized_fan(m, n).edges

    def test_matching_edges(self):
        g = nc_graph(3, 4)
        for i in range(3):
            assert (4 + i, 7 + i) in g.edges

    def test_construction_is_deterministic(self):
        assert nc_graph(4, 5) == nc_graph(4, 5)
        assert generalized_fan(4, 5) == generalized_fan(4, 5)

    @pytest.mark.parametrize("m,n", [(1, 4), (4, 1), (0, 2), (2, 0)])
    def test_domain_restriction(self, m, n):
        with pytest.raises(ValueError):
            nc_graph(m, n)


class TestBuildersAgainstReferences:
    """The set-at-once builders against edge-by-edge references.

    Each edge set is frozen from a set, so its hash table is sized for its
    count, exactly as the reference's is.
    """

    @pytest.mark.parametrize("m", range(2, 13))
    def test_nc_graph(self, m):
        for n in range(2, 13):
            g = nc_graph(m, n)
            reference = frozenset(reference_nc_edges(m, n))
            assert g.vertex_count == 2 * (m + n) and g.edges == reference
            assert sys.getsizeof(g.edges) == sys.getsizeof(reference)

    @pytest.mark.parametrize("m", range(2, 13))
    def test_fan_joins(self, m):
        for n in range(2, 13):
            path, hubs = path_graph(n), null_graph(m)
            builds = [
                (join(path, hubs), path, hubs),
                (join(hubs, path), hubs, path),
                (generalized_fan(m, n), path, hubs),
            ]
            for g, first, second in builds:
                reference = frozenset(reference_join_edges(first, second))
                assert g.vertex_count == m + n and g.edges == reference
                assert sys.getsizeof(g.edges) == sys.getsizeof(reference)

    @pytest.mark.parametrize("seed", range(40))
    def test_joins_of_random_pairs(self, seed):
        rng = np.random.default_rng(seed)
        g1 = random_graph(int(rng.integers(1, 13)), rng)
        g2 = random_graph(int(rng.integers(1, 13)), rng)
        g = join(g1, g2)
        reference = frozenset(reference_join_edges(g1, g2))
        assert g.vertex_count == g1.vertex_count + g2.vertex_count and g.edges == reference
        assert sys.getsizeof(g.edges) == sys.getsizeof(reference)


class TestTraversal:
    """The hop matrix, one row per source, and disconnection through the distance builder."""

    def test_path_distances(self):
        assert _hop_matrix(path_graph(3)).tolist() == [[0, 1, 2], [1, 0, 1], [2, 1, 0]]

    def test_fan_path_ends_two_apart(self):
        g = generalized_fan(3, 4)
        assert _hop_matrix(g)[0, 3] == 2

    def test_nc_opposite_paths_three_apart(self):
        hops = _hop_matrix(nc_graph(3, 4))
        assert (hops[:4, 10:14] == 3).all() and (hops[10:14, :4] == 3).all()

    def test_unreachable_marker(self):
        assert _hop_matrix(null_graph(2)).tolist() == [[0, UNREACHABLE], [UNREACHABLE, 0]]

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
        assert _hop_matrix(g).tolist() == expected
        # a graph is connected iff one source, any source, reaches every vertex
        if UNREACHABLE in expected[0]:
            with pytest.raises(DisconnectedGraphError):
                distance_matrix(g)
        else:
            assert distance_matrix(g).tolist() == expected

    def test_large_order_rows_are_int16(self):
        # order 130 does not fit int8, so the hop rows are int16
        hops = _hop_matrix(path_graph(130))
        assert hops.dtype == np.int16
        assert hops[0].tolist() == list(range(130))
        assert hops[129].tolist() == list(range(129, -1, -1))

    def test_distance_memo_leaves_equality_and_hash_alone(self):
        g = generalized_fan(2, 3)
        before = hash(g)
        assert g._distances.dtype == np.int8
        assert "_distances" in vars(g)
        assert hash(g) == before
        assert g == make_graph(5, g.edges) and hash(g) == hash(make_graph(5, g.edges))

    def test_connectivity(self):
        with pytest.raises(DisconnectedGraphError):
            distance_matrix(null_graph(2))
        for g in (null_graph(1), nc_graph(2, 2), generalized_fan(1, 1)):
            assert UNREACHABLE not in distance_matrix(g)


class TestValidationAndExport:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            make_graph(3, [(1, 1)])

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ValueError):
            Graph(2, frozenset({(0, 5)}))

    @pytest.mark.parametrize("count", [2.5, 3.0, np.float64(3.0), "3", None, -1])
    def test_rejects_a_vertex_count_that_is_not_a_non_negative_integer(self, count):
        # rejected at construction, not later as a TypeError from the first matrix
        with pytest.raises(ValueError, match="^vertex_count must be a non-negative integer$"):
            Graph(count, frozenset({(0, 1)}))
        with pytest.raises(ValueError, match="non-negative"):
            make_graph(count, [(0, 1)])

    @pytest.mark.parametrize("size", [2.5, "3", 3.0])
    @pytest.mark.parametrize(
        "build, name",
        [
            (lambda s: nc_graph(s, 3), "m"),
            (lambda s: nc_graph(3, s), "n"),
            (path_graph, "n"),
            (null_graph, "m"),
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

    @pytest.mark.parametrize("integer", [np.int64, np.uint8])
    def test_accepts_a_numpy_integer_vertex_count(self, integer):
        assert np.array_equal(adjacency_matrix(Graph(integer(2), frozenset({(0, 1)}))), [[0, 1], [1, 0]])

    @pytest.mark.parametrize(
        "edge", [(0, 1.5), (0.0, 1.0), (0, np.float64(2.0)), (Fraction(1, 2), 2), ("0", "1")]
    )
    def test_rejects_non_integer_endpoints(self, edge):
        message = rf"edge \({edge[0]}, {edge[1]}\) is invalid for a graph on 3 vertices"
        with pytest.raises(ValueError, match=message):
            Graph(3, frozenset({edge}))
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
        assert g.edges == frozenset({(0, 2), (0, 1)})

    def test_edge_list_is_ascending(self):
        text = to_edge_list(generalized_fan(1, 3))
        assert text == "0 1\n0 3\n1 2\n1 3\n2 3\n"

    def test_dot_lists_isolated_vertices(self):
        text = to_dot(null_graph(2), name="pair")
        assert "graph pair {" in text
        assert "  0;" in text and "  1;" in text
        assert "--" not in text
