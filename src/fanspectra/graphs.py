"""Graph families with frozen vertex orderings.

All graphs are simple, undirected, and labeled by 0-based indices.  The
orderings below are part of the public contract: the matrix builders and
the canonical equitable partitions depend on them.

* ``path_graph(n)``: vertices 0..n-1 in path order.
* ``generalized_fan(m, n)``: the n path vertices first (0..n-1), then the
  m hub vertices (n..n+m-1).  Every hub is adjacent to every path vertex;
  hubs are pairwise non-adjacent.  Equal, as a labeled graph, to
  ``join(path_graph(n), null_graph(m))``.
* ``nc_graph(m, n)``: two generalized fans glued hub-to-hub.  Index
  layout: [0, n) first path, [n, n+m) first hubs, [n+m, n+2m) second
  hubs, [n+2m, 2n+2m) second path.  Hub i of the first copy is joined to
  hub i of the second copy.  Any perfect matching between the hub sets
  yields an isomorphic graph, so the identity matching is fixed as the
  canonical one.
* ``make_graph(V, edges)``: a graph from outside edges, in either order;
  the builders above hand ``Graph`` a set of u < v pairs directly.

Graphs are immutable after construction and all operations are pure, so
values can be shared freely across threads.  Each graph walks its edges
once, on the first matrix request, into a read-only 0/1 int8
adjacency memo, and computes its all-pairs hop distances at most once,
into a read-only integer memo.  The hop matrix answers adjacency
requests from then on (``hops == 1``), so the edge memo is dropped and a
graph keeps at most one V x V memo.  Two threads that race on first use
each compute and store an equal value, so neither memo needs a lock.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, product
from typing import Iterable

import numpy as np

from .eigen import _check_integers

UNREACHABLE = -1


class DisconnectedGraphError(ValueError):
    """Raised when an operation that needs a connected graph gets one that is not."""


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph; every edge is a pair (u, v) with u < v."""

    vertex_count: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        vertex_count = self.vertex_count
        if not isinstance(vertex_count, (int, np.integer)) or vertex_count < 0:
            raise ValueError("vertex_count must be a non-negative integer")
        for u, v in self.edges:
            # u | v is a TypeError for a float or any other non-integer endpoint
            try:
                if 0 <= u | v and u < v < vertex_count:
                    continue
            except TypeError:
                pass
            raise ValueError(f"edge ({u}, {v}) is invalid for a graph on {vertex_count} vertices")

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def __getstate__(self) -> dict:
        # a pickled or deep-copied graph leaves its memos behind: numpy
        # would restore them writeable, and a write would alter every later matrix
        return {"vertex_count": self.vertex_count, "edges": self.edges}

    @cached_property
    def _edge_adjacency(self) -> np.ndarray:
        """The read-only 0/1 int8 adjacency from the one pass over the edges; read via _adjacency.

        cached_property writes straight into the instance __dict__, so it
        works on the frozen dataclass and leaves __eq__ and __hash__, which
        read only the fields, unchanged.
        """
        a = np.zeros((self.vertex_count, self.vertex_count), np.int8)
        ends = np.fromiter(chain.from_iterable(self.edges), np.intp, 2 * self.edge_count)
        u, v = ends.reshape(-1, 2).T
        a[u, v] = a[v, u] = 1
        a.setflags(write=False)  # unlike a.flags.writeable = False, makes no flags object
        return a

    @cached_property
    def _distances(self) -> np.ndarray:
        """All-pairs hop distances, built once per graph and read-only; read via _hop_matrix."""
        hops = _hops(self)
        hops.setflags(write=False)
        return hops


def make_graph(vertex_count: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a Graph from outside edges: endpoint pairs in either order."""
    normalized = set()
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        normalized.add((u, v) if u < v else (v, u))
    return Graph(vertex_count, frozenset(normalized))


def null_graph(m: int) -> Graph:
    """Graph on m >= 1 vertices with no edges."""
    _check_integers(m=m)
    if m < 1:
        raise ValueError("null_graph requires m >= 1")
    return Graph(m, frozenset())


def path_graph(n: int) -> Graph:
    """Path on n >= 1 vertices, edges {i, i+1}."""
    _check_integers(n=n)
    if n < 1:
        raise ValueError("path_graph requires n >= 1")
    return Graph(n, frozenset({(i, i + 1) for i in range(n - 1)}))


def join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union (g1's vertices first) plus every cross edge."""
    if g1.vertex_count == 0 or g2.vertex_count == 0:
        raise ValueError("join requires two nonempty graphs")
    shift = g1.vertex_count
    order = shift + g2.vertex_count
    edges = {(u + shift, v + shift) for u, v in g2.edges}
    edges.update(g1.edges, product(range(shift), range(shift, order)))
    return Graph(order, frozenset(edges))


def generalized_fan(m: int, n: int) -> Graph:
    """Fan with m hubs over an n-vertex path: path vertices 0..n-1, hubs n..n+m-1."""
    _check_integers(m=m, n=n)
    if m < 1 or n < 1:
        raise ValueError("generalized_fan requires m >= 1 and n >= 1")
    return join(path_graph(n), null_graph(m))


def nc_graph(m: int, n: int) -> Graph:
    """Two generalized fans with hub i of each copy joined to hub i of the other.

    Defined for m >= 2 and n >= 2 only; has 2(m+n) vertices and
    2(n-1+mn) + m edges.
    """
    _check_integers(m=m, n=n)
    if m < 2 or n < 2:
        raise ValueError("nc_graph requires m >= 2 and n >= 2")
    _, hubs1, hubs2, path2 = _consecutive(n, m, m, n)
    edges = {(i, i + 1) for i in range(n - 1)}
    edges.update(zip(path2, path2[1:]), zip(hubs1, hubs2))
    edges.update(product(range(n), hubs1), product(hubs2, path2))
    return Graph(2 * (m + n), frozenset(edges))


def _consecutive(*sizes: int) -> list[range]:
    """Runs of the given sizes over the vertices 0, 1, 2, ... in order."""
    ends = list(accumulate(sizes))
    return list(map(range, [0, *ends], ends))


def _adjacency(g: Graph) -> np.ndarray:
    """The read-only 0/1 adjacency of g: the edge memo, or hops == 1 once the hop matrix exists.

    The second look at ``_distances`` covers a thread that stored the hop
    matrix while this one stored the edge memo: ``_hop_matrix`` then drops
    the memo.
    """
    memo = vars(g)
    if "_distances" not in memo:
        adjacency = g._edge_adjacency
        if "_distances" not in memo:
            return adjacency
    return _hop_matrix(g) == 1


def _hop_matrix(g: Graph) -> np.ndarray:
    """The hop-distance memo of g; the edge memo, which it now answers for, is dropped."""
    hops = g._distances
    vars(g).pop("_edge_adjacency", None)
    return hops


def _hops(g: Graph) -> np.ndarray:
    """All-pairs hop distances, one row per source; UNREACHABLE marks pairs not reached.

    The rows hold the smallest signed integer type that holds -V (int8 up
    to V = 128, and for the empty graph), which holds every distance and
    UNREACHABLE.  BFS from every source at once (Kepner & Gilbert, *Graph
    Algorithms in the Language of Linear Algebra*, 2011): each level is
    one float32 product of the 0/1 frontier with the adjacency (BLAS
    sgemm), whose positive entries, among the vertices not yet reached,
    form the next frontier.  An entry counts frontier neighbours, at most
    V, so the product is exact.  The loop stops at the first empty level,
    and at most V - 1 levels exist.  All V sources cost O(diameter * V^3)
    flops: about 0.6 ms for the 136-vertex nc(34, 34) and 7 ms for
    path_graph(128) with one BLAS thread on a 2-vCPU x86-64 machine.
    """
    adjacency = _adjacency(g).astype(np.float32)
    frontier = np.eye(g.vertex_count, dtype=np.float32)
    hops = np.full(frontier.shape, UNREACHABLE, np.min_scalar_type(-max(g.vertex_count, 1)))
    np.fill_diagonal(hops, 0)
    paths, reached = np.empty_like(frontier), np.empty(frontier.shape, bool)
    for level in range(1, g.vertex_count):
        np.matmul(frontier, adjacency, out=paths)
        np.greater(paths, 0, out=reached)
        reached &= hops == UNREACHABLE
        if not reached.any():
            break
        hops[reached] = level
        np.copyto(frontier, reached)
    return hops


def to_edge_list(g: Graph) -> str:
    """One "u v" line per edge, ascending."""
    return "".join(f"{u} {v}\n" for u, v in g.sorted_edges())


def to_dot(g: Graph, name: str = "G") -> str:
    lines = [f"graph {name} {{"]
    lines += [f"  {v};" for v in range(g.vertex_count)]
    lines += [f"  {u} -- {v};" for u, v in g.sorted_edges()]
    lines.append("}")
    return "\n".join(lines) + "\n"
