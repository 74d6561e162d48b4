"""Graph families with frozen vertex orderings.

All graphs are simple, undirected, and labeled by 0-based indices.  The
orderings below are part of the public contract: the matrix builders and
the canonical equitable partitions depend on them.

* ``path_graph(n)``: vertices 0..n-1 in path order.
* ``generalized_fan(m, n)``: the n path vertices first (0..n-1), then the
  m hub vertices (n..n+m-1).  Every hub is adjacent to every path vertex;
  hubs are pairwise non-adjacent.  Equal, as a labeled graph, to
  ``join(path_graph(n), make_graph(m, []))``.
* ``nc_graph(m, n)``: two generalized fans glued hub-to-hub.  Index
  layout: [0, n) first path, [n, n+m) first hubs, [n+m, n+2m) second
  hubs, [n+2m, 2n+2m) second path.  Hub i of the first copy is joined to
  hub i of the second copy.  Any perfect matching between the hub sets
  yields an isomorphic graph, so the identity matching is fixed as the
  canonical one.
* ``make_graph(V, edges)``: a graph from outside edges, in either order.

A ``Graph`` is its read-only 0/1 int8 adjacency; the vertex count and the
edges are read from it.  Graphs are immutable and all operations are pure,
so values can be shared freely across threads.  A graph's one memo, its
all-pairs hop distances, is computed at most once: two threads that race
on first use each store an equal read-only value, so it needs no lock.
The hops come from one BFS from every source at once, one matrix product
per level, in which each distance is the count of levels it lies beyond
(``_hops``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .eigen import _check_sizes, _is_integer

UNREACHABLE = -1
_DOT_KEYWORDS = {"graph", "digraph", "subgraph", "node", "edge", "strict"}  # never a bare DOT ID


class DisconnectedGraphError(ValueError):
    """Raised when an operation that needs a connected graph gets one that is not."""


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected graph: a read-only, C-ordered int8 copy of its
    adjacency, which must be a square, symmetric 0/1 matrix with a zero
    diagonal."""

    adjacency: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.adjacency)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"adjacency must be a square matrix, got shape {a.shape}")
        stray = np.count_nonzero(a != a.T) + np.count_nonzero(a.diagonal())  # asymmetry, loops
        binary = np.count_nonzero(a == 0) + np.count_nonzero(a == 1) == a.size  # None is neither
        # a complex 1 would pass as 1, in a complex array or as an object array's entry
        not_real = np.iscomplexobj(a) or a.dtype == object and any(map(np.iscomplexobj, a.flat))
        if stray or not binary or not_real:
            raise ValueError("adjacency must be symmetric, with entries 0 or 1 and a zero diagonal")
        # C order even for a transposed or Fortran-ordered input: every array copied
        # from this one keeps it, and the diagonal writes on their flat views need it
        a = a.astype(np.int8, order="C")
        a.setflags(write=False)  # unlike a.flags.writeable = False, makes no flags object
        object.__setattr__(self, "adjacency", a)

    @property
    def vertex_count(self) -> int:
        return self.adjacency.shape[0]

    @property
    def edge_count(self) -> int:
        return int(np.count_nonzero(self.adjacency)) // 2

    def sorted_edges(self) -> list[tuple[int, int]]:
        """Each edge as (u, v) with u < v, ascending: np.nonzero reads row by row."""
        u, v = np.nonzero(np.triu(self.adjacency, 1))
        return list(zip(u.tolist(), v.tolist()))

    def _key(self) -> tuple[int, bytes]:
        return self.vertex_count, self.adjacency.tobytes()

    def __eq__(self, other: object) -> bool:
        return self._key() == other._key() if isinstance(other, Graph) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __reduce__(self):
        # a copy is built anew: read-only (numpy restores arrays writeable), no hop memo
        return Graph, (self.adjacency,)

    @cached_property
    def _distances(self) -> np.ndarray:
        """All-pairs hop distances, built once per graph and read-only.  cached_property
        writes straight into the instance __dict__, so it works on the frozen dataclass."""
        hops = _hops(self)
        hops.setflags(write=False)
        return hops


def make_graph(vertex_count: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a Graph from outside edges: endpoint pairs in either order, repeats allowed.

    Of several bad edges the first in input order is named: a self-loop, an
    entry that is not a pair, or a pair that is not two integers in
    0..vertex_count-1.
    """
    if not _is_integer(vertex_count) or vertex_count < 0:
        raise ValueError("vertex_count must be a non-negative integer")
    if not isinstance(edges, Iterable):
        raise ValueError(f"edges must be an iterable of vertex pairs, got {edges!r}")
    ends = []
    for edge in edges:
        try:
            u, v = edge
        except (TypeError, ValueError):
            raise ValueError(f"edge {edge!r} is not a pair of vertices") from None
        integral = _is_integer(u) and _is_integer(v)  # a bool is named as given, not as 0 or 1
        if not integral and not _is_pair(edge):  # like (0, [1, 2]); asked only here: ~1 us
            raise ValueError(f"edge {edge!r} is not a pair of vertices")
        if integral and u == v:  # (True, 1) and (1.0, 1) compare equal but are no self-loop
            raise ValueError(f"self-loop at vertex {u}")
        if integral and u > v:
            u, v = v, u
        if not integral or u < 0 or v >= vertex_count:  # a non-integer pair is named as given
            raise ValueError(f"edge ({u}, {v}) is invalid for a graph on {vertex_count} vertices")
        ends.append((u, v))
    u, v = np.array(ends, np.intp).reshape(-1, 2).T
    a = np.zeros((vertex_count, vertex_count), np.int8)
    a[u, v] = a[v, u] = 1
    return Graph(a)


def _is_pair(entry) -> bool:
    """Whether entry reads as a length-2 sequence of scalars."""
    try:
        return np.shape(entry) == (2,)
    except ValueError:  # ragged, like (0, [1, 2])
        return False


def path_graph(n: int) -> Graph:
    """Path on n >= 1 vertices, edges {i, i+1}."""
    (n,) = _check_sizes("path_graph", 1, n=n)
    return Graph(np.eye(n, k=1, dtype=np.int8) + np.eye(n, k=-1, dtype=np.int8))


def join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union (g1's vertices first) plus every cross edge."""
    for name, g in (("g1", g1), ("g2", g2)):
        if not isinstance(g, Graph) or g.vertex_count == 0:
            raise ValueError(f"join requires two nonempty graphs, got {name} = {g!r}")
    shift, order = g1.vertex_count, g1.vertex_count + g2.vertex_count
    a = np.ones((order, order), np.int8)
    a[:shift, :shift], a[shift:, shift:] = g1.adjacency, g2.adjacency
    return Graph(a)


def generalized_fan(m: int, n: int) -> Graph:
    """Fan with m hubs over an n-vertex path: path vertices 0..n-1, hubs n..n+m-1."""
    m, n = _check_sizes("generalized_fan", 1, m=m, n=n)
    a = np.zeros((m + n, m + n), np.int8)  # the upper triangle, mirrored at the end
    a[:n, :n] = np.eye(n, k=1, dtype=np.int8)  # the path, i to i + 1
    a[:n, n:] = 1  # every path vertex to every hub
    return Graph(a | a.T)


def nc_graph(m: int, n: int) -> Graph:
    """Two generalized fans with hub i of each copy joined to hub i of the other.

    Defined for m >= 2 and n >= 2 only; has 2(m+n) vertices and
    2(n-1+mn) + m edges.
    """
    m, n = _check_sizes("nc_graph", 2, m=m, n=n)
    half = m + n
    a = np.zeros((2 * half, 2 * half), np.int8)  # the upper triangle, mirrored at the end
    a[:n, :n] = a[-n:, -n:] = np.eye(n, k=1, dtype=np.int8)  # each path, i to i + 1
    a[:n, n:half] = a[half:-n, -n:] = 1  # each copy's path to its hubs
    np.fill_diagonal(a[n:half, half:], 1)  # hub i of the first copy to hub i of the second
    return Graph(a | a.T)


def _hops(g: Graph) -> np.ndarray:
    """All-pairs hop distances, one row per source; UNREACHABLE marks pairs not reached.

    The rows hold the smallest signed integer type that holds -V (int8 up
    to V = 128, and for the empty graph), which holds every distance and
    UNREACHABLE.  BFS from every source at once (Kepner & Gilbert, *Graph
    Algorithms in the Language of Linear Algebra*, 2011): level 1 is read off
    the adjacency, which is also the first frontier, and each later level is
    one float32 product of the 0/1 frontier with the adjacency (BLAS sgemm),
    whose positive entries, among the pairs not yet reached, form the next
    frontier.  An entry counts frontier neighbours, at most V, so the product
    is exact.  So there is one product per level after the first, stopping
    once every pair is reached (a fan takes 1, an nc graph 2, a complete
    graph none) or at the first empty level, which a disconnected graph
    needs; at most V - 2 products.

    Each distance is a running count: hops(u, v) is the number of levels
    l >= 0 with d(u, v) > l.  Levels 0 and 1 are counted from the adjacency,
    and each later level adds the mask of the pairs still unreached after it,
    one pass.  A count never passes V - 1, which the dtype holds; the pairs
    never reached get UNREACHABLE once, at the end.  The two product buffers
    take turns, and each level's frontier is written over the product it came
    from.  All V sources cost O(diameter * V^3) flops.
    """
    unreached = g.adjacency == 0  # the pairs at distance above 1, once the diagonal is cleared
    unreached.reshape(-1)[:: g.vertex_count + 1] = False
    # levels 0 and 1 counted: 0 on the diagonal, 1 where adjacent, 2 elsewhere
    hops = np.add(unreached, 1, dtype=np.min_scalar_type(-max(g.vertex_count, 1)))
    hops.reshape(-1)[:: g.vertex_count + 1] = 0
    left = np.count_nonzero(unreached)
    adjacency = g.adjacency.astype(np.float32)
    frontier, reached = adjacency, np.empty_like(unreached)
    buffers = np.empty_like(adjacency), np.empty_like(adjacency)  # each level's product, in turn
    for level in range(2, g.vertex_count):
        if not left:
            break
        paths = buffers[level % 2]
        np.matmul(frontier, adjacency, out=paths)
        np.greater(paths, 0, out=reached)
        reached &= unreached
        found = np.count_nonzero(reached)
        if not found:
            break
        unreached ^= reached
        hops += unreached  # count this level for every pair beyond it
        left -= found
        np.copyto(paths, reached)  # the next frontier, over the product it came from
        frontier = paths
    if left:  # disconnected: the pairs never reached
        np.copyto(hops, UNREACHABLE, where=unreached)
    return hops


def to_edge_list(g: Graph) -> str:
    """One "u v" line per edge, ascending."""
    return "".join(f"{u} {v}\n" for u, v in g.sorted_edges())


def to_dot(g: Graph, name: str = "G") -> str:
    """g in DOT; ValueError unless name is a bare DOT ID: an ASCII identifier and no keyword."""
    if not (isinstance(name, str) and name.isascii() and name.isidentifier()) or name.lower() in _DOT_KEYWORDS:
        raise ValueError(f"name must be a DOT ID (a letter or _, then letters, digits or _; no keyword), got {name!r}")
    lines = [f"graph {name} {{"]
    lines += [f"  {v};" for v in range(g.vertex_count)]
    lines += [f"  {u} -- {v};" for u, v in g.sorted_edges()]
    lines.append("}")
    return "\n".join(lines) + "\n"
