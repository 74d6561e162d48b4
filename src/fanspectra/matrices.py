"""Dense symmetric matrix builders for a graph.

Seven kinds are supported: adjacency A, Laplacian L = Deg - A, distance
D (all-pairs hop counts), transmission Tr (diagonal matrix of the row
sums of D), distance Laplacian Tr - D, distance signless Laplacian
Tr + D, and the blend t*Tr + (1-t)*D for 0 < t < 1.

Every builder returns a fresh float64 array that is symmetric by
construction.  The distance family is defined only for connected graphs
and raises DisconnectedGraphError otherwise.  Distances come from one
level-synchronous BFS from all sources at once: level 1 is the adjacency,
then one float32 V x V BLAS product per level after the first, stopping
once every pair is reached.  So building D costs O(diameter * V^3) flops:
about 0.14 ms for nc(34, 34) (2 products), 0.06 ms for fan(56, 56)
(1 product) and about 7 ms for path_graph(128), whose diameter is 127.
Every builder starts from one of the graph's two read-only arrays: A
and L from a fresh float64 copy of its 0/1 adjacency, which is the graph
itself, and the distance kinds from a fresh float64 copy of its hop
matrix, which that BFS fills once per graph.  Each builder then works in
place on its copy; L, Tr - D, Tr + D and the blend write their diagonal
as one strided assignment on the flat view, x.reshape(-1)[:: V + 1] =
values, which is what np.fill_diagonal does after its Python-level
checks.  That reshape is a view, not a lost copy, only because the copy
is C-ordered: Graph stores its adjacency in C order, and astype keeps
it.  Tr stays on np.diag, which a strided write speeds up by under 2 us.

``build_matrix`` dispatches through one table built at import.  Its
entries look the builder names up when they run, so a builder rebound on
this module (a test double, a tracer) is the one that gets called.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .graphs import DisconnectedGraphError, Graph, UNREACHABLE


class MatrixKind(str, Enum):
    ADJACENCY = "adjacency"
    LAPLACIAN = "laplacian"
    DISTANCE = "distance"
    TRANSMISSION = "transmission"
    DISTANCE_LAPLACIAN = "distance-laplacian"
    DISTANCE_SIGNLESS_LAPLACIAN = "distance-signless-laplacian"
    GENERALIZED_DISTANCE = "generalized-distance"


def adjacency_matrix(g: Graph) -> np.ndarray:
    return g.adjacency.astype(float)


def laplacian_matrix(g: Graph) -> np.ndarray:
    lap = adjacency_matrix(g)
    degrees = lap.sum(axis=1)
    np.negative(lap, out=lap)  # keeps the -0.0 off-diagonals that the matrix command prints
    lap.reshape(-1)[:: len(lap) + 1] = degrees
    return lap


def distance_matrix(g: Graph) -> np.ndarray:
    d = g._distances
    if len(d) and UNREACHABLE in d[0]:  # connected iff vertex 0 reaches every vertex
        raise DisconnectedGraphError("distance matrix is undefined for a disconnected graph")
    return d.astype(float)


def transmission_vector(g: Graph) -> np.ndarray:
    """Per-vertex sum of distances to every other vertex."""
    return distance_matrix(g).sum(axis=1)


def transmission_matrix(g: Graph) -> np.ndarray:
    return np.diag(transmission_vector(g))


# The builders below overwrite the fresh copy that distance_matrix returns.


def distance_laplacian(g: Graph) -> np.ndarray:
    d = distance_matrix(g)
    sums = d.sum(axis=1)
    np.negative(d, out=d)
    d.reshape(-1)[:: len(d) + 1] = sums
    return d


def distance_signless_laplacian(g: Graph) -> np.ndarray:
    d = distance_matrix(g)
    d.reshape(-1)[:: len(d) + 1] = d.sum(axis=1)
    return d


def _check_blend(t: float) -> None:
    if not 0.0 < t < 1.0:
        raise ValueError(f"blend parameter t={t} must satisfy 0 < t < 1")


def generalized_distance(g: Graph, t: float) -> np.ndarray:
    """t*Tr + (1-t)*D; t must lie strictly between 0 and 1."""
    _check_blend(t)
    d = distance_matrix(g)
    sums = d.sum(axis=1)
    np.multiply(d, 1.0 - t, out=d)
    d.reshape(-1)[:: len(d) + 1] = t * sums
    return d


_BUILDERS = {
    MatrixKind.ADJACENCY: lambda g: adjacency_matrix(g),
    MatrixKind.LAPLACIAN: lambda g: laplacian_matrix(g),
    MatrixKind.DISTANCE: lambda g: distance_matrix(g),
    MatrixKind.TRANSMISSION: lambda g: transmission_matrix(g),
    MatrixKind.DISTANCE_LAPLACIAN: lambda g: distance_laplacian(g),
    MatrixKind.DISTANCE_SIGNLESS_LAPLACIAN: lambda g: distance_signless_laplacian(g),
}


def build_matrix(g: Graph, kind: MatrixKind | str, t: float | None = None) -> np.ndarray:
    """Dispatch a builder by kind; t is consumed only by generalized-distance."""
    try:  # a str enum: "laplacian" hashes and compares equal to MatrixKind.LAPLACIAN
        builder = _BUILDERS.get(kind)
    except TypeError:  # unhashable: MatrixKind(kind) names it
        builder = None
    if builder is None:  # only a miss pays for the conversion and its ValueError
        kind = MatrixKind(kind)
        if kind is MatrixKind.GENERALIZED_DISTANCE:
            if t is None:
                raise ValueError("generalized-distance requires the blend parameter t")
            return generalized_distance(g, t)
        builder = _BUILDERS[kind]
    return builder(g)
