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
once every pair is reached, and each distance is the count of levels it
lies beyond, one mask added per level.  So building D takes diameter - 1
products, O(diameter * V^3) flops: 1 for a fan, 2 for an nc graph and 126
for path_graph(128).  The connectivity check is one min over row 0.

A and D are float64 copies of the graph's two read-only arrays: its 0/1
adjacency and the hop matrix that the BFS fills once per graph.  Every
other kind is one rule, ``_row_sum_rule(x, off, w)``, in place on a fresh
copy x: each off-diagonal entry becomes off * x_ij, and the diagonal holds
w times x's row sums.  L is (-1, 1) over A; Tr is (0, 1), Tr - D (-1, 1),
Tr + D (1, 1) and the blend (1 - t, t) over D.  So L keeps the -0.0
off-diagonals that the matrix command prints, and Tr's zeros are +0.0.
The row sums are one BLAS product, x @ ones: x holds non-negative integers,
so every partial sum is an integer far below 2**53 and exact, and any order
of addition, whatever the BLAS kernel, gives the doubles x.sum(axis=1) gives.
The diagonal is one strided multiply into the flat view, as np.fill_diagonal
writes after its checks; that is a view because Graph stores its adjacency
in C order, and astype keeps it.  So each of those kinds makes three
passes over V x V doubles, the copy, the product and the scaling.

``build_matrix`` dispatches all seven kinds through one table whose
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


def distance_matrix(g: Graph) -> np.ndarray:
    d = g._distances
    if len(d) and d[0].min() == UNREACHABLE:  # connected iff vertex 0 reaches every vertex
        raise DisconnectedGraphError("distance matrix is undefined for a disconnected graph")
    return d.astype(float)


def _row_sum_rule(x: np.ndarray, off: float, w: float) -> np.ndarray:
    """x, a fresh C-ordered base, with off * x_ij off the diagonal and w * its row sums on it.
    The sums are one BLAS product with the ones vector: x holds non-negative integers, so
    every partial sum is an integer far below 2**53, exact in any order of addition."""
    sums = x @ np.ones(len(x))
    np.multiply(x, off, out=x)
    np.multiply(sums, w, x.reshape(-1)[:: len(x) + 1])
    return x


def laplacian_matrix(g: Graph) -> np.ndarray:
    return _row_sum_rule(adjacency_matrix(g), -1.0, 1.0)


def transmission_matrix(g: Graph) -> np.ndarray:
    return _row_sum_rule(distance_matrix(g), 0.0, 1.0)


def distance_laplacian(g: Graph) -> np.ndarray:
    return _row_sum_rule(distance_matrix(g), -1.0, 1.0)


def distance_signless_laplacian(g: Graph) -> np.ndarray:
    return _row_sum_rule(distance_matrix(g), 1.0, 1.0)


def _check_blend(t: float | None) -> None:
    if t is None:
        raise ValueError("generalized-distance requires the blend parameter t")
    if not 0.0 < t < 1.0:
        raise ValueError(f"blend parameter t={t} must satisfy 0 < t < 1")


def generalized_distance(g: Graph, t: float) -> np.ndarray:
    """t*Tr + (1-t)*D; t must lie strictly between 0 and 1."""
    _check_blend(t)
    return _row_sum_rule(distance_matrix(g), 1.0 - t, t)


_BUILDERS = {
    MatrixKind.ADJACENCY: lambda g, t: adjacency_matrix(g),
    MatrixKind.LAPLACIAN: lambda g, t: laplacian_matrix(g),
    MatrixKind.DISTANCE: lambda g, t: distance_matrix(g),
    MatrixKind.TRANSMISSION: lambda g, t: transmission_matrix(g),
    MatrixKind.DISTANCE_LAPLACIAN: lambda g, t: distance_laplacian(g),
    MatrixKind.DISTANCE_SIGNLESS_LAPLACIAN: lambda g, t: distance_signless_laplacian(g),
    MatrixKind.GENERALIZED_DISTANCE: lambda g, t: generalized_distance(g, t),
}


def build_matrix(g: Graph, kind: MatrixKind | str, t: float | None = None) -> np.ndarray:
    """Dispatch a builder by kind; t is consumed only by generalized-distance."""
    try:  # a str enum: "laplacian" hashes and compares equal to MatrixKind.LAPLACIAN
        builder = _BUILDERS.get(kind)
    except TypeError:  # unhashable: MatrixKind(kind) names it
        builder = None
    if builder is None:  # only a miss pays for the conversion and its ValueError
        builder = _BUILDERS[MatrixKind(kind)]
    return builder(g, t)
