"""The paper's stated 4x4 quotients and quartics of NC(F_{m,n}), typed as integer data.

Nothing in the package reads them: the tests compare them exactly with
``quotient_matrix`` under ``nc_partition(m, n)`` and its ``charpoly``.
Quartics are coefficient tuples, x^4 first.
"""

import numpy as np

from fanspectra.graphs import nc_graph
from fanspectra.matrices import distance_laplacian, laplacian_matrix
from fanspectra.quotient import nc_partition, quotient_matrix

GRID = [(m, n) for m in range(2, 13) for n in range(2, 13)]


def laplacian_quotient(m, n):
    return [[m, -m, 0, 0], [-n, n + 1, -1, 0], [0, -1, n + 1, -n], [0, 0, -m, m]]


def distance_laplacian_quotient(m, n):
    s = 3 * (n + m)
    return [[s, -m, -2 * m, -3 * n], [-n, s - 2, -(3 * m - 2), -2 * n],
            [-2 * n, -(3 * m - 2), s - 2, -n], [-3 * n, -2 * m, -m, s]]


def laplacian_quartic(m, n):
    return (1, -2 * m - 2 * n - 2, m * m + 2 * m * n + n * n + 4 * m + 2 * n, -2 * m * m - 2 * m * n, 0)


def distance_laplacian_quartic(m, n):
    cubic = (-54 * m**3 - 186 * m * m * n - 186 * m * n * n - 54 * n**3
             + 36 * m * m + 108 * m * n + 72 * n * n)
    return (1, -12 * m - 12 * n + 4, 45 * m * m + 98 * m * n + 45 * n * n - 24 * m - 36 * n, cubic, 0)


def computed_quotients(m, n):
    """The Laplacian and distance-Laplacian quotient matrices from quotient_matrix."""
    graph, partition = nc_graph(m, n), nc_partition(m, n)
    return [quotient_matrix(f(graph), partition).matrix for f in (laplacian_matrix, distance_laplacian)]


def charpoly(matrix):
    """det(x I - A), x^k first, over Python ints by Faddeev-LeVerrier: M_1 = I,
    c_{k-j} = -tr(A M_j) / j (exact for integer A), M_{j+1} = A M_j + c_{k-j} I."""
    a = [[int(v) for v in row] for row in matrix]
    assert np.array_equal(a, matrix), "charpoly needs integer entries"
    k = len(a)
    coefficients = [1]
    power = [[int(i == j) for j in range(k)] for i in range(k)]
    for j in range(1, k + 1):
        product = [[sum(a[r][t] * power[t][c] for t in range(k)) for c in range(k)] for r in range(k)]
        coefficient, remainder = divmod(-sum(product[r][r] for r in range(k)), j)
        assert remainder == 0
        coefficients.append(coefficient)
        power = [[product[r][c] + coefficient * (r == c) for c in range(k)] for r in range(k)]
    return tuple(coefficients)
