"""Vertex partitions, quotient matrices, and equitable-partition spectra.

A ``Partition`` is checked once, when it is built: its nonempty blocks
hold each of the vertices 0..N-1 exactly once.  The quotient of a real
square matrix M of order N averages each block row: b[i][j] = (sum of
the entries of block M_ij) / |block i|.  The partition is equitable when
every row inside a block has the same sum toward every other block, up to
EQUITABLE_TOL * max|m_ij|; then the quotient's eigenvalues are among M's.
``quotient_eigenvalues`` checks equitability once and then takes the row sums
without their checks.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .eigen import (
    Spectrum, _abs_max, _check_sizes, _check_symmetric, _real_square,
    group_multiplicities, symmetric_eigenvalues,
)

EQUITABLE_TOL = 1e-9


class NotEquitableError(ValueError):
    """Raised when a quotient-spectrum request gets a non-equitable partition."""


class _BlockData(NamedTuple):
    """A partition's arrays, read-only, that every quotient reads."""

    vertices: np.ndarray  # block 0's vertices in its order, then block 1's, and so on
    starts: np.ndarray  # where each block starts in vertices
    indicator: np.ndarray  # V x k, I[v, j] = 1 iff vertex v is in block j
    sizes: np.ndarray  # the block sizes, as floats


@dataclass(frozen=True)
class Partition:
    """Ordered nonempty blocks that hold each of the vertices 0..N-1 exactly once.

    Each block is any iterable of integer vertices, stored as a tuple of Python
    ints.  A ``range`` block is copied as it is, without a per-vertex check, since
    its elements are Python ints already; the canonical partitions pass ranges.
    """

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        # integer vertices (numpy integers too), stored as Python ints: truncation
        # would silently make ((0, 2.9), (1,)) the partition {0, 2}, {1}, and a bool
        # would pass as 0 or 1
        try:
            blocks = tuple(
                tuple(block) if isinstance(block, range) else tuple(map(_vertex, block))
                for block in self.blocks
            )
        except TypeError:
            raise ValueError("partition blocks must hold integer vertices") from None
        if not all(blocks):
            raise ValueError("partition blocks must be nonempty")
        vertices = sorted(itertools.chain.from_iterable(blocks))
        if vertices != list(range(len(vertices))):
            raise ValueError(f"partition must cover vertices 0..{len(vertices) - 1} exactly once")
        object.__setattr__(self, "blocks", blocks)

    @property
    def block_sizes(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.blocks)

    def __reduce__(self):
        # a copy is built anew: no block data, which numpy would restore writeable
        return Partition, (self.blocks,)

    @cached_property
    def _block_data(self) -> _BlockData:
        """Built once per partition, like Graph._distances, and kept out of ==, hash and repr."""
        sizes = self.block_sizes
        starts = [0, *itertools.accumulate(sizes)]
        vertices = np.fromiter(itertools.chain.from_iterable(self.blocks), np.intp, starts[-1])
        indicator = np.zeros((len(vertices), len(sizes)))
        indicator[vertices, np.arange(len(sizes)).repeat(sizes)] = 1.0
        data = _BlockData(vertices, np.array(starts[:-1], np.intp), indicator, np.array(sizes, float))
        for array in data:
            array.setflags(write=False)
        return data


def _vertex(value) -> int:
    """value as a Python int; TypeError for a bool or anything that is not an integer."""
    if isinstance(value, (bool, np.bool_)):
        raise TypeError("a bool is not a vertex")
    return operator.index(value)


def _consecutive(*sizes: int) -> list[range]:
    """Runs of the given sizes over the vertices 0, 1, 2, ... in order."""
    return [range(*bounds) for bounds in itertools.pairwise((0, *itertools.accumulate(sizes)))]


def fan_partition(m: int, n: int) -> Partition:
    """Path block then hub block, matching the fan's vertex ordering."""
    m, n = _check_sizes("fan_partition", 1, m=m, n=n)
    return Partition(_consecutive(n, m))


def nc_partition(m: int, n: int) -> Partition:
    """Four blocks: first path, first hubs, second hubs, second path."""
    m, n = _check_sizes("nc_partition", 2, m=m, n=n)
    return Partition(_consecutive(n, m, m, n))


def _row_sums(matrix: np.ndarray, partition: Partition) -> np.ndarray:
    """matrix @ I for the partition's indicator I: entry (v, j) is row v's sum over block j.
    Each entry enters one sum with weight 1, so a NaN or inf entry (or an overflow) makes
    a non-finite sum: a ValueError, as is a complex, non-square or wrongly sized matrix,
    rather than numpy's inf * 0 warning."""
    matrix = _real_square(matrix)
    indicator = partition._block_data.indicator
    if len(indicator) != matrix.shape[0]:
        raise ValueError(f"partition of order {len(indicator)} for a matrix of order {len(matrix)}")
    with np.errstate(invalid="ignore", over="ignore"):
        rows = matrix @ indicator
    if not np.isfinite(rows).all():
        raise ValueError("matrix entries and their block row sums must be finite")
    return rows


def quotient_matrix(matrix: np.ndarray, partition: Partition) -> np.ndarray:
    """The block-averaged matrix; its blocks' sizes are ``partition.block_sizes``."""
    rows = _row_sums(matrix, partition)
    data = partition._block_data
    return (data.indicator.T @ rows) / data.sizes[:, None]


def is_equitable(matrix: np.ndarray, partition: Partition) -> bool:
    """True iff within every block pair all row sums agree to within EQUITABLE_TOL * max|a_ij|."""
    rows = _row_sums(matrix, partition)
    # the rows block by block, then one max - min per block and column (every
    # block is nonempty, so each reduceat segment is exactly one block)
    data = partition._block_data
    grouped = rows.take(data.vertices, 0)
    spread = np.maximum.reduceat(grouped, data.starts) - np.minimum.reduceat(grouped, data.starts)
    widest = spread.item(spread.argmax()) if spread.size else 0.0
    # max|a_ij| is read only when some spread is nonzero
    return widest == 0.0 or widest <= EQUITABLE_TOL * _abs_max(np.asarray(matrix, dtype=float))


def quotient_eigenvalues(
    matrix: np.ndarray, partition: Partition, grouping_tol: float | None = None
) -> Spectrum:
    """Eigenvalues of the quotient of a symmetric matrix under an equitable partition.

    The quotient B is not symmetric in general, but for an equitable
    partition of a symmetric matrix it is diagonally similar to the
    symmetric matrix C with c[i][j] = blocksum(i, j) / sqrt(|b_i| |b_j|)
    (conjugate by diag(sqrt(|b_i|))).  C is built directly from the
    upper triangle so it is exactly symmetric, then handed to the Jacobi
    solver.  The matrix itself must pass the solver's symmetry check.
    """
    if not is_equitable(matrix, partition):
        raise NotEquitableError("partition is not equitable for this matrix")
    # is_equitable has rejected complex and non-finite entries, a wrong order and
    # non-finite row sums, so the row sums are taken again without their checks
    a = np.asarray(matrix, dtype=float)
    _check_symmetric(a, _abs_max(a))
    data = partition._block_data
    c = data.indicator.T @ (a @ data.indicator)
    c /= np.sqrt(np.multiply.outer(data.sizes, data.sizes))
    # the upper triangle and its mirror; adding 0.0 turns -0.0 into +0.0, as summing the two did
    c = np.where(_below_diagonal(len(c)), c.T, c) + 0.0
    return group_multiplicities(symmetric_eigenvalues(c), grouping_tol=grouping_tol)


@lru_cache(maxsize=16)
def _below_diagonal(k: int) -> np.ndarray:
    """The read-only k x k mask of the entries below the diagonal, once per block count."""
    mask = np.tri(k, k=-1, dtype=bool)
    mask.setflags(write=False)
    return mask
