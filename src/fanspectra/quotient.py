"""Vertex partitions, quotient matrices, and equitable-partition spectra.

The quotient of a matrix M under an ordered partition averages each
block row: b[i][j] = (sum of the entries of block M_ij) / |block i|.
A partition is equitable when every row inside a block has the same sum
toward every other block; then the quotient's eigenvalues are a subset
of M's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigen import (
    DEFAULT_GROUPING_TOL, Spectrum, _check_tol, group_multiplicities, symmetric_eigenvalues
)

DEFAULT_EQUITABLE_TOL = 1e-9


class NotEquitableError(ValueError):
    """Raised when a quotient-spectrum request gets a non-equitable partition."""


@dataclass(frozen=True)
class Partition:
    """Ordered list of disjoint vertex blocks covering 0..order-1."""

    blocks: tuple[tuple[int, ...], ...]

    @property
    def block_sizes(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.blocks)

    def validate_for(self, order: int) -> None:
        seen: set[int] = set()
        for block in self.blocks:
            if not block:
                raise ValueError("partition blocks must be nonempty")
            for v in block:
                if not 0 <= v < order:
                    raise ValueError(f"vertex {v} out of range for order {order}")
                if v in seen:
                    raise ValueError(f"vertex {v} appears in more than one block")
                seen.add(v)
        if len(seen) != order:
            raise ValueError("partition must cover every vertex exactly once")


@dataclass(frozen=True)
class QuotientMatrix:
    """Block-averaged matrix together with the sizes of the blocks it came from."""

    matrix: np.ndarray
    block_sizes: tuple[int, ...]


def make_partition(blocks) -> Partition:
    return Partition(tuple(tuple(int(v) for v in block) for block in blocks))


def side_partition(n1: int, n2: int) -> Partition:
    """Two blocks: the first n1 indices, then the next n2."""
    return make_partition([range(n1), range(n1, n1 + n2)])


def fan_partition(m: int, n: int) -> Partition:
    """Path block then hub block, matching the fan's vertex ordering."""
    return side_partition(n, m)


def nc_partition(m: int, n: int) -> Partition:
    """Four blocks: first path, first hubs, second hubs, second path."""
    return make_partition(
        [range(n), range(n, n + m), range(n + m, n + 2 * m), range(n + 2 * m, 2 * n + 2 * m)]
    )


def _row_sums(matrix: np.ndarray, partition: Partition) -> tuple[np.ndarray, np.ndarray]:
    """The indicator I (I[v, j] = 1 iff vertex v is in block j) and matrix @ I,
    whose entry (v, j) is the sum of row v over block j.  Each entry enters one
    sum with weight 1, so a NaN or inf entry (or an overflow) makes a non-finite
    sum, reported as a ValueError rather than as numpy's inf * 0 warning."""
    matrix = np.asarray(matrix, dtype=float)
    partition.validate_for(matrix.shape[0])
    indicator = np.zeros((matrix.shape[0], len(partition.blocks)))
    for j, block in enumerate(partition.blocks):
        indicator[list(block), j] = 1.0
    with np.errstate(invalid="ignore", over="ignore"):
        rows = matrix @ indicator
    if not np.isfinite(rows).all():
        raise ValueError("matrix entries and their block row sums must be finite")
    return indicator, rows


def quotient_matrix(matrix: np.ndarray, partition: Partition) -> QuotientMatrix:
    indicator, rows = _row_sums(matrix, partition)
    sizes = partition.block_sizes
    return QuotientMatrix((indicator.T @ rows) / np.array(sizes, dtype=float)[:, None], sizes)


def is_equitable(matrix: np.ndarray, partition: Partition, tol: float = DEFAULT_EQUITABLE_TOL) -> bool:
    """True iff within every block pair all row sums agree to within tol (finite, >= 0)."""
    _check_tol("equitable tolerance", tol, zero_ok=True)
    _, rows = _row_sums(matrix, partition)
    return not any((np.ptp(rows[list(block)], axis=0) > tol).any() for block in partition.blocks)


def quotient_eigenvalues(
    matrix: np.ndarray,
    partition: Partition,
    equitable_tol: float = DEFAULT_EQUITABLE_TOL,
    grouping_tol: float = DEFAULT_GROUPING_TOL,
) -> Spectrum:
    """Eigenvalues of the quotient of a symmetric matrix under an equitable partition.

    The quotient B is not symmetric in general, but for an equitable
    partition of a symmetric matrix it is diagonally similar to the
    symmetric matrix C with c[i][j] = blocksum(i, j) / sqrt(|b_i| |b_j|)
    (conjugate by diag(sqrt(|b_i|))).  C is built directly from the
    upper triangle so it is exactly symmetric, then handed to the Jacobi
    solver.
    """
    if not is_equitable(matrix, partition, tol=equitable_tol):
        raise NotEquitableError("partition is not equitable for this matrix")
    indicator, rows = _row_sums(matrix, partition)
    sizes = np.array(partition.block_sizes, dtype=float)
    upper = np.triu((indicator.T @ rows) / np.sqrt(np.outer(sizes, sizes)))
    c = upper + np.triu(upper, 1).T
    return group_multiplicities(symmetric_eigenvalues(c), grouping_tol=grouping_tol)
