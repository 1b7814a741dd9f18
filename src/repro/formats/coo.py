"""Coordinate (COO) format: explicit ``(row, col, value)`` triples.

The paper (§2.1): *"The coordinate (COO) format stores the matrix in three
dense arrays of length NNZ called row, column, and value. The position of
every nonzero value in the matrix is given explicitly."*

COO is the canonical interchange format of this package: every other format
converts to/from it, and the synthetic generators emit it.
"""

from __future__ import annotations

import numpy as np

from repro.formats.base import (
    INDEX_BYTES,
    INDEX_DTYPE,
    VALUE_BYTES,
    VALUE_DTYPE,
    FormatError,
    SparseMatrix,
    check_shape,
    check_vector,
)


class COOMatrix(SparseMatrix):
    """Canonical COO: row-major sorted, duplicate entries summed.

    Parameters
    ----------
    shape
        ``(nrows, ncols)``.
    rows, cols, vals
        Parallel arrays of equal length.  They are canonicalised (sorted
        row-major, duplicates summed, explicit zeros kept — CUSP also keeps
        them, and structural nonzeros are what the formats store).
    """

    format_name = "coo"

    def __init__(
        self,
        shape: tuple[int, int],
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
    ) -> None:
        self.shape = check_shape(shape)
        rows = np.asarray(rows, dtype=INDEX_DTYPE)
        cols = np.asarray(cols, dtype=INDEX_DTYPE)
        vals = np.asarray(vals, dtype=VALUE_DTYPE)
        if not (rows.ndim == cols.ndim == vals.ndim == 1):
            raise FormatError("COO triples must be 1-D arrays")
        if not (rows.shape == cols.shape == vals.shape):
            raise FormatError(
                f"COO triple lengths differ: {rows.shape}, {cols.shape}, {vals.shape}"
            )
        if rows.size:
            if rows.min(initial=0) < 0 or rows.max(initial=0) >= self.shape[0]:
                raise FormatError("COO row index out of range")
            if cols.min(initial=0) < 0 or cols.max(initial=0) >= self.shape[1]:
                raise FormatError("COO column index out of range")
        self.rows, self.cols, self.vals = _canonicalise(
            self.shape, rows, cols, vals
        )

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "COOMatrix":
        """Build from a dense 2-D array, dropping exact zeros."""
        dense = np.asarray(dense, dtype=VALUE_DTYPE)
        if dense.ndim != 2:
            raise FormatError("from_dense expects a 2-D array")
        rows, cols = np.nonzero(dense)
        return cls(dense.shape, rows, cols, dense[rows, cols])

    @classmethod
    def empty(cls, shape: tuple[int, int]) -> "COOMatrix":
        z = np.empty(0, dtype=INDEX_DTYPE)
        return cls(shape, z, z, np.empty(0, dtype=VALUE_DTYPE))

    # -- SparseMatrix interface ----------------------------------------------

    @property
    def nnz(self) -> int:
        return int(self.vals.shape[0])

    def spmv(self, x: np.ndarray) -> np.ndarray:
        """COO SpMV: scatter-add of ``vals * x[cols]`` into the row slots.

        This mirrors the GPU COO kernel's segmented reduction: each stored
        entry contributes independently, so the kernel is insensitive to the
        row-length distribution (the property the GPU cost model exploits).
        """
        x = check_vector(x, self.ncols)
        products = self.vals * x[self.cols]
        return np.bincount(
            self.rows, weights=products, minlength=self.nrows
        ).astype(VALUE_DTYPE, copy=False)

    def to_coo(self) -> "COOMatrix":
        return self

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.shape, dtype=VALUE_DTYPE)
        dense[self.rows, self.cols] = self.vals
        return dense

    def memory_bytes(self) -> int:
        return self.nnz * (2 * INDEX_BYTES + VALUE_BYTES)

    # -- structure queries used across the package ---------------------------

    def row_lengths(self) -> np.ndarray:
        """Number of stored entries per row, shape ``(nrows,)``."""
        return np.bincount(self.rows, minlength=self.nrows).astype(INDEX_DTYPE)

    def diagonal_offsets(self) -> np.ndarray:
        """Sorted distinct occupied diagonals as offsets ``col - row``."""
        if self.nnz == 0:
            return np.empty(0, dtype=INDEX_DTYPE)
        return np.unique(self.cols - self.rows)

    def transpose(self) -> "COOMatrix":
        return COOMatrix(
            (self.ncols, self.nrows), self.cols, self.rows, self.vals
        )

    def permute(
        self,
        row_perm: np.ndarray | None = None,
        col_perm: np.ndarray | None = None,
    ) -> "COOMatrix":
        """Apply row/column permutations: ``B[p[i], q[j]] = A[i, j]``.

        Used by the dataset augmentation step (the paper derives additional
        CNN training instances from SuiteSparse via such permutations).
        """
        rows, cols = self.rows, self.cols
        if row_perm is not None:
            row_perm = _check_perm(row_perm, self.nrows, "row")
            rows = row_perm[rows]
        if col_perm is not None:
            col_perm = _check_perm(col_perm, self.ncols, "column")
            cols = col_perm[cols]
        return COOMatrix(self.shape, rows, cols, self.vals)


def _check_perm(perm: np.ndarray, n: int, kind: str) -> np.ndarray:
    perm = np.asarray(perm, dtype=INDEX_DTYPE)
    if perm.shape != (n,) or not np.array_equal(np.sort(perm), np.arange(n)):
        raise FormatError(f"invalid {kind} permutation of length {n}")
    return perm


def _canonicalise(
    shape: tuple[int, int],
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort triples row-major and sum duplicates."""
    if rows.size == 0:
        return rows, cols, vals
    is_first = np.empty(rows.shape, dtype=bool)
    is_first[0] = True
    if shape[0] * shape[1] <= np.iinfo(np.int64).max:
        # Row-major order: a stable sort of the int64 row-major key is the
        # order of ``lexsort((cols, rows))``, ties (duplicates) included.
        keys = rows * shape[1] + cols
        order = np.argsort(keys, kind="stable")
        rows, cols, vals, keys = rows[order], cols[order], vals[order], keys[order]
        np.not_equal(keys[1:], keys[:-1], out=is_first[1:])
    else:
        # The key would overflow (forged-header scale): sort by pairs.
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        is_first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    # Collapse duplicates (same row and col) by summation.
    if is_first.all():
        return rows, cols, vals
    group_ids = np.cumsum(is_first) - 1
    summed = np.bincount(group_ids, weights=vals)
    return rows[is_first], cols[is_first], summed.astype(VALUE_DTYPE)
