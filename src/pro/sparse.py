"""Row-compressed sparse matrices with deterministic orderings.

Every matrix in this package keeps its column indices sorted in ascending
order inside each row, and every reduction over a row runs in that fixed
ascending order.  Rebuilding a matrix from the same entries therefore
reproduces results bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class RowSparse:
    """CSR matrix with sorted, duplicate-free column indices per row.

    Parameters
    ----------
    num_rows, num_cols : int
        Shape of the matrix.
    indptr : ndarray of int64, shape (num_rows + 1,)
        Row start offsets into ``indices`` and ``data``.
    indices : ndarray of int64
        Column indices, ascending within each row.
    data : ndarray of float64
        Entry values aligned with ``indices``.
    """

    num_rows: int
    num_cols: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    @staticmethod
    def empty(num_rows, num_cols):
        """Matrix with no stored entries."""
        return RowSparse(
            num_rows,
            num_cols,
            np.zeros(num_rows + 1, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.float64),
        )

    @staticmethod
    def from_entries(num_rows, num_cols, entries):
        """Build from an iterable of ``(row, col, value)`` triples.

        Raises
        ------
        ValidationError
            If an index is out of range or a coordinate appears twice.
        """
        triples = list(entries)
        if not triples:
            return RowSparse.empty(num_rows, num_cols)
        rows = np.asarray([t[0] for t in triples], dtype=np.int64)
        cols = np.asarray([t[1] for t in triples], dtype=np.int64)
        vals = np.asarray([t[2] for t in triples], dtype=np.float64)
        if rows.min() < 0 or rows.max() >= num_rows:
            raise ValidationError("entry row index out of range")
        if cols.min() < 0 or cols.max() >= num_cols:
            raise ValidationError("entry column index out of range")
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        flat = rows * num_cols + cols
        if flat.size > 1 and np.any(flat[1:] == flat[:-1]):
            raise ValidationError("duplicate entry coordinates")
        indptr = np.zeros(num_rows + 1, dtype=np.int64)
        np.add.at(indptr, rows + 1, 1)
        np.cumsum(indptr, out=indptr)
        return RowSparse(num_rows, num_cols, indptr, cols, vals)

    @property
    def nnz(self):
        return int(self.indices.size)

    def row_slice(self, i):
        """(indices, values) view of row ``i``."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def row_counts(self):
        return np.diff(self.indptr)

    def rightmul(self, v):
        """Matrix-vector product ``A v`` as a dense (num_rows,) vector."""
        return segment_sums(self.data * v[self.indices], self.indptr)

    def leftmul(self, x):
        """Vector-matrix product ``x A`` as a dense (num_cols,) vector."""
        weights = np.repeat(x, self.row_counts()) * self.data
        return np.bincount(self.indices, weights=weights, minlength=self.num_cols)

    def scaled(self, factor):
        return RowSparse(self.num_rows, self.num_cols, self.indptr, self.indices, self.data * factor)

    def to_dense(self):
        out = np.zeros((self.num_rows, self.num_cols))
        rows = np.repeat(np.arange(self.num_rows), self.row_counts())
        out[rows, self.indices] = self.data
        return out


def segment_sums(values, indptr):
    """Sum ``values`` over the segments delimited by ``indptr``.

    Each segment is reduced on its own, so the magnitude of one segment
    never enters the rounding of another.  Empty segments yield 0.
    """
    out = np.zeros(indptr.size - 1)
    nonempty = indptr[:-1] < indptr[1:]
    out[nonempty] = np.add.reduceat(values, indptr[:-1][nonempty])
    return out


def index_csr(num_rows, num_cols, pairs):
    """Index-only CSR (indptr, indices) from ``(row, col)`` pairs.

    Indices come out sorted ascending per row; duplicates are rejected.
    """
    if len(pairs) == 0:
        return np.zeros(num_rows + 1, dtype=np.int64), np.zeros(0, dtype=np.int64)
    arr = np.asarray(pairs, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValidationError("link list must contain [page, target] pairs")
    rows, cols = arr[:, 0], arr[:, 1]
    if rows.min() < 0 or rows.max() >= num_rows:
        raise ValidationError("link source index out of range")
    if cols.min() < 0 or cols.max() >= num_cols:
        raise ValidationError("link target index out of range")
    order = np.lexsort((cols, rows))
    rows, cols = rows[order], cols[order]
    flat = rows * num_cols + cols
    if flat.size > 1 and np.any(flat[1:] == flat[:-1]):
        raise ValidationError("duplicate link")
    indptr = np.zeros(num_rows + 1, dtype=np.int64)
    np.add.at(indptr, rows + 1, 1)
    np.cumsum(indptr, out=indptr)
    return indptr, cols


def add_sparse(a, b):
    """Entrywise sum of two RowSparse matrices over the union support."""
    if a.num_rows != b.num_rows or a.num_cols != b.num_cols:
        raise ValidationError("shape mismatch in sparse addition")
    if a.nnz == 0:
        return b
    if b.nnz == 0:
        return a
    rows = np.concatenate([np.repeat(np.arange(a.num_rows), a.row_counts()),
                           np.repeat(np.arange(b.num_rows), b.row_counts())])
    cols = np.concatenate([a.indices, b.indices])
    vals = np.concatenate([a.data, b.data])
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    flat = rows * a.num_cols + cols
    keep = np.ones(flat.size, dtype=bool)
    keep[1:] = flat[1:] != flat[:-1]
    # collapse runs of equal coordinates by summing their values
    group = np.cumsum(keep) - 1
    summed = np.zeros(int(group[-1]) + 1)
    np.add.at(summed, group, vals)
    rows, cols = rows[keep], cols[keep]
    indptr = np.zeros(a.num_rows + 1, dtype=np.int64)
    np.add.at(indptr, rows + 1, 1)
    np.cumsum(indptr, out=indptr)
    return RowSparse(a.num_rows, a.num_cols, indptr, cols, summed)
