"""Row-compressed sparse matrices with deterministic orderings.

Every matrix in this package keeps its column indices sorted in ascending
order inside each row, and every reduction over a row runs in that fixed
ascending order.  Rebuilding a matrix from the same entries therefore
reproduces results bit for bit.

Sorted columns also make the row-major key ``row * num_cols + col``
ascend over a whole matrix.  ``_sort_coords`` is the one sort, dedupe and
``indptr`` core behind ``index_csr``, ``RowSparse.from_entries`` and
``add_sparse``; ``locate`` finds coordinates in a CSR pattern with one
``searchsorted`` on that key, and ``RowSparse.gather_at`` reads through it.
``flat_array`` is the one reader of a document's lists: it checks every
item's type once and converts at a known dtype.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import ParseError, ValidationError


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
    def from_entries(num_rows, num_cols, rows, cols, vals):
        """Build from flat int64 index arrays: ``vals[k]`` at ``(rows[k], cols[k])``.

        Raises
        ------
        ValidationError
            If an index is out of range or a coordinate appears twice.
        """
        rows = _in_range(rows, num_rows, "entry row index out of range")
        cols = _in_range(cols, num_cols, "entry column index out of range")
        order, first, indptr = _sort_coords(num_rows, num_cols, rows, cols)
        if not first.all():
            raise ValidationError("duplicate entry coordinates")
        return RowSparse(num_rows, num_cols, indptr, cols[order],
                         np.asarray(vals, dtype=np.float64)[order])

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

    def scaled(self, factor):
        return RowSparse(self.num_rows, self.num_cols, self.indptr, self.indices, self.data * factor)

    def to_dense(self):
        out = np.zeros((self.num_rows, self.num_cols))
        out[row_ids(self.indptr), self.indices] = self.data
        return out

    def gather_at(self, indptr, indices):
        """Values at the coordinates of the CSR pattern ``(indptr, indices)``.

        The pattern spans the same rows; where it names a coordinate this
        matrix does not store, the value is 0.
        """
        out = np.zeros(np.shape(indices))
        if self.nnz == 0 or out.size == 0:
            return out
        pos, hit = locate(self.indptr, self.indices, self.num_cols, row_ids(indptr), indices)
        out[hit] = self.data[pos[hit]]
        return out


def row_ids(indptr):
    """Row index of every stored entry of a CSR pattern."""
    return np.repeat(np.arange(indptr.size - 1), np.diff(indptr))


def ranges(starts, ends):
    """``(owner, pos)`` of the index ranges ``[starts[k], ends[k])``, laid
    end to end: ``pos`` runs through each range in turn and ``owner[t]``
    is the k whose range holds ``pos[t]``.  With ``indptr[rows]`` and
    ``indptr[rows + 1]`` these are the entries of some rows of a CSR
    pattern."""
    counts = ends - starts
    owner = np.repeat(np.arange(counts.size), counts)
    return owner, np.arange(owner.size) + np.repeat(starts - np.cumsum(counts) + counts, counts)


def locate(indptr, indices, num_cols, rows, cols):
    """Find the coordinates ``(rows[k], cols[k])`` in a CSR pattern.

    The pattern's columns must ascend within each row.  Returns
    ``(pos, hit)``: ``hit[k]`` says whether the pattern holds the k-th
    coordinate, and if so ``indices[pos[k]]`` is that entry.  A column
    outside ``[0, num_cols)`` is never a hit.
    """
    pos, hit = find_sorted(row_ids(indptr) * num_cols + indices, rows * num_cols + cols)
    hit &= (cols >= 0) & (cols < num_cols)
    return pos, hit


def find_sorted(keys, want):
    """Find each of ``want`` in the ascending array ``keys``.

    Returns ``(pos, hit)``: ``hit[k]`` says whether ``want[k]`` occurs,
    and if so ``keys[pos[k]]`` is it.  (``np.isin`` would serve for the
    mask, but it may call ``np.unique``, which imports ``numpy.ma``, about
    1 MiB, on first use.)
    """
    want = np.asarray(want)
    pos = np.searchsorted(keys, want)
    hit = pos < keys.size
    hit[hit] = keys[pos[hit]] == want[hit]
    return pos, hit


def _flat_records(raw, width):
    """The ``width``-item records of ``raw`` end to end in one list, where
    column k is ``flat[k::width]``; None if some record is not that long."""
    try:
        widths = set(map(len, raw))
    except TypeError:  # a record without a length
        return None
    return list(chain.from_iterable(raw)) if widths <= {width} else None


def flat_array(raw, kinds, name, overflow=ParseError):
    """``raw``, a flat JSON list, as an int64 array (``kinds`` ``{int}``:
    pages and indices) or a float64 one (``{int, float}``: values).

    Every item's type is checked once, so a bool, string, None or nested
    list is a ParseError.  An integer must fit in int64 in either kind;
    one that does not is raised as ``overflow``.
    """
    if not isinstance(raw, list) or not (seen := set(map(type, raw))) <= kinds:
        raise ParseError(f"{name} must be a flat list of "
                         f"{'numbers' if float in kinds else 'integers'}")
    try:
        if float in kinds and int in seen:  # the integers among the numbers, too
            np.fromiter([x for x in raw if type(x) is int], np.int64)
        return np.fromiter(raw, np.float64 if float in kinds else np.int64, len(raw))
    except OverflowError as exc:
        raise overflow(f"{name} holds an integer beyond 64 bits") from exc


def _in_range(idx, bound, message):
    if idx.size and (idx.min() < 0 or idx.max() >= bound):
        raise ValidationError(message)
    return idx


def _sort_coords(num_rows, num_cols, rows, cols):
    """Sort in-range coordinates row-major and find repeats.

    Returns ``(order, first, indptr)``: ``order`` is the stable sorting
    permutation, ``first[k]`` is False when the k-th sorted coordinate
    repeats the one before it, and ``indptr`` counts each distinct
    coordinate once.
    """
    key = rows * num_cols + cols
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.ones(key.size, dtype=bool)
    first[1:] = key[1:] != key[:-1]
    indptr = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows[order[first]], minlength=num_rows), out=indptr[1:])
    return order, first, indptr


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
    The pairs are read flat, one ``flat_array`` of integers.  A list of
    anything but pairs is unnested one level of equal-length lists at a
    time, as a nested array would be: integers in another shape are a
    ValidationError, ragged nesting a ParseError.
    """
    if len(pairs) == 0:
        return np.zeros(num_rows + 1, dtype=np.int64), np.zeros(0, dtype=np.int64)
    flat, shape = pairs, [len(pairs)]
    while flat and type(flat[0]) is list:
        shape.append(len(flat[0]))
        flat = _flat_records(flat, shape[-1])
        if flat is None:
            raise ParseError("malformed index list: ragged nesting")
    arr = flat_array(flat, {int}, "indices")
    if shape[1:] != [2]:
        raise ValidationError("link list must contain [page, target] pairs")
    del flat  # a list as long as the index array, not needed by the sort
    rows = _in_range(arr[0::2], num_rows, "link source index out of range")
    cols = _in_range(arr[1::2], num_cols, "link target index out of range")
    order, first, indptr = _sort_coords(num_rows, num_cols, rows, cols)
    if not first.all():
        raise ValidationError("duplicate link")
    return indptr, cols[order]


def add_sparse(a, b):
    """Entrywise sum of two RowSparse matrices over the union support."""
    if a.num_rows != b.num_rows or a.num_cols != b.num_cols:
        raise ValidationError("shape mismatch in sparse addition")
    if a.nnz == 0:
        return b
    if b.nnz == 0:
        return a
    rows = np.concatenate([row_ids(a.indptr), row_ids(b.indptr)])
    cols = np.concatenate([a.indices, b.indices])
    order, first, indptr = _sort_coords(a.num_rows, a.num_cols, rows, cols)
    # the sort is stable, so a shared coordinate sums a's entry, then b's
    vals = np.concatenate([a.data, b.data])[order]
    summed = np.bincount(np.cumsum(first) - 1, weights=vals)
    return RowSparse(a.num_rows, a.num_cols, indptr, cols[order][first], summed)
