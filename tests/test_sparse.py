"""Row-compressed matrix helpers against dense references."""

import numpy as np
import pytest

from pro.errors import ValidationError
from pro.sparse import RowSparse, add_sparse, index_csr, row_ids, segment_sums


def entries(rows, cols, vals):
    return np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64), np.array(vals)


def random_sparse(rng, rows, cols, density=0.3):
    mask = rng.random((rows, cols)) < density
    r, c = np.nonzero(mask)
    return RowSparse.from_entries(rows, cols, *entries(r, c, rng.normal(size=r.size)))


def test_from_entries_sorts_columns_within_rows():
    mat = RowSparse.from_entries(2, 4, *entries([0, 0, 1], [3, 1, 0], [1.0, 2.0, 3.0]))
    idx, val = mat.row_slice(0)
    assert idx.tolist() == [1, 3]
    assert val.tolist() == [2.0, 1.0]
    assert mat.nnz == 3


def test_from_entries_rejects_duplicates():
    with pytest.raises(ValidationError):
        RowSparse.from_entries(2, 2, *entries([0, 0], [1, 1], [1.0, 2.0]))


def test_from_entries_rejects_out_of_range():
    with pytest.raises(ValidationError):
        RowSparse.from_entries(2, 2, *entries([2], [0], [1.0]))
    with pytest.raises(ValidationError):
        RowSparse.from_entries(2, 2, *entries([0], [-1], [1.0]))


def test_matvec_products_match_dense():
    rng = np.random.default_rng(5)
    for _ in range(25):
        rows = int(rng.integers(1, 9))
        cols = int(rng.integers(1, 9))
        mat = random_sparse(rng, rows, cols)
        dense = mat.to_dense()
        v = rng.normal(size=cols)
        assert np.allclose(mat.rightmul(v), dense @ v, atol=1e-12)


def test_segment_sums_handles_empty_segments():
    values = np.array([1.0, 2.0, 3.0, 4.0])
    indptr = np.array([0, 0, 2, 2, 4, 4])
    assert segment_sums(values, indptr).tolist() == [0.0, 3.0, 0.0, 7.0, 0.0]


def test_segment_sums_keep_segments_apart():
    # a large earlier segment must not swamp a small later one
    values = np.array([1e16, 1.0, 1.0])
    assert segment_sums(values, np.array([0, 1, 3])).tolist() == [1e16, 2.0]


def test_segment_sums_empty_values():
    assert segment_sums(np.zeros(0), np.array([0, 0, 0])).tolist() == [0.0, 0.0]


def test_index_csr_sorted_and_duplicate_free():
    indptr, indices = index_csr(3, 3, [[2, 1], [0, 2], [0, 0], [2, 0]])
    assert indptr.tolist() == [0, 2, 2, 4]
    assert indices.tolist() == [0, 2, 0, 1]
    with pytest.raises(ValidationError):
        index_csr(3, 3, [[0, 1], [0, 1]])
    with pytest.raises(ValidationError):
        index_csr(3, 3, [[0, 3]])


def test_add_sparse_matches_dense_sum():
    rng = np.random.default_rng(11)
    for _ in range(25):
        rows = int(rng.integers(1, 7))
        cols = int(rng.integers(1, 7))
        a = random_sparse(rng, rows, cols)
        b = random_sparse(rng, rows, cols)
        total = add_sparse(a, b)
        assert np.allclose(total.to_dense(), a.to_dense() + b.to_dense(), atol=1e-12)
        idx = total.indices
        counts = total.row_counts()
        pos = 0
        for c in counts:
            seg = idx[pos:pos + c]
            assert np.all(np.diff(seg) > 0)
            pos += c


def test_gather_at_matches_dense_lookup():
    rng = np.random.default_rng(13)
    for _ in range(40):
        rows = int(rng.integers(1, 8))
        cols = int(rng.integers(1, 8))
        source = random_sparse(rng, rows, cols, density=float(rng.choice([0.0, 0.3, 0.8])))
        pattern = random_sparse(rng, rows, cols, density=float(rng.choice([0.0, 0.3, 0.8])))
        got = source.gather_at(pattern.indptr, pattern.indices)
        want = source.to_dense()[row_ids(pattern.indptr), pattern.indices]
        assert got.tolist() == want.tolist()


def test_gather_at_edge_cases():
    source = RowSparse.from_entries(3, 4, *entries([0, 2, 2], [1, 3, 0], [1.5, -2.0, 4.0]))
    # the pattern names a missing column in row 0 and skips row 2
    indptr, indices = np.array([0, 2, 3, 3]), np.array([1, 2, 0])
    assert source.gather_at(indptr, indices).tolist() == [1.5, 0.0, 0.0]
    assert RowSparse.empty(3, 4).gather_at(indptr, indices).tolist() == [0.0, 0.0, 0.0]
    empty = source.gather_at(np.zeros(4, dtype=np.int64), np.zeros(0, dtype=np.int64))
    assert empty.tolist() == []
