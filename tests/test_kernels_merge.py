"""Tests for the Phase IV tuple merge (mark/scan/reduce)."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.formats import COOMatrix
from repro.kernels import exclusive_scan, mark_master_indices, merge_tuples


def coo_random(m, n, density, seed):
    return COOMatrix.from_scipy(sp.random(m, n, density=density, random_state=seed,
                                          format="coo"))


class TestMarkScan:
    def test_mark_first_of_each_run(self):
        keys = np.array([1, 1, 2, 5, 5, 5, 9])
        np.testing.assert_array_equal(
            mark_master_indices(keys), [1, 0, 1, 1, 0, 0, 1]
        )

    def test_mark_empty(self):
        assert mark_master_indices(np.array([], dtype=np.int64)).size == 0

    def test_mark_all_distinct(self):
        assert mark_master_indices(np.array([1, 2, 3])).all()

    def test_exclusive_scan(self):
        flags = np.array([1, 0, 1, 1, 0], dtype=np.int64)
        np.testing.assert_array_equal(exclusive_scan(flags), [0, 1, 1, 2, 3])

    def test_scan_assigns_output_slots(self):
        keys = np.array([3, 3, 4, 7, 7])
        head = mark_master_indices(keys)
        slots = exclusive_scan(head)
        # at each master index, the scan value is that run's output slot
        masters = np.flatnonzero(head)
        np.testing.assert_array_equal(slots[masters], [0, 1, 2])


class TestMerge:
    def test_single_part(self):
        part = coo_random(12, 9, 0.3, 1)
        out = merge_tuples((12, 9), [part])
        np.testing.assert_allclose(out.matrix.todense(), part.todense())

    def test_multiple_overlapping_parts(self):
        parts = [coo_random(10, 10, 0.25, s) for s in (1, 2, 3)]
        out = merge_tuples((10, 10), parts)
        ref = sum(p.todense() for p in parts)
        np.testing.assert_allclose(out.matrix.todense(), ref)

    def test_stats_counts(self):
        a = COOMatrix((2, 2), [0, 0, 1], [0, 0, 1], [1.0, 2.0, 3.0])
        out = merge_tuples((2, 2), [a])
        assert out.stats.tuples_in == 3
        assert out.stats.masters == 2
        assert out.stats.max_run == 2
        assert out.stats.reduce_ops == 1
        assert out.stats.duplication_ratio == pytest.approx(1.5)

    def test_empty(self):
        out = merge_tuples((4, 4), [])
        assert out.matrix.nnz == 0
        assert out.stats.tuples_in == 0
        assert out.stats.duplication_ratio == 0.0

    def test_drop_zeros(self):
        a = COOMatrix((1, 1), [0, 0], [0, 0], [2.0, -2.0])
        kept = merge_tuples((1, 1), [a], drop_zeros=False)
        dropped = merge_tuples((1, 1), [a], drop_zeros=True)
        assert kept.matrix.nnz == 1
        assert dropped.matrix.nnz == 0

    def test_result_is_valid_sorted_csr(self):
        parts = [coo_random(30, 20, 0.2, s) for s in (5, 6)]
        out = merge_tuples((30, 20), parts)
        out.matrix.validate()
        assert out.matrix.has_sorted_indices

    def test_matches_canonicalize(self):
        parts = [coo_random(15, 15, 0.3, s) for s in (7, 8, 9)]
        out = merge_tuples((15, 15), parts)
        from repro.formats import concatenate_triplets

        canon = concatenate_triplets((15, 15), parts).canonicalize(drop_zeros=False)
        assert out.matrix.allclose(canon)

    def test_sort_ops_scale(self):
        big = coo_random(50, 50, 0.4, 10)
        small = coo_random(5, 5, 0.4, 11)
        sb = merge_tuples((50, 50), [big]).stats
        ss = merge_tuples((5, 5), [small]).stats
        assert sb.sort_ops > ss.sort_ops


# -- property: the merge is the scalar stream-order walk, bit for bit ---------

#: values that collide, cancel, and carry signed zeros
_VALUES = st.one_of(
    st.sampled_from([-2.5, -1.0, -0.0, 0.0, 0.1, 1.0, 2.5]),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


@st.composite
def canonical_parts(draw):
    """Kernel-shaped tuple streams: each part row-major sorted with
    unique keys, at least three parts touching one shared row, and
    possibly empty parts anywhere in the stream order."""
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cell = st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1))
    shared_row = draw(st.integers(0, nrows - 1))
    parts = []
    for i in range(draw(st.integers(3, 7))):
        keys = draw(st.sets(cell, max_size=nrows * ncols))
        if i < 3:
            keys.add((shared_row, draw(st.integers(0, ncols - 1))))
        elif draw(st.booleans()):
            keys = set()
        keys = sorted(keys)
        rows = [r for r, _ in keys]
        cols = [c for _, c in keys]
        vals = [draw(_VALUES) for _ in keys]
        parts.append(COOMatrix((nrows, ncols), rows, cols, vals))
    return (nrows, ncols), draw(st.permutations(parts))


def scalar_merge(shape, parts, drop_zeros=False):
    """Reference: a dict walk over the tuples in stream order, each key
    seeded with its first value; returns CSR arrays and run lengths."""
    acc, runs = {}, {}
    for p in parts:
        for r, c, v in zip(p.row.tolist(), p.col.tolist(), p.data.tolist()):
            key = (r, c)
            acc[key] = acc[key] + v if key in acc else v
            runs[key] = runs.get(key, 0) + 1
    kept = sorted(k for k, v in acc.items() if not (drop_zeros and v == 0.0))
    indptr = np.zeros(shape[0] + 1, dtype=np.int64)
    for r, _ in kept:
        indptr[r + 1] += 1
    return (
        np.cumsum(indptr),
        np.array([c for _, c in kept], dtype=np.int64),
        np.array([acc[k] for k in kept], dtype=np.float64),
        runs,
    )


@given(canonical_parts(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_merge_equals_scalar_stream_walk(case, drop_zeros):
    shape, parts = case
    out = merge_tuples(shape, parts, drop_zeros=drop_zeros)
    indptr, indices, data, runs = scalar_merge(shape, parts, drop_zeros)
    m = out.matrix
    assert m.indptr.tobytes() == indptr.tobytes()
    assert m.indices.tobytes() == indices.tobytes()
    assert m.data.tobytes() == data.tobytes()

    n = sum(p.nnz for p in parts)
    stats = out.stats
    assert stats.tuples_in == n
    assert stats.masters == len(runs)
    assert stats.max_run == max(runs.values(), default=0)
    assert stats.reduce_ops == n - len(runs)
    assert stats.sort_ops == (int(n * max(1.0, math.log2(n))) if n else 0)


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), _VALUES), max_size=60))
@settings(max_examples=100, deadline=None)
def test_canonicalize_equals_scalar_stream_walk(triplets):
    """One arbitrary (unsorted, duplicate-laden) stream through
    ``COOMatrix.canonicalize`` — runs far longer than two included."""
    rows, cols, vals = (list(x) for x in zip(*triplets)) if triplets else ([], [], [])
    coo = COOMatrix((4, 4), rows, cols, vals)
    indptr, indices, data, _ = scalar_merge((4, 4), [coo], drop_zeros=True)
    canon = coo.canonicalize()
    assert canon.row.tobytes() == np.repeat(np.arange(4), np.diff(indptr)).tobytes()
    assert canon.col.tobytes() == indices.tobytes()
    assert canon.data.tobytes() == data.tobytes()
    csr = coo.tocsr()
    indptr, indices, data, _ = scalar_merge((4, 4), [coo])
    assert csr.indptr.tobytes() == indptr.tobytes()
    assert csr.indices.tobytes() == indices.tobytes()
    assert csr.data.tobytes() == data.tobytes()
