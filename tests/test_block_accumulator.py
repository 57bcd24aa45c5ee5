"""Differential bit-identity of the row-block accumulator.

ESC, the hash fast path and the batched SPA all reduce through
:func:`repro.kernels.esc.accumulate_rows`.  These tests shrink its block
budgets to a few cells or tuples, so small inputs cross many blocks and
both accumulator paths, and require every kernel to equal its scalar
reference — ``hash_multiply(slow=True)``, ``spa_multiply(row_block=None)``,
a dictionary walk for ESC's merged-repeat convention — and scipy, byte
for byte.  Inputs carry explicit zeros and ``-0.0`` values, whose sums
must keep the +0.0 seed.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
import hypothesis.extra.numpy as hnp

from repro.formats import CSRMatrix
from repro.kernels import esc as esc_mod
from repro.kernels.esc import esc_multiply
from repro.kernels.hash_acc import hash_multiply
from repro.kernels.spa import spa_multiply
from repro.obs.metrics import METRICS
from repro.scalefree import powerlaw_matrix

_VALS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 3.0, 0.1, -2.5])

#: (cells, tuples, dense fill) budgets; fill 0 forces the sparse path,
#: a huge fill the dense one
_BUDGETS = st.tuples(
    st.sampled_from([1, 2, 3, 5, 8, 16, 64, 1 << 20]),
    st.sampled_from([1, 2, 3, 5, 8, 32, 1 << 16]),
    st.sampled_from([0, 1, 2, 8, 1 << 30]),
)


@contextmanager
def budgets(cells: int, tuples: int, fill: int):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(esc_mod, "BLOCK_CELLS", cells)
        mp.setattr(esc_mod, "BLOCK_TUPLES", tuples)
        mp.setattr(esc_mod, "DENSE_FILL", fill)
        yield


def csr(shape, rows, cols, vals) -> CSRMatrix:
    """CSR from triplets that are already (row, col)-sorted and unique."""
    indptr = np.zeros(shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(np.asarray(rows, dtype=np.int64), minlength=shape[0]),
              out=indptr[1:])
    return CSRMatrix(shape, indptr, cols, vals)


@st.composite
def sparse_csr(draw, m: int, n: int) -> CSRMatrix:
    """A CSR matrix whose stored values include 0.0 and -0.0."""
    pattern = draw(hnp.arrays(np.bool_, (m, n)))
    r, c = np.nonzero(pattern)
    vals = draw(hnp.arrays(np.float64, (r.size,), elements=_VALS))
    return csr((m, n), r, c, vals)


@st.composite
def product_instance(draw, max_dim=9):
    m = draw(st.integers(1, max_dim))
    p = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_dim))
    a = draw(sparse_csr(m, p))
    b = draw(sparse_csr(p, n))
    rows = draw(st.one_of(
        st.none(),
        st.lists(st.integers(0, m - 1), min_size=0, max_size=m + 3)
        .map(lambda xs: np.asarray(xs, dtype=np.int64)),
    ))
    mask = draw(st.one_of(st.none(), hnp.arrays(np.bool_, (p,))))
    return a, b, rows, mask


def esc_walk(a, b, rows, mask):
    """ESC's convention as a scalar walk: repeated rows merge into one
    output row, each row's products summed in occurrence, then k-major,
    order from +0.0.  Returns (rows, cols, vals, per-occurrence work)."""
    order = range(a.nrows) if rows is None else [int(r) for r in rows]
    acc: dict[int, dict[int, float]] = {}
    work: dict[int, int] = {}
    for i in order:
        row = acc.setdefault(i, {})
        acols, avals = a.row_slice(i)
        for k, av in zip(acols.tolist(), avals.tolist()):
            if mask is not None and not mask[k]:
                continue
            bcols, bvals = b.row_slice(k)
            work[i] = work.get(i, 0) + bcols.size
            for j, bv in zip(bcols.tolist(), bvals.tolist()):
                row[j] = row.get(j, 0.0) + av * bv
    out = [(i, j, v) for i in sorted(acc) for j, v in sorted(acc[i].items())]
    r, c, v = (np.asarray(x) for x in zip(*out)) if out else ([], [], [])
    return (np.asarray(r, dtype=np.int64), np.asarray(c, dtype=np.int64),
            np.asarray(v, dtype=np.float64), [work.get(i, 0) for i in order])


def _keep_rows(m: CSRMatrix, keep: np.ndarray) -> sp.csr_matrix:
    """``m`` with the rows outside ``keep`` emptied, as scipy CSR.  Built
    from the triplets, not by a scaling product: scipy's product leaves
    column indices unsorted, which would reorder the sums downstream."""
    r = np.repeat(np.arange(m.nrows), m.row_nnz())
    on = keep[r]
    return sp.csr_matrix((m.data[on], (r[on], m.indices[on])), shape=m.shape)


def scipy_dense(a, b, rows, mask) -> np.ndarray:
    """``A[rows] @ B*mask`` by scipy, densified (rows must be unique)."""
    keep = np.ones(a.nrows, dtype=bool)
    if rows is not None:
        keep[:] = False
        keep[rows] = True
    sb = _keep_rows(b, np.ones(b.nrows, dtype=bool) if mask is None else mask)
    return (_keep_rows(a, keep) @ sb).toarray()


def assert_same_bytes(x, y):
    x, y = np.asarray(x), np.asarray(y)
    assert x.shape == y.shape
    assert x.tobytes() == y.tobytes()


def assert_same_result(r1, r2):
    for f in ("row", "col", "data"):
        assert_same_bytes(getattr(r1.result, f), getattr(r2.result, f))
    s1, s2 = r1.stats, r2.stats
    assert (s1.a_entries, s1.total_work, s1.tuples_emitted, s1.result_nnz) == \
        (s2.a_entries, s2.total_work, s2.tuples_emitted, s2.result_nnz)
    assert_same_bytes(s1.row_work, s2.row_work)


def check_all(a, b, rows, mask, *, row_block=2, with_scipy=True):
    """Every fast path against its reference, plus scipy when the
    selection has no repeats."""
    e = esc_multiply(a, b, rows, mask)
    wr, wc, wv, wwork = esc_walk(a, b, rows, mask)
    assert_same_bytes(e.result.row, wr)
    assert_same_bytes(e.result.col, wc)
    assert_same_bytes(e.result.data, wv)
    assert_same_bytes(e.stats.row_work, np.asarray(wwork, dtype=np.int64))
    h = hash_multiply(a, b, rows, mask)
    assert_same_result(h, hash_multiply(a, b, rows, mask, slow=True))
    s = spa_multiply(a, b, rows, mask, row_block=row_block)
    if with_scipy:
        assert_same_result(s, spa_multiply(a, b, rows, mask, row_block=None))
    else:  # the per-row SPA allocates a dense ncols-wide accumulator
        assert_same_result(s, h)
    if with_scipy and (rows is None or np.unique(rows).size == rows.size):
        ref = scipy_dense(a, b, rows, mask)
        for kr in (e, h, s):
            assert_same_bytes(kr.result.todense(), ref)
    return e


@given(product_instance(), _BUDGETS, st.integers(1, 4))
@settings(max_examples=200, deadline=None)
def test_blocked_kernels_bit_identical(inst, budget, row_block):
    a, b, rows, mask = inst
    with budgets(*budget):
        check_all(a, b, rows, mask, row_block=row_block)


@pytest.mark.parametrize("budget", [(1, 1, 0), (4, 3, 8), (16, 8, 1 << 30)])
def test_row_larger_than_both_budgets(budget):
    # row 3 expands to 20 × 12 tuples over 12 columns: more than any budget
    rng = np.random.default_rng(1)
    dense = rng.choice([0.0, 0.0, -0.0, 1.5, -1.0, 0.25], size=(8, 20))
    dense[3] = rng.standard_normal(20)
    bd = rng.choice([0.0, 1.0, -2.0, 0.5, -0.0], size=(20, 12))
    bd[:, :] += np.eye(20, 12)
    a, b = CSRMatrix.from_dense(dense), CSRMatrix.from_dense(bd)
    with budgets(*budget):
        check_all(a, b, None, None)
        check_all(a, b, np.array([3, 5, 3, 0]), None)


def test_mixed_dense_and_sparse_blocks():
    a = powerlaw_matrix(300, alpha=2.1, target_nnz=2_500, hub_bias=0.5, rng=4)
    work = a.squared_row_work()
    # one row per block (cells < 2 × ncols); rows with work ≥ ncols/8
    # take the dense path, the rest the packed sort
    assert (work >= 300 / 8).any() and ((work > 0) & (work < 300 / 8)).any()
    with budgets(500, 4096, 8):
        check_all(a, a, None, None, row_block=7)
    # many rows per block, split by the tuple budget
    with budgets(1 << 20, 50, 8):
        check_all(a, a, None, np.arange(300) % 3 != 0, row_block=64)


def test_empty_rows_and_selections():
    a = csr((5, 4), [1, 1, 3], [0, 2, 1], [1.0, -0.0, 2.0])
    b = csr((4, 3), [0, 2, 2], [1, 0, 2], [0.0, 3.0, -1.0])
    for budget in [(1, 1, 0), (2, 2, 1 << 30)]:
        with budgets(*budget):
            for rows in (None, np.array([], dtype=np.int64), np.array([0, 2, 4]),
                         np.array([4, 1, 1, 0])):
                check_all(a, b, rows, None)
                check_all(a, b, rows, np.zeros(4, dtype=bool))
    e = esc_multiply(a, b, np.array([], dtype=np.int64))
    assert e.result.nnz == 0 and e.stats.row_work.size == 0


def test_single_column_output():
    a = powerlaw_matrix(60, alpha=2.3, target_nnz=300, rng=8)
    b = csr((60, 1), np.arange(60), np.zeros(60, dtype=np.int64),
            np.linspace(-1.0, 1.0, 60))
    for budget in [(1, 1, 0), (3, 10, 8), (1 << 20, 1 << 16, 8)]:
        with budgets(*budget):
            check_all(a, b, None, None)
            check_all(a, b, np.array([7, 2, 7, 59]), np.arange(60) % 2 == 0)


@pytest.mark.parametrize("ncols", [1 << 40, 1 << 62])
def test_very_wide_output(ncols):
    """A few nnz spread over ≥ 2^40 columns: each row is its own block,
    and at 2^62 the packed (cell, position) key no longer fits in 63
    bits, so the block falls back to a stable argsort."""
    rng = np.random.default_rng(3)
    b_cols = np.sort(rng.choice(ncols - 1, size=6, replace=False))
    b_rows = [0, 0, 1, 2, 2, 2]
    b = csr((3, ncols), b_rows, b_cols, [1.0, -0.0, 2.5, 0.0, -1.0, 3.0])
    a = csr((4, 3), [0, 0, 1, 1, 1, 3], [0, 2, 0, 1, 2, 2],
            [1.0, -1.0, 0.5, 0.0, 2.0, -0.0])
    for budget in [(1, 1, 0), (1 << 20, 1 << 16, 8), (8, 2, 1 << 30)]:
        with budgets(*budget):
            check_all(a, b, None, None, with_scipy=False)
            check_all(a, b, np.array([1, 0, 1, 3]), np.array([True, False, True]),
                      with_scipy=False)


def _counters(prefix, run):
    METRICS.reset()
    METRICS.enabled = True
    try:
        run()
        return METRICS.prefixed(prefix)
    finally:
        METRICS.reset()
        METRICS.enabled = False


def test_fast_paths_record_the_reference_metrics():
    """SPA's reset counters and hash's probe counters do not depend on
    how the fast paths block the rows."""
    a = powerlaw_matrix(120, alpha=2.2, target_nnz=700, hub_bias=0.4, rng=6)
    rows = np.r_[np.arange(0, 120, 3), [5, 5, 60]]
    mask = np.arange(120) % 4 != 1
    with budgets(40, 16, 8):
        for kw in ({}, {"b_row_mask": mask}):
            spa = _counters("kernels.spa.", lambda: spa_multiply(
                a, a, rows, row_block=3, **kw))
            assert spa == _counters("kernels.spa.", lambda: spa_multiply(
                a, a, rows, row_block=None, **kw))
            assert spa["kernels.spa.resets"] > 0
            fast = _counters("kernels.hash.", lambda: hash_multiply(a, a, rows, **kw))
            assert fast == _counters("kernels.hash.", lambda: hash_multiply(
                a, a, rows, slow=True, **kw))
