"""Bit-identity of the vectorised kernel fast paths vs their scalar
references, CSR derived-array caching, and the vectorised workqueue
bookkeeping.

The contract under test: the batched hash and SPA paths, the ESC
compress, and scipy's ``csr_matmat`` all accumulate each output
element's intermediate products in k-major stream order seeded at +0.0,
so their results are **bit-for-bit** equal (``np.array_equal``, not
``allclose``) — including on empty rows, dense rows, masked B rows,
row selections with duplicates, and power-law shapes.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
import hypothesis.extra.numpy as hnp

from repro.formats import CSRMatrix
from repro.hetero.workqueue import DoubleEndedWorkQueue, WorkUnit, chunk_rows
from repro.kernels import esc_multiply, hash_multiply, spa_multiply
from repro.kernels import esc as esc_mod
from repro.scalefree import powerlaw_matrix
from repro.util.errors import SchedulingError

# -- strategies ------------------------------------------------------------

_ELEMS = st.sampled_from([0.0, 0.0, 1.0, -1.0, 0.5, 3.0, 0.1])


@st.composite
def product_instance(draw, max_dim=8):
    """(A, B, a_rows, b_row_mask) with empty/dense rows, duplicate row
    selections, and partial masks all reachable."""
    m = draw(st.integers(1, max_dim))
    p = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_dim))
    a = draw(hnp.arrays(np.float64, (m, p), elements=_ELEMS))
    b = draw(hnp.arrays(np.float64, (p, n), elements=_ELEMS))
    rows = draw(st.one_of(
        st.none(),
        st.lists(st.integers(0, m - 1), min_size=0, max_size=m + 2)
        .map(lambda xs: np.asarray(xs, dtype=np.int64)),
    ))
    mask = draw(st.one_of(st.none(), hnp.arrays(np.bool_, (p,))))
    return CSRMatrix.from_dense(a), CSRMatrix.from_dense(b), rows, mask


def assert_bit_identical(r1, r2):
    np.testing.assert_array_equal(r1.result.row, r2.result.row)
    np.testing.assert_array_equal(r1.result.col, r2.result.col)
    np.testing.assert_array_equal(r1.result.data, r2.result.data)
    assert r1.stats.a_entries == r2.stats.a_entries
    assert r1.stats.total_work == r2.stats.total_work
    assert r1.stats.tuples_emitted == r2.stats.tuples_emitted
    np.testing.assert_array_equal(r1.stats.row_work, r2.stats.row_work)


# -- vectorised fast paths vs scalar references ----------------------------

@given(product_instance())
@settings(max_examples=120, deadline=None)
def test_hash_fast_bit_identical_to_dict_walk(inst):
    a, b, rows, mask = inst
    fast = hash_multiply(a, b, a_rows=rows, b_row_mask=mask)
    slow = hash_multiply(a, b, a_rows=rows, b_row_mask=mask, slow=True)
    assert_bit_identical(fast, slow)


@given(product_instance(), st.integers(1, 5))
@settings(max_examples=120, deadline=None)
def test_spa_batched_bit_identical_to_rowwise(inst, row_block):
    a, b, rows, mask = inst
    batched = spa_multiply(a, b, a_rows=rows, b_row_mask=mask, row_block=row_block)
    rowwise = spa_multiply(a, b, a_rows=rows, b_row_mask=mask, row_block=None)
    assert_bit_identical(batched, rowwise)


@given(product_instance())
@settings(max_examples=80, deadline=None)
def test_cross_kernel_bit_identity_without_duplicate_rows(inst):
    """hash == spa == esc bit-for-bit whenever the row selection has no
    duplicate occurrences (with duplicates, esc merges across
    occurrences while hash/spa emit one run per occurrence)."""
    a, b, rows, mask = inst
    if rows is not None and np.unique(rows).size != rows.size:
        rows = np.unique(rows)
    h = hash_multiply(a, b, a_rows=rows, b_row_mask=mask)
    s = spa_multiply(a, b, a_rows=rows, b_row_mask=mask)
    e = esc_multiply(a, b, a_rows=rows, b_row_mask=mask)
    np.testing.assert_array_equal(h.result.todense(), s.result.todense())
    np.testing.assert_array_equal(h.result.todense(), e.result.todense())


def test_kernels_bit_identical_to_scipy_on_powerlaw():
    """The acceptance contract: every kernel's A@A on a power-law input
    equals scipy bit-for-bit (same k-major accumulation order)."""
    a = powerlaw_matrix(1200, alpha=2.5, target_nnz=10_000, hub_bias=0.4, rng=31)
    ref = (a.to_scipy().tocsr() @ a.to_scipy().tocsr()).tocsr()
    ref.sort_indices()
    for kernel in (hash_multiply, spa_multiply, esc_multiply):
        got = kernel(a, a).result.tocsr()
        np.testing.assert_array_equal(got.indptr, ref.indptr)
        np.testing.assert_array_equal(got.indices, ref.indices)
        np.testing.assert_array_equal(got.data, ref.data)


@pytest.mark.parametrize("path", ["dense", "packed", "stable"])
def test_accumulate_rows_is_stream_ordered(path):
    """Each group sums left-to-right in stream order, seeded at +0.0 —
    the exact float the scalar ``acc.get(k, 0.0) + v`` walk produces —
    on each of the block accumulator's paths, forced."""
    rng = np.random.default_rng(5)
    n = 4000
    ids = np.sort(rng.integers(0, 5, size=n))
    keys = rng.integers(0, 10, size=n)
    vals = rng.standard_normal(n)
    # B row e holds the single entry (e, keys[e]) = vals[e], so scaling
    # it by 1.0 streams exactly (ids[e], keys[e], vals[e])
    ncols = (1 << 62) if path == "stable" else 10
    b = CSRMatrix((n, ncols), np.arange(n + 1), keys, vals)
    work = np.bincount(ids, minlength=5)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(esc_mod, "DENSE_FILL", 1 << 20 if path == "dense" else 0)
        out_ids, out_cols, sums = esc_mod.accumulate_rows(
            ids, np.arange(n), np.ones(n), b, work)
    assert np.all(np.diff(out_ids * 10 + out_cols) > 0)
    for i, key, total in zip(out_ids, out_cols, sums):
        acc = 0.0
        for v in vals[(ids == i) & (keys == key)]:
            acc += v
        assert acc == total  # bitwise float equality, on purpose
    assert len(sums) == len(set(zip(ids.tolist(), keys.tolist())))


def test_spa_row_block_validation():
    a = CSRMatrix.from_dense(np.eye(3))
    with pytest.raises(ValueError, match="row_block"):
        spa_multiply(a, a, row_block=0)


# -- CSR derived-array caching ---------------------------------------------

def test_row_nnz_cached_and_readonly():
    a = CSRMatrix.from_dense(np.arange(12.0).reshape(3, 4))
    first = a.row_nnz()
    assert a.row_nnz() is first  # memoised
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0] = 99


def test_cache_invalidates_when_indptr_rebound():
    a = CSRMatrix.from_dense(np.ones((3, 3)))
    stale = a.row_nnz()
    np.testing.assert_array_equal(stale, [3, 3, 3])
    dense = np.zeros((3, 3))
    dense[0, 0] = 1.0
    fresh = CSRMatrix.from_dense(dense)
    # simulate in-place structural mutation by rebinding the arrays
    a.indptr, a.indices, a.data = fresh.indptr, fresh.indices, fresh.data
    np.testing.assert_array_equal(a.row_nnz(), [1, 0, 0])
    np.testing.assert_array_equal(a.expanded_rows(), [0])


def test_cache_never_leaks_across_instances():
    a = CSRMatrix.from_dense(np.ones((2, 2)))
    b = CSRMatrix.from_dense(np.zeros((2, 2)))
    ra, rb = a.row_nnz(), b.row_nnz()
    np.testing.assert_array_equal(ra, [2, 2])
    np.testing.assert_array_equal(rb, [0, 0])
    assert ra is not rb
    assert a.row_nnz() is ra and b.row_nnz() is rb


def test_squared_row_work_matches_manual():
    a = powerlaw_matrix(200, alpha=2.5, target_nnz=1_000, rng=3)
    expected = np.array(
        [a.row_nnz()[a.row_slice(i)[0]].sum() for i in range(a.nrows)],
        dtype=np.int64,
    )
    np.testing.assert_array_equal(a.squared_row_work(), expected)
    assert a.squared_row_work() is a.squared_row_work()


# -- vectorised workqueue bookkeeping --------------------------------------

def _reference_pop_back_batch(queue, max_rows):
    """The original scalar merge loop, kept as the test oracle."""
    first = queue.pop_back()
    popped = [first]
    n = first.nrows
    while (
        queue.has_work()
        and queue.units[queue._back].product == first.product
        and n + queue.units[queue._back].nrows <= max_rows
    ):
        nxt = queue.pop_back()
        popped.append(nxt)
        n += nxt.nrows
    if len(popped) == 1:
        return first
    return WorkUnit(
        product=first.product,
        rows=np.concatenate([u.rows for u in popped]),
        index=first.index,
        parts=tuple(popped),
    )


@given(
    st.integers(0, 40), st.integers(0, 40),
    st.integers(1, 7), st.integers(1, 7), st.integers(1, 30),
)
@settings(max_examples=120, deadline=None)
def test_pop_back_batch_matches_reference_loop(n_front, n_back, cpu_rows,
                                               gpu_rows, max_rows):
    build = lambda: DoubleEndedWorkQueue.build(
        np.arange(n_front), np.arange(n_back),
        cpu_rows=cpu_rows, gpu_rows=gpu_rows,
    )
    q1, q2 = build(), build()
    while q1.has_work():
        u1 = q1.pop_back_batch(max_rows)
        u2 = _reference_pop_back_batch(q2, max_rows)
        assert u1.product == u2.product
        assert u1.index == u2.index
        np.testing.assert_array_equal(u1.rows, u2.rows)
        assert len(u1.members) == len(u2.members)
        assert q1.log == q2.log
        assert q1.remaining == q2.remaining
    assert not q2.has_work()
    q1.check_conservation()
    q2.check_conservation()


def test_requeue_withdraws_most_recent_log_entries():
    q = DoubleEndedWorkQueue.build(np.arange(6), np.arange(20),
                                   cpu_rows=2, gpu_rows=10)
    front_unit = q.pop_front()
    batch = q.pop_back_batch(10_000)
    log_before = list(q.log)
    q.requeue(batch, end="back")
    # only the batch members' entries are withdrawn, the front pop stays
    assert q.log == [entry for entry in log_before if entry[0] == "front"]
    # the restored units sit in their original slots: draining again works
    while q.has_work():
        q.pop_front()
    q.check_conservation()


def test_requeue_never_dequeued_unit_raises():
    q = DoubleEndedWorkQueue.build(np.arange(4), np.arange(4),
                                   cpu_rows=2, gpu_rows=2)
    stranger = WorkUnit(product="AL_BH", rows=np.arange(2), index=99)
    q.pop_front()
    with pytest.raises(SchedulingError, match="never dequeued"):
        q.requeue(stranger, end="front")
    # failed requeue must not have corrupted the log
    q.pop_front()
    q.pop_back()
    q.pop_back()
    q.check_conservation()


def test_requeue_empty_log_raises():
    q = DoubleEndedWorkQueue(units=chunk_rows(np.arange(4), 2, "AL_BH"))
    unit = WorkUnit(product="AL_BH", rows=np.arange(2), index=0)
    with pytest.raises(SchedulingError):
        q.requeue(unit, end="front")
