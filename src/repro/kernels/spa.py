"""SPA (sparse accumulator) spmm kernel — the CPU-shaped Gustavson walk.

One output row at a time, scatter-accumulating scaled B rows into a
dense accumulator of width ``N`` (the paper's ``PartialOutput``) and
tracking touched columns (the paper's ``NonZeroIndices``).  This is the
classical Gustavson [7] row-row algorithm and is the per-row procedure
both devices execute conceptually; the cache-friendliness difference
between dense and sparse rows is what the CPU cost model keys on.

Numerically identical to :func:`repro.kernels.esc.esc_multiply`
(property-tested); the ESC kernel is preferred on large inputs because
it vectorises, while SPA is clearer and faster for very dense rows.

Two execution paths share the same semantics:

- ``row_block=None`` — the reference per-row Python loop (one dense
  scatter + targeted reset per output row);
- ``row_block=k`` (default ``DEFAULT_ROW_BLOCK``) — a **batched
  multi-row fast path** that reduces the expanded products of up to
  ``k`` A-rows at a time through the ESC kernel's row-block accumulator
  (:func:`repro.kernels.esc.accumulate_rows`).  Because both paths
  accumulate each output column's intermediate products in k-major
  order from +0.0, the two are bit-identical (property-tested), and
  both match scipy's SPA.
"""

from __future__ import annotations

import numpy as np

from repro.formats.base import INDEX_DTYPE, VALUE_DTYPE, check_multiply_compatible
from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from repro.kernels.esc import KernelResult, check_row_mask, row_product
from repro.kernels.symbolic import KernelStats, reuse_curve
from repro.obs.metrics import METRICS
from repro.util.errors import ShapeError

#: rows per batched gather; bounds the expansion working set while
#: amortising the per-launch numpy overhead over many rows
DEFAULT_ROW_BLOCK = 512


def spa_multiply(
    a: CSRMatrix,
    b: CSRMatrix,
    a_rows: np.ndarray | None = None,
    b_row_mask: np.ndarray | None = None,
    *,
    row_block: int | None = DEFAULT_ROW_BLOCK,
) -> KernelResult:
    """Gustavson product ``A[a_rows, :] @ B*mask``.

    Parameters mirror :func:`repro.kernels.esc.esc_multiply`; see there
    for tuple coordinate conventions.  ``row_block=None`` selects the
    per-row reference loop; an integer processes that many A rows per
    batched scatter (bit-identical results either way).
    """
    check_multiply_compatible(a, b)
    mask = check_row_mask(b, b_row_mask)
    rows_iter = (
        np.arange(a.nrows, dtype=INDEX_DTYPE)
        if a_rows is None
        else np.asarray(a_rows, dtype=INDEX_DTYPE)
    )
    if rows_iter.size and (rows_iter.min() < 0 or rows_iter.max() >= a.nrows):
        raise ShapeError("a_rows selection out of range")
    if row_block is not None and row_block <= 0:
        raise ValueError(f"row_block must be positive or None, got {row_block}")
    if row_block is None:
        return _spa_rowwise(a, b, rows_iter, mask)
    return _spa_batched(a, b, rows_iter, mask, int(row_block))


def _finish(
    a: CSRMatrix,
    b: CSRMatrix,
    rows_iter: np.ndarray,
    *,
    result: COOMatrix,
    a_entries: int,
    row_work: np.ndarray,
    tuples_emitted: int,
    spa_resets: int,
    spa_reset_slots: int,
    b_row_refs: np.ndarray,
    b_sizes: np.ndarray,
) -> KernelResult:
    stats = KernelStats.for_product(
        a_entries, row_work, tuples_emitted, result.nnz,
        b_reuse_curve=reuse_curve(b_row_refs, b_sizes),
    )
    if METRICS.enabled:
        METRICS.inc("kernels.spa.launches")
        METRICS.inc("kernels.spa.flops", stats.flops)
        METRICS.inc("kernels.spa.resets", spa_resets)
        METRICS.inc("kernels.spa.reset_slots", spa_reset_slots)
    return KernelResult(result=result, stats=stats)


def _spa_rowwise(
    a: CSRMatrix,
    b: CSRMatrix,
    rows_iter: np.ndarray,
    mask: np.ndarray | None,
) -> KernelResult:
    """Reference path: one dense scatter/reset per output row."""
    n = b.ncols
    spa = np.zeros(n, dtype=VALUE_DTYPE)  # PartialOutput
    out_rows: list[np.ndarray] = []
    out_cols: list[np.ndarray] = []
    out_vals: list[np.ndarray] = []
    per_row_work = np.zeros(a.nrows, dtype=INDEX_DTYPE)
    tuples_emitted = 0
    a_entries = 0
    spa_resets = 0
    spa_reset_slots = 0
    b_sizes = b.row_nnz()
    b_row_refs = np.zeros(b.nrows, dtype=INDEX_DTYPE)

    for i in rows_iter:
        acols, avals = a.row_slice(int(i))
        if mask is not None and acols.size:
            keep = mask[acols]
            acols, avals = acols[keep], avals[keep]
        a_entries += int(acols.size)
        if acols.size == 0:
            continue
        np.add.at(b_row_refs, acols, 1)
        # Gather all referenced B segments for this row at once, then
        # scatter-accumulate into the SPA.
        cnt = b_sizes[acols]
        total = int(cnt.sum())
        per_row_work[i] = total
        if total == 0:
            continue
        starts = np.repeat(b.indptr[acols], cnt)
        seg_starts = np.zeros(acols.size, dtype=INDEX_DTYPE)
        np.cumsum(cnt[:-1], out=seg_starts[1:])
        ramp = np.arange(total, dtype=INDEX_DTYPE) - np.repeat(seg_starts, cnt)
        src = starts + ramp
        touched_cols = b.indices[src]
        np.add.at(spa, touched_cols, np.repeat(avals, cnt) * b.data[src])
        # NonZeroIndices: unique touched columns, already sorted
        nz = np.unique(touched_cols)
        vals = spa[nz]
        spa[nz] = 0.0  # reset only what we touched (cache-friendly)
        spa_resets += 1
        spa_reset_slots += int(nz.size)
        out_rows.append(np.full(nz.size, i, dtype=INDEX_DTYPE))
        out_cols.append(nz)
        out_vals.append(vals.copy())
        tuples_emitted += int(nz.size)

    shape = (a.nrows, b.ncols)
    if out_rows:
        result = COOMatrix(
            shape,
            np.concatenate(out_rows),
            np.concatenate(out_cols),
            np.concatenate(out_vals),
            validate=False,
        )
    else:
        result = COOMatrix.empty(shape)
    return _finish(
        a, b, rows_iter,
        result=result,
        a_entries=a_entries,
        row_work=per_row_work[rows_iter],
        tuples_emitted=tuples_emitted,
        spa_resets=spa_resets,
        spa_reset_slots=spa_reset_slots,
        b_row_refs=b_row_refs,
        b_sizes=b_sizes,
    )


def _spa_batched(
    a: CSRMatrix,
    b: CSRMatrix,
    rows_iter: np.ndarray,
    mask: np.ndarray | None,
    row_block: int,
) -> KernelResult:
    """Fast path: reduce blocks of at most ``row_block`` A rows at once.

    The occurrence-keyed product stream goes through the ESC kernel's
    row-block accumulator, which sums each output column in the
    paper's ``PartialOutput`` order (k-major per row) from +0.0, so
    values are bit-identical to the per-row walk.
    """
    prod = row_product(a, b, rows_iter, mask, merge_repeats=False, max_rows=row_block)
    result = COOMatrix(
        (a.nrows, b.ncols), rows_iter[prod.ids], prod.cols, prod.vals, validate=False
    )
    # stats bookkeeping equals the per-row walk's: one conceptual
    # accumulator reset per row that produced work, one cleared slot
    # per emitted tuple
    return _finish(
        a, b, rows_iter,
        result=result,
        a_entries=prod.a_entries,
        row_work=prod.work,
        tuples_emitted=result.nnz,
        spa_resets=int(np.count_nonzero(prod.work)),
        spa_reset_slots=result.nnz,
        b_row_refs=prod.b_row_refs,
        b_sizes=b.row_nnz(),
    )
