"""Adaptive row-regime spmm — per-row accumulator selection.

Nagasaka et al. (PAPERS.md, the KNL paper) show that no single
accumulator wins across a scale-free row-length distribution: dense
hub rows want a flat (SPA-style) accumulator, the power-law bulk wants
hashing, and near-empty rows just want the cheapest path through.  This
module implements that selection as a **two-pass scheme** on top of the
backend registry:

1. *Symbolic pass* — :func:`repro.kernels.symbolic.estimate_work` gives
   the per-row intermediate-product counts in O(nnz(A)), which also
   upper-bound every allocation made below (flat buffers, expansion
   arrays, output).
2. *Numeric pass* — rows are binned into three regimes by estimate
   (thresholds from :class:`repro.backends.spec.BackendSpec`):

   - **short**  (work ≤ ``short_max``)          → the backend's ESC kernel;
   - **medium** (between)                        → the backend's hash kernel;
   - **dense**  (work ≥ ``dense_fill``·ncols)    → an internal *flat SPA*:
     blocks of rows scatter-accumulate (``np.bincount`` with weights —
     a single in-order C loop, the same accumulation order as
     ``np.add.at`` and the scalar walk) into one 1-D dense buffer of
     ``rows_per_block · ncols`` cells, and touched cells come back out
     already (row, col)-sorted via a boolean mask + ``flatnonzero``.

Because the regimes partition the rows (each row lands in exactly one —
property-tested), the partial results are row-disjoint and each is
(row, col)-sorted with k-major accumulation, so the final merge is a
linear offset-scatter (no global sort) and the result is **bit-identical
to the single-kernel paths** whenever the base backend is ordered.
Partial results travel as *counted* streams — ``(rows, per-row counts,
cols, vals)`` with unique rows per part — so neither the flat path nor
the merge ever materialises a per-tuple row-id array for the hub rows.

On the hub-stress workload this beats the single-kernel numpy hash path
by ≥1.3x median (bench-gated): hub rows reduce in one flat buffer
scatter plus a linear sweep instead of the hash path's per-block
accumulator, and short rows stop being dragged through hub-sized
temporaries.
"""

from __future__ import annotations

import numpy as np

from repro.formats.base import INDEX_DTYPE, VALUE_DTYPE, check_multiply_compatible
from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from repro.kernels.esc import KernelResult, _select_a_entries
from repro.kernels.symbolic import KernelStats, estimate_work, reuse_curve
from repro.obs.metrics import METRICS
from repro.util.errors import ShapeError

from repro.backends.registry import get_backend
from repro.backends.spec import BackendSpec, resolve_spec

#: regime names in processing order
REGIMES = ("short", "medium", "dense")


def partition_rows(
    row_work: np.ndarray, ncols: int, spec: BackendSpec
) -> dict[str, np.ndarray]:
    """Bin rows into regimes by estimated intermediate-product count.

    ``row_work[i]`` is the estimate for the i-th *candidate* row (the
    caller aligns it with its row-id array).  Returns boolean masks per
    regime; the three masks partition the input (each row in exactly
    one regime — the Hypothesis suite asserts this).
    """
    work = np.asarray(row_work)
    dense_thresh = max(spec.dense_fill * ncols, spec.short_max + 1)
    short = work <= spec.short_max
    dense = (~short) & (work >= dense_thresh)
    medium = ~(short | dense)
    return {"short": short, "medium": medium, "dense": dense}


def _counted(
    r: np.ndarray, c: np.ndarray, d: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Convert a tuple stream with unique rows (contiguous per-row runs)
    into a counted part ``(rows, per-row counts, cols, vals)``."""
    if not r.size:
        return r, r.copy(), c, d
    head = np.empty(r.size, dtype=bool)
    head[0] = True
    np.not_equal(r[1:], r[:-1], out=head[1:])
    starts = np.flatnonzero(head)
    runlens = np.diff(np.append(starts, r.size)).astype(INDEX_DTYPE)
    return r[starts], runlens, c, d


def _dense_regime(
    a: CSRMatrix,
    b: CSRMatrix,
    rows: np.ndarray,
    mask: np.ndarray | None,
    spec: BackendSpec,
) -> tuple[
    list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]],
    np.ndarray, int, int,
]:
    """Flat-SPA path for the dense regime.

    Processes ``rows`` in blocks bounded by ``spec.cells_budget``
    accumulator cells; per block, every intermediate product scatters
    into one 1-D buffer (k-major per row — ``np.bincount`` with weights
    is a single in-order C loop, the same accumulation order as
    ``np.add.at`` and the scalar SPA walk), and the touched-cell sweep
    emits each row's output already column-sorted.  Returns one counted
    part per non-empty block (blocks are row-disjoint by construction)
    plus ``(per_row_work, a_entries, tuples)``; per-tuple row ids are
    never materialised — the merge works from the counts.
    """
    ncols = int(b.ncols)
    a_sizes = a.row_nnz()
    b_sizes = b.row_nnz()
    idx_ncols = INDEX_DTYPE(max(ncols, 1))
    rows_per_block = max(1, int(spec.cells_budget) // max(ncols, 1))
    parts: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
    occ_work = np.zeros(rows.size, dtype=INDEX_DTYPE)
    a_entries = 0
    tuples = 0
    for lo in range(0, rows.size, rows_per_block):
        blk = rows[lo : lo + rows_per_block]
        counts = a_sizes[blk]
        na = int(counts.sum())
        seg = np.zeros(blk.size, dtype=INDEX_DTYPE)
        np.cumsum(counts[:-1], out=seg[1:])
        sel = np.repeat(a.indptr[blk] - seg, counts) + np.arange(na, dtype=INDEX_DTYPE)
        pos = np.repeat(np.arange(blk.size, dtype=INDEX_DTYPE), counts)
        ks = a.indices[sel]
        avals = a.data[sel]
        if mask is not None:
            keep = mask[ks]
            pos, ks, avals = pos[keep], ks[keep], avals[keep]
        a_entries += int(ks.size)
        cnt = b_sizes[ks]
        total = int(cnt.sum())
        occ_work[lo : lo + blk.size] = np.bincount(
            pos, weights=cnt, minlength=blk.size
        ).astype(INDEX_DTYPE)
        if total == 0:
            continue
        bseg = np.zeros(ks.size, dtype=INDEX_DTYPE)
        np.cumsum(cnt[:-1], out=bseg[1:])
        src = np.repeat(b.indptr[ks] - bseg, cnt) + np.arange(total, dtype=INDEX_DTYPE)
        # flat (row-in-block, col) cell keys: fold ncols into the short
        # per-entry array before the expansion repeat
        keys = np.repeat(pos * idx_ncols, cnt) + b.indices[src]
        evals = np.repeat(avals, cnt) * b.data[src]
        ncells = blk.size * ncols
        # in-order weighted count == the np.add.at scatter, minus the
        # ufunc dispatch per element (bit-identical, property-tested)
        buf = np.bincount(keys, weights=evals, minlength=ncells)
        touched = np.zeros(ncells, dtype=bool)
        touched[keys] = True
        nz = np.flatnonzero(touched)
        # row boundaries inside the touched-cell list, without a divmod
        # over all cells
        bounds = np.searchsorted(
            nz, np.arange(1, blk.size, dtype=INDEX_DTYPE) * idx_ncols
        )
        rcounts = np.diff(np.concatenate(([0], bounds, [nz.size]))).astype(INDEX_DTYPE)
        cols = nz - np.repeat(np.arange(blk.size, dtype=INDEX_DTYPE) * idx_ncols, rcounts)
        parts.append((blk, rcounts, cols.astype(INDEX_DTYPE, copy=False), buf[nz]))
        tuples += int(nz.size)
    return parts, occ_work, a_entries, tuples


def _merge_disjoint(
    nrows: int,
    parts: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge row-disjoint counted parts (unique rows, per-row counts,
    column-sorted runs) into one globally (row, col)-sorted tuple stream
    in O(nnz) — offsets + scatter, no global sort."""
    row_counts = np.zeros(nrows, dtype=INDEX_DTYPE)
    for ur, cnts, _, _ in parts:
        if ur.size:
            row_counts[ur] = cnts  # parts are row-disjoint: plain scatter
    offsets = np.zeros(nrows, dtype=INDEX_DTYPE)
    np.cumsum(row_counts[:-1], out=offsets[1:])
    total = int(row_counts.sum())
    out_r = np.repeat(np.arange(nrows, dtype=INDEX_DTYPE), row_counts)
    out_c = np.empty(total, dtype=INDEX_DTYPE)
    out_d = np.empty(total, dtype=VALUE_DTYPE)
    for ur, cnts, c, d in parts:
        if not c.size:
            continue
        starts = np.zeros(ur.size, dtype=INDEX_DTYPE)
        np.cumsum(cnts[:-1], out=starts[1:])
        ramp = np.arange(c.size, dtype=INDEX_DTYPE) - np.repeat(starts, cnts)
        dest = np.repeat(offsets[ur], cnts) + ramp
        out_c[dest] = c
        out_d[dest] = d
    return out_r, out_c, out_d


def adaptive_multiply(
    a: CSRMatrix,
    b: CSRMatrix,
    a_rows: np.ndarray | None = None,
    b_row_mask: np.ndarray | None = None,
    *,
    spec: "BackendSpec | str | None" = None,
) -> KernelResult:
    """Regime-selected product ``A[a_rows, :] @ B*mask``.

    Conventions match :func:`repro.kernels.esc.esc_multiply`.  ``spec``
    picks the base backend executing the short/medium regimes and the
    regime thresholds; the dense regime always runs the internal flat
    accumulator.  Results are bit-identical to the single-kernel paths
    when the base backend declares ``ordered=True`` and ``a_rows`` is
    sorted (all pipeline selections are contiguous ranges); an unsorted
    selection still yields the same matrix, but canonically row-sorted
    where the single kernels emit occurrence order.
    """
    check_multiply_compatible(a, b)
    spec = resolve_spec(spec)
    base = get_backend(spec.backend)
    rows_iter = (
        np.arange(a.nrows, dtype=INDEX_DTYPE)
        if a_rows is None
        else np.asarray(a_rows, dtype=INDEX_DTYPE)
    )
    if rows_iter.size and (rows_iter.min() < 0 or rows_iter.max() >= a.nrows):
        raise ShapeError("a_rows selection out of range")
    if rows_iter.size and np.unique(rows_iter).size != rows_iter.size:
        # repeated rows break the disjoint-merge invariant; such
        # selections only occur in differential tests — take the single
        # -kernel path, which handles per-occurrence emission
        return base.hash_multiply(a, b, rows_iter, b_row_mask)
    mask = None
    if b_row_mask is not None:
        mask = np.asarray(b_row_mask, dtype=bool)
        if mask.shape != (b.nrows,):
            raise ShapeError(f"b_row_mask must have shape ({b.nrows},), got {mask.shape}")

    # pass 1 (symbolic): O(nnz(A)) per-row estimates drive the binning
    # and upper-bound every allocation below
    work = estimate_work(a, b).row_work[rows_iter]
    regimes = partition_rows(work, int(b.ncols), spec)
    short = rows_iter[regimes["short"]]
    medium = rows_iter[regimes["medium"]]
    dense = rows_iter[regimes["dense"]]

    if METRICS.enabled:
        METRICS.inc("backend.adaptive.launches")
        METRICS.inc("backend.adaptive.regime.short.rows", int(short.size))
        METRICS.inc("backend.adaptive.regime.medium.rows", int(medium.size))
        METRICS.inc("backend.adaptive.regime.dense.rows", int(dense.size))

    # pass 2 (numeric): one kernel per populated regime
    parts: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
    row_work_parts: list[np.ndarray] = []
    a_entries = 0
    tuples = 0
    if short.size:
        kr = base.esc_multiply(a, b, short, b_row_mask)
        parts.append(_counted(kr.result.row, kr.result.col, kr.result.data))
        row_work_parts.append(kr.stats.row_work)
        a_entries += kr.stats.a_entries
        tuples += kr.stats.tuples_emitted
    if medium.size:
        kr = base.hash_multiply(a, b, medium, b_row_mask)
        parts.append(_counted(kr.result.row, kr.result.col, kr.result.data))
        row_work_parts.append(kr.stats.row_work)
        a_entries += kr.stats.a_entries
        tuples += kr.stats.tuples_emitted
    if dense.size:
        d_parts, d_work, d_entries, d_tuples = _dense_regime(
            a, b, dense, mask, spec
        )
        parts.extend(d_parts)
        row_work_parts.append(d_work)
        a_entries += d_entries
        tuples += d_tuples

    shape = (a.nrows, b.ncols)
    if parts and any(p[2].size for p in parts):
        out_r, out_c, out_d = _merge_disjoint(a.nrows, parts)
        result = COOMatrix(shape, out_r, out_c, out_d, validate=False)
    else:
        result = COOMatrix.empty(shape)

    # reuse accounting over the whole selection (the per-regime curves
    # do not compose, so recompute the reference counts in one pass)
    sel, _ = _select_a_entries(a, rows_iter)
    ks = a.indices[sel]
    if mask is not None and ks.size:
        ks = ks[mask[ks]]
    b_row_refs = np.bincount(ks, minlength=b.nrows).astype(INDEX_DTYPE)
    all_row_work = (
        np.concatenate(row_work_parts)
        if row_work_parts
        else np.zeros(0, dtype=INDEX_DTYPE)
    )
    stats = KernelStats.for_product(
        a_entries, all_row_work, tuples, result.nnz,
        b_reuse_curve=reuse_curve(b_row_refs, b.row_nnz()),
    )
    return KernelResult(result=result, stats=stats)
