"""ESC (expand – sort – compress) spmm kernel and the row-block accumulator.

This is the vectorised, GPU-shaped kernel: it materialises every
intermediate product ``A[i,k] * B[k,j]`` as a ``<r, c, v>`` tuple
(*expand*), orders the tuple stream by (row, column) (*sort*), and
reduces like-tuples (*compress*).  It mirrors how the paper's GPU
algorithm emits per-row partial outputs.

On the host the three phases run per **row block**
(:func:`accumulate_rows`): consecutive output rows are expanded,
accumulated and emitted together while every temporary stays about
L2-sized, and each block picks the accumulator its fill suits — a
dense bitmap + slot map where the block's ``rows × ncols`` cells are
few per tuple, an in-cache sort of packed keys where they are not.
The hash and SPA fast paths reduce through the same function, so one
compress mechanism serves all three kernels.

All kernels accept an optional row restriction on ``A`` (Phase III
work-units are contiguous row ranges) and an optional boolean row mask
on ``B`` (the Phase I high/low classification): masked-out B rows are
treated as zero rows, which matches multiplying by :math:`B_H` or
:math:`B_L` without physically splitting ``B``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.formats.base import INDEX_DTYPE, VALUE_DTYPE, check_multiply_compatible
from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from repro.kernels.symbolic import KernelStats, reuse_curve
from repro.obs.metrics import METRICS
from repro.util.errors import ShapeError

#: accumulator cells (block rows × ``ncols``) a row block may span
BLOCK_CELLS = 1 << 20
#: intermediate products a row block may expand
BLOCK_TUPLES = 1 << 16
#: a block takes the dense path when its cells are at most this many
#: times its tuples
DENSE_FILL = 8


@dataclass(frozen=True)
class KernelResult:
    """A numeric kernel's output tuples plus its workload accounting."""

    #: row-locally merged <r, c, v> tuples in full-C coordinates
    result: COOMatrix
    stats: KernelStats


def check_row_mask(b: CSRMatrix, b_row_mask) -> np.ndarray | None:
    """``b_row_mask`` as a boolean array over B's rows (or ``None``)."""
    if b_row_mask is None:
        return None
    mask = np.asarray(b_row_mask, dtype=bool)
    if mask.shape != (b.nrows,):
        raise ShapeError(f"b_row_mask must have shape ({b.nrows},), got {mask.shape}")
    return mask


def _select_a_entries(a: CSRMatrix, a_rows: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Return (entry indices into ``a.indices``/``a.data``, the position
    in ``a_rows`` of each entry's row — the row id when ``a_rows`` is
    ``None``)."""
    if a_rows is None:
        sel = np.arange(a.nnz, dtype=INDEX_DTYPE)
        pos = np.repeat(np.arange(a.nrows, dtype=INDEX_DTYPE), a.row_nnz())
        return sel, pos
    a_rows = np.asarray(a_rows, dtype=INDEX_DTYPE)
    if a_rows.size and (a_rows.min() < 0 or a_rows.max() >= a.nrows):
        raise ShapeError("a_rows selection out of range")
    counts = a.row_nnz()[a_rows]
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=INDEX_DTYPE), np.empty(0, dtype=INDEX_DTYPE)
    # intra-segment ramp: global position minus segment start position
    seg_starts = np.cumsum(counts) - counts
    sel = np.arange(total, dtype=INDEX_DTYPE) + np.repeat(a.indptr[a_rows] - seg_starts, counts)
    pos = np.repeat(np.arange(a_rows.size, dtype=INDEX_DTYPE), counts)
    return sel, pos


@dataclass(frozen=True)
class RowProduct:
    """``A[rows, :] @ B*mask`` reduced per output-row id."""

    #: ids, columns and sums of the output, in (id, column) order
    ids: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    #: A entries surviving the row/mask selection
    a_entries: int
    #: intermediate products per id
    work: np.ndarray
    #: reference counts per B row (how many selected A entries point at it)
    b_row_refs: np.ndarray


def row_product(
    a: CSRMatrix,
    b: CSRMatrix,
    rows: np.ndarray | None,
    mask: np.ndarray | None,
    *,
    merge_repeats: bool,
    max_rows: int | None = None,
) -> RowProduct:
    """Gather the selected A entries and reduce their products.

    With ``merge_repeats`` the output-row ids are A row ids, so repeated
    rows in ``rows`` merge into one output row (ESC's convention); the
    rows are stably sorted first, which keeps each row's stream in
    occurrence order.  Without it the ids are positions in ``rows``, so
    each occurrence emits its own run (the hash/SPA convention).
    """
    if rows is None or not merge_repeats:
        n_ids = a.nrows if rows is None else rows.size
        sel, pos = _select_a_entries(a, rows)
    else:
        n_ids = a.nrows
        if rows.size > 1 and bool(np.any(rows[1:] < rows[:-1])):
            rows = rows[np.argsort(rows, kind="stable")]
        sel, pos = _select_a_entries(a, rows)
        pos = rows[pos]
    ks = a.indices[sel]
    avals = a.data[sel]
    if mask is not None:
        keep = mask[ks]
        pos, ks, avals = pos[keep], ks[keep], avals[keep]
    work = np.bincount(
        pos, weights=b.row_nnz()[ks], minlength=n_ids
    ).astype(INDEX_DTYPE)
    ids, cols, vals = accumulate_rows(pos, ks, avals, b, work, max_rows=max_rows)
    return RowProduct(
        ids, cols, vals, int(ks.size), work,
        np.bincount(ks, minlength=b.nrows).astype(INDEX_DTYPE),
    )


def accumulate_rows(
    ids: np.ndarray,
    ks: np.ndarray,
    avals: np.ndarray,
    b: CSRMatrix,
    work: np.ndarray,
    *,
    max_rows: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expand and reduce ``sum_e avals[e] * B[ks[e], :]`` per owner id.

    ``ids`` (nondecreasing) owns each A entry ``(ks, avals)``, and
    ``work[i]`` is id ``i``'s intermediate-product count.  Returns
    ``(ids, cols, sums)`` of the output in (id, column) order.  Every
    sum is built in stream order (k-major per id) from +0.0 — the float
    a scalar ``acc[j] = acc.get(j, 0.0) + av * bv`` walk produces, and
    scipy's sequential ``csr_matmat`` too.

    The ids with work are walked in blocks.  A block ends on an id
    boundary before its ``rows × ncols`` cells pass :data:`BLOCK_CELLS`
    or its tuples pass :data:`BLOCK_TUPLES` (one oversized id is a block
    of its own; ``max_rows`` caps the rows further).  Each block then
    reduces with one of two bit-identical accumulators:

    - dense (cells ≤ :data:`DENSE_FILL` × tuples): a touched bitmap
      gives the sorted unique cells, a slot map gives each tuple its
      group, and ``np.bincount`` sums the groups in stream order;
    - sparse: one int64 per tuple packs ``(cell, position)``.  The
      packed values are unique, so an unstable sort orders the stream
      by cell and, within a cell, by position; the same ``bincount``
      reduces it.  A block too wide to pack uses a stable argsort.
    """
    worked = np.flatnonzero(work)
    if worked.size == 0:
        z = np.empty(0, dtype=INDEX_DTYPE)
        return z, z.copy(), np.empty(0, dtype=VALUE_DTYPE)
    ncols = max(int(b.ncols), 1)
    cum = np.cumsum(work[worked])
    row_cap = max(1, BLOCK_CELLS // ncols)
    if max_rows is not None:
        row_cap = min(row_cap, max_rows)
    bounds = [0]
    while bounds[-1] < worked.size:
        j0 = bounds[-1]
        base = int(cum[j0 - 1]) if j0 else 0
        j1 = int(np.searchsorted(cum, base + BLOCK_TUPLES, side="right"))
        bounds.append(min(max(j1, j0 + 1), j0 + row_cap, worked.size))
    # entry range of each block; entries of ids without work ride along
    # with the block before them (they expand to nothing)
    edges = np.searchsorted(ids, worked[bounds[1:-1]]).tolist()
    edges = [0, *edges, ids.size]
    # accumulator row of each entry: its id's rank among the worked ids
    rank = (np.cumsum(work > 0) - 1)[ids]
    b_sizes = b.row_nnz()
    seen: np.ndarray | None = None
    slot: np.ndarray | None = None
    out_ids, out_cols, out_vals = [], [], []
    for blk in range(len(bounds) - 1):
        j0, j1 = bounds[blk], bounds[blk + 1]
        e0, e1 = edges[blk], edges[blk + 1]
        nt = int(cum[j1 - 1]) - (int(cum[j0 - 1]) if j0 else 0)
        k = ks[e0:e1]
        cnt = b_sizes[k]
        # expand: B row k's segment for every A entry, k-major
        src = np.arange(nt, dtype=INDEX_DTYPE) + np.repeat(
            b.indptr[k] - (np.cumsum(cnt) - cnt), cnt
        )
        cols = b.indices[src]
        vals = np.repeat(avals[e0:e1], cnt) * b.data[src]
        nrows = j1 - j0
        if nrows == 1:
            cell = cols
        else:
            cell = np.repeat((rank[e0:e1] - j0) * ncols, cnt) + cols
        cells = nrows * ncols
        if cells <= DENSE_FILL * nt:
            if seen is None or seen.size < cells:
                seen = np.zeros(cells, dtype=bool)
                slot = np.empty(cells, dtype=INDEX_DTYPE)
            seen[cell] = True
            ucell = np.flatnonzero(seen[:cells])
            seen[ucell] = False
            slot[ucell] = np.arange(ucell.size, dtype=INDEX_DTYPE)
            sums = np.bincount(slot[cell], weights=vals, minlength=ucell.size)
        else:
            pbits = (nt - 1).bit_length()
            if (cells - 1) >> (63 - pbits) == 0:
                packed = (cell << pbits) | np.arange(nt, dtype=INDEX_DTYPE)
                packed.sort()
                order = packed & ((1 << pbits) - 1)
                scell = packed >> pbits
            else:
                order = np.argsort(cell, kind="stable")
                scell = cell[order]
            head = np.empty(nt, dtype=bool)
            head[0] = True
            np.not_equal(scell[1:], scell[:-1], out=head[1:])
            sums = np.bincount(np.cumsum(head) - 1, weights=vals[order])
            ucell = scell[head]
        if nrows == 1:
            out_ids.append(np.full(ucell.size, worked[j0], dtype=INDEX_DTYPE))
            out_cols.append(ucell)
        else:
            local = ucell // ncols
            out_ids.append(worked[j0 + local])
            out_cols.append(ucell - local * ncols)
        out_vals.append(sums)
    if len(out_ids) == 1:
        return out_ids[0], out_cols[0], out_vals[0]
    return np.concatenate(out_ids), np.concatenate(out_cols), np.concatenate(out_vals)


def esc_multiply(
    a: CSRMatrix,
    b: CSRMatrix,
    a_rows: np.ndarray | None = None,
    b_row_mask: np.ndarray | None = None,
) -> KernelResult:
    """Full ESC product ``A[a_rows, :] @ B*mask`` in C coordinates.

    The returned COO matrix has shape ``(a.nrows, b.ncols)`` with entries
    only in the selected rows; duplicates within the covered rows are
    merged (as a warp's ``PartialOutput`` accumulator would), so the
    emitted tuples are row-locally canonical.
    """
    check_multiply_compatible(a, b)
    rows = None if a_rows is None else np.asarray(a_rows, dtype=INDEX_DTYPE)
    mask = check_row_mask(b, b_row_mask)
    prod = row_product(a, b, rows, mask, merge_repeats=True)
    result = COOMatrix((a.nrows, b.ncols), prod.ids, prod.cols, prod.vals, validate=False)
    processed = prod.work if rows is None else prod.work[rows]
    # row-local accumulation (the warp's PartialOutput) means the tuples
    # leaving the kernel equal the locally-merged nnz, not the expansion
    stats = KernelStats.for_product(
        prod.a_entries, processed, result.nnz, result.nnz,
        b_reuse_curve=reuse_curve(prod.b_row_refs, b.row_nnz()),
    )
    if METRICS.enabled:
        METRICS.inc("kernels.esc.launches")
        METRICS.inc("kernels.esc.flops", stats.flops)
        METRICS.inc("kernels.esc.tuples", result.nnz)
        METRICS.inc("kernels.esc.expanded", int(prod.work.sum()))
    return KernelResult(result=result, stats=stats)
