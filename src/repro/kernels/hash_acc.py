"""Hash-accumulator spmm — reference implementation + vectorised twin.

Historically a pure-Python dictionary accumulator per output row:
quadratically slower than the vectorised kernels but trivially
auditable, and used by the test suite (alongside ``scipy.sparse``) as
an oracle for the SPA and ESC kernels.

The scalar ``zip(...tolist())`` loops made this the slowest path in the
tree, so the default is now a batched numpy reduction over the
occurrence-keyed product stream through the ESC kernel's row-block
accumulator (:func:`repro.kernels.esc.accumulate_rows`).  It is
bit-identical to the dictionary walk: the expand stream is k-major per
output row, and the accumulator sums each (row, column) group in that
stream order from +0.0, exactly as the repeated
``acc[j] = acc.get(j, 0.0) + av * bv`` did.  The dictionary path is
retained behind ``slow=True`` for differential testing and as the
auditable reference.
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


def hash_multiply(
    a: CSRMatrix,
    b: CSRMatrix,
    a_rows: np.ndarray | None = None,
    b_row_mask: np.ndarray | None = None,
    *,
    slow: bool = False,
) -> KernelResult:
    """Hash/dictionary-style product ``A[a_rows, :] @ B*mask``; see
    :func:`repro.kernels.esc.esc_multiply` for conventions.

    ``slow=True`` selects the original per-row Python dictionary walk
    (the auditable reference); the default vectorised path is
    bit-identical to it and is property-tested so.
    """
    check_multiply_compatible(a, b)
    mask = check_row_mask(b, b_row_mask)
    if slow:
        return _hash_multiply_slow(a, b, a_rows, mask)
    return _hash_multiply_fast(a, b, a_rows, mask)


def _hash_multiply_fast(
    a: CSRMatrix,
    b: CSRMatrix,
    a_rows: np.ndarray | None,
    mask: np.ndarray | None,
) -> KernelResult:
    """The dictionary walk as one row-block reduction over occurrences."""
    rows_iter = (
        np.arange(a.nrows, dtype=INDEX_DTYPE)
        if a_rows is None
        else np.asarray(a_rows, dtype=INDEX_DTYPE)
    )
    # output-row ids are occurrence positions: a repeated row emits one
    # run per occurrence, exactly like the reference loop
    prod = row_product(a, b, rows_iter, mask, merge_repeats=False)
    result = COOMatrix(
        (a.nrows, b.ncols), rows_iter[prod.ids], prod.cols, prod.vals, validate=False
    )
    stats = KernelStats.for_product(
        prod.a_entries,
        prod.work,
        result.nnz,
        result.nnz,
        b_reuse_curve=reuse_curve(prod.b_row_refs, b.row_nnz()),
    )
    if METRICS.enabled:
        # every intermediate product performs exactly one dict probe
        METRICS.inc("kernels.hash.launches")
        METRICS.inc("kernels.hash.probes", stats.total_work)
        METRICS.inc("kernels.hash.collisions", stats.total_work - result.nnz)
    return KernelResult(result=result, stats=stats)


def _hash_multiply_slow(
    a: CSRMatrix,
    b: CSRMatrix,
    a_rows: np.ndarray | None,
    mask: np.ndarray | None,
) -> KernelResult:
    """The original per-row dictionary accumulator (reference path)."""
    rows_iter = (
        list(range(a.nrows)) if a_rows is None else [int(r) for r in np.asarray(a_rows)]
    )
    out_rows: list[int] = []
    out_cols: list[int] = []
    out_vals: list[float] = []
    per_row_work = np.zeros(a.nrows, dtype=INDEX_DTYPE)
    a_entries = 0
    b_row_refs = np.zeros(b.nrows, dtype=INDEX_DTYPE)
    for i in rows_iter:
        if not (0 <= i < a.nrows):
            raise ShapeError("a_rows selection out of range")
        acc: dict[int, float] = {}
        acols, avals = a.row_slice(i)
        work = 0
        for k, av in zip(acols.tolist(), avals.tolist()):
            if mask is not None and not mask[k]:
                continue
            a_entries += 1
            b_row_refs[k] += 1
            bcols, bvals = b.row_slice(k)
            work += bcols.size
            for j, bv in zip(bcols.tolist(), bvals.tolist()):
                acc[j] = acc.get(j, 0.0) + av * bv
        per_row_work[i] = work
        for j in sorted(acc):
            out_rows.append(i)
            out_cols.append(j)
            out_vals.append(acc[j])
    shape = (a.nrows, b.ncols)
    result = COOMatrix(
        shape,
        np.asarray(out_rows, dtype=INDEX_DTYPE),
        np.asarray(out_cols, dtype=INDEX_DTYPE),
        np.asarray(out_vals, dtype=VALUE_DTYPE),
        validate=False,
    )
    stats = KernelStats.for_product(
        a_entries,
        per_row_work[np.asarray(rows_iter, dtype=INDEX_DTYPE)],
        result.nnz,
        result.nnz,
        b_reuse_curve=reuse_curve(b_row_refs, b.row_nnz()),
    )
    if METRICS.enabled:
        # every intermediate product performs exactly one dict probe
        METRICS.inc("kernels.hash.launches")
        METRICS.inc("kernels.hash.probes", stats.total_work)
        METRICS.inc("kernels.hash.collisions", stats.total_work - result.nnz)
    return KernelResult(result=result, stats=stats)
