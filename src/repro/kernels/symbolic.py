"""Symbolic (structure-only) analysis of sparse products.

The paper stresses (§I) that "the amount of computation required with
respect to an element C[i, j] ... depends on the number of indices of
the i-th row of A ... that overlap with the j-th column of B", and that
estimating per-row work a priori "amounts to actually performing matrix
multiplication".  This module provides exactly the quantities that *can*
be computed cheaply — per-row multiply-add counts (the classical
"intermediate products" measure) — plus an exact symbolic pass used by
tests and by the cost-model's traffic accounting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.formats.base import INDEX_DTYPE, check_multiply_compatible
from repro.formats.csr import CSRMatrix


@dataclass(frozen=True)
class WorkEstimate:
    """Work volume of a (sub)product in the row-row formulation."""

    #: per-output-row count of scalar multiply-adds (a.k.a. intermediate
    #: products): ``work[i] = sum_{k in A(i,:)} nnz(B(k,:))``
    row_work: np.ndarray
    #: total intermediate products
    total_work: int
    #: floating point operations (one mul + one add per intermediate product)
    flops: int
    #: upper bound on nnz(C) — attained when no column indices collide
    nnz_upper_bound: int

    @property
    def nrows(self) -> int:
        return int(self.row_work.size)


def estimate_work(a: CSRMatrix, b: CSRMatrix, rows: np.ndarray | None = None) -> WorkEstimate:
    """Cheap O(nnz(A)) work estimate for ``A @ B`` (optionally row-restricted).

    Parameters
    ----------
    a, b:
        CSR operands; ``a.ncols`` must equal ``b.nrows``.
    rows:
        Optional subset of A's rows (the Phase III work-units restrict
        products to contiguous row ranges).
    """
    check_multiply_compatible(a, b)
    b_sizes = b.row_nnz()
    if rows is None:
        indptr = a.indptr
        gathered = b_sizes[a.indices]
        # segment-sum of B-row sizes over each A row
        row_work = np.add.reduceat(
            np.concatenate([gathered, [0]]), indptr[:-1]
        )[: a.nrows] if a.nnz else np.zeros(a.nrows, dtype=INDEX_DTYPE)
        # reduceat quirk: empty segments copy the element at the boundary;
        # zero them explicitly.
        row_work = np.where(np.diff(indptr) == 0, 0, row_work)
    else:
        rows = np.asarray(rows, dtype=INDEX_DTYPE)
        row_work = np.empty(rows.size, dtype=INDEX_DTYPE)
        for out_i, i in enumerate(rows):
            cols, _ = a.row_slice(int(i))
            row_work[out_i] = int(b_sizes[cols].sum()) if cols.size else 0
    total = int(row_work.sum())
    return WorkEstimate(
        row_work=row_work.astype(INDEX_DTYPE),
        total_work=total,
        flops=2 * total,
        nnz_upper_bound=total,
    )


def symbolic_nnz(a: CSRMatrix, b: CSRMatrix) -> int:
    """Exact nnz of the product structure (collisions collapsed).

    This performs the structure half of the multiplication — the paper's
    point that exact per-row output sizes cost as much as the multiply —
    so it is used only by tests and offline analyses, never on the
    simulated hot path.
    """
    check_multiply_compatible(a, b)
    from repro.kernels.esc import esc_multiply

    product = esc_multiply(a, b).result
    return product.nnz


#: bytes of one stored element (int64 index + float64 value)
ELEM_BYTES = np.dtype(INDEX_DTYPE).itemsize + 8
#: bytes of one <r, c, v> output tuple (two int64 + one float64)
TUPLE_BYTES = 2 * np.dtype(INDEX_DTYPE).itemsize + 8

#: resolution of the cache-reuse curves carried in :class:`KernelStats`
REUSE_CURVE_POINTS = 64


def reuse_curve(
    b_row_refs: np.ndarray, b_row_sizes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Best-case cache-savings curve for a product's B-row accesses.

    ``b_row_refs[k]`` counts how many processed A entries reference B
    row ``k``; streaming that row costs ``sizes[k] * ELEM_BYTES`` per
    reference, so a cache holding row ``k`` saves
    ``(refs[k]-1) * sizes[k] * ELEM_BYTES``.  Savings per cached byte is
    ``refs[k]-1``, so the optimal (and LRU-approached, for skewed
    reference streams) policy retains rows by descending reference
    count.  Returns ``(capacity_bytes, saved_bytes)`` — both cumulative,
    downsampled to :data:`REUSE_CURVE_POINTS` — for interpolation at any
    cache capacity.

    This curve is what makes scale-freeness matter to the CPU: under
    the degree-assortativity of real scale-free matrices, traffic to a
    B row grows ~quadratically with its size, so a few hub rows carry
    most repeat traffic and a modest LLC captures it; uniform matrices
    get savings only in proportion to raw capacity.
    """
    refs = np.asarray(b_row_refs)
    order = retention_order(refs)
    return retained_reuse_curve(refs[order], np.asarray(b_row_sizes)[order])


def retention_order(b_row_refs: np.ndarray) -> np.ndarray:
    """B rows referenced more than once, in cache-retention order:
    descending reference count, ties by ascending row id.

    Restricting this order to a subset of rows gives the subset's own
    retention order, so one sort serves every B class.
    """
    hot = np.flatnonzero(b_row_refs > 1)
    return hot[np.argsort(-b_row_refs[hot], kind="stable")]


def retained_reuse_curve(
    refs: np.ndarray, sizes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`reuse_curve` of rows already in :func:`retention_order`
    (``refs``/``sizes`` are their reference counts and lengths)."""
    if refs.size == 0:
        z = np.zeros(1)
        return z, z.copy()
    refs_h = refs.astype(np.float64)
    sizes_h = sizes.astype(np.float64)
    bytes_cum = np.cumsum(sizes_h) * ELEM_BYTES
    saved_cum = np.cumsum((refs_h - 1.0) * sizes_h) * ELEM_BYTES
    if bytes_cum.size > REUSE_CURVE_POINTS:
        idx = np.unique(
            np.linspace(0, bytes_cum.size - 1, REUSE_CURVE_POINTS).astype(np.int64)
        )
        bytes_cum, saved_cum = bytes_cum[idx], saved_cum[idx]
    return bytes_cum, saved_cum


@dataclass(frozen=True)
class KernelStats:
    """Workload statistics reported by every numeric kernel run.

    These feed the device cost models: ``flops`` and the traffic fields
    set the throughput-bound time, ``row_work`` (per *processed* row)
    sets the GPU warp-divergence penalty, and ``tuples_emitted`` sets
    Phase IV input volume.  All byte counts are modelled from structure,
    not measured on the host.
    """

    #: scalar flops (one mul + one add per intermediate product)
    flops: int
    #: number of A entries actually processed (post row/mask selection)
    a_entries: int
    #: intermediate products generated (sum of row_work)
    total_work: int
    #: number of <r, c, v> tuples emitted before merging
    tuples_emitted: int
    #: nnz of the (locally merged) result
    result_nnz: int
    #: bytes read from operand arrays
    bytes_read: int
    #: bytes written to output/tuple arrays
    bytes_written: int
    #: intermediate-product counts of the processed rows, in processing
    #: order (length = number of processed rows)
    row_work: np.ndarray
    #: optional cache-savings curve from :func:`reuse_curve`
    b_reuse_curve: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def rows_processed(self) -> int:
        return int(self.row_work.size)

    def reuse_saved_bytes(self, capacity_bytes: float) -> float:
        """Repeat-traffic bytes a cache of the given capacity can save
        (0 when no curve was recorded)."""
        if self.b_reuse_curve is None:
            return 0.0
        bytes_cum, saved_cum = self.b_reuse_curve
        if bytes_cum.size == 0 or capacity_bytes <= 0:
            return 0.0
        return float(
            np.interp(capacity_bytes, bytes_cum, saved_cum,
                      left=capacity_bytes / max(bytes_cum[0], 1e-30) * saved_cum[0],
                      right=saved_cum[-1])
        )

    @property
    def mean_b_segment(self) -> float:
        """Average length of the B-row segments streamed per A entry —
        the locality signal both device models key on."""
        return self.total_work / self.a_entries if self.a_entries else 0.0

    @staticmethod
    def for_product(a_entries: int, row_work: np.ndarray,
                    tuples_emitted: int, result_nnz: int,
                    b_reuse_curve: tuple[np.ndarray, np.ndarray] | None = None,
                    ) -> "KernelStats":
        """Standard accounting for a row-row product.

        Reads: the processed A entries once, plus for every A entry the
        corresponding B row segment (index + value per element).
        Writes: one (int, int, float) tuple per emitted entry.
        """
        row_work = np.asarray(row_work, dtype=INDEX_DTYPE)
        total = int(row_work.sum())
        return KernelStats(
            flops=2 * total,
            a_entries=int(a_entries),
            total_work=total,
            tuples_emitted=int(tuples_emitted),
            result_nnz=int(result_nnz),
            bytes_read=int(a_entries * ELEM_BYTES + total * ELEM_BYTES),
            bytes_written=int(tuples_emitted * TUPLE_BYTES),
            row_work=row_work,
            b_reuse_curve=b_reuse_curve,
        )
