"""Phase I threshold selection.

The paper chooses thresholds *empirically* (§III-A) and observes that
total time is convex in the threshold (§V-B d, Fig 8): ``t = 0`` pushes
all work to the CPU (≈ MKL time), the maximum threshold reduces the
algorithm to [13].  This module provides:

- a **fast analytic estimator** of HH-CPU's phase times for a candidate
  threshold, built from the same cost models the simulator charges and
  without a numeric multiply: O(nnz log nnz) once per ``(A, B)`` to
  sort A's entries (:class:`ProductProfile`), then
  O((nrows_A + nrows_B) log nnz) per candidate;
- :func:`select_threshold`, the argmin over a quantile candidate grid
  (the library's default "empirical" pick), memoised per operand
  structure and platform;
- :func:`sweep_thresholds`, the full curve behind Fig 8.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.costmodel.context import ProductContext
from repro.costmodel.cpu_cost import cpu_merge_time, cpu_spmm_time
from repro.costmodel.gpu_cost import gpu_spmm_time
from repro.formats.base import INDEX_DTYPE
from repro.formats.csr import CSRMatrix
from repro.hardware.platform import HeteroPlatform, default_platform
from repro.hetero.partition import threshold_candidates
from repro.kernels.symbolic import (
    KernelStats,
    retained_reuse_curve,
    retention_order,
    reuse_curve,
)


@dataclass(frozen=True)
class EstimatedTimes:
    """Analytic phase-time estimate for one threshold choice."""

    threshold_a: int
    threshold_b: int
    phase2_cpu: float
    phase2_gpu: float
    phase3: float
    phase4: float

    @property
    def phase2(self) -> float:
        """Overlapped Phase II time (devices run concurrently)."""
        return max(self.phase2_cpu, self.phase2_gpu)

    @property
    def total(self) -> float:
        """Phases II + III + IV (Phase I is threshold-independent and
        tiny; Fig 8 plots II, III and the total)."""
        return self.phase2 + self.phase3 + self.phase4


class ProductProfile:
    """Reusable per-entry structure for estimating any (row set) x (B class).

    Shared by the threshold selector and the baselines' static-split
    search — any algorithm that must predict work without multiplying.
    :meth:`stats_for` takes arbitrary row masks in O(nnz);
    :meth:`quadrant_stats` answers the threshold classes from two sorted
    views of A's entries, built once per ``(A, B)`` on first use.
    """

    def __init__(self, a: CSRMatrix, b: CSRMatrix):
        self.a = a
        self.b = b
        self.a_sizes = a.row_nnz()
        self.b_sizes = b.row_nnz()
        self.row_of = np.repeat(np.arange(a.nrows, dtype=INDEX_DTYPE), self.a_sizes)
        self.entry_work = self.b_sizes[a.indices]  # B-row length per A entry

    def _tuples(self, row_work: np.ndarray) -> int:
        """Birthday-collision estimate of the locally merged tuples."""
        n = float(max(self.b.ncols, 1))
        return int(np.sum(n * (1.0 - np.exp(-row_work / n))))

    def stats_for(self, a_row_mask: np.ndarray, b_row_mask: np.ndarray) -> KernelStats:
        """Estimated :class:`KernelStats` of ``A[mask] @ (B * b_mask)``.

        Output-tuple counts use a birthday-collision estimate
        ``ncols * (1 - exp(-work / ncols))`` per row, which tracks the
        real locally-merged nnz closely for random column patterns.
        """
        keep = a_row_mask[self.row_of] & b_row_mask[self.a.indices]
        a_entries = int(np.count_nonzero(keep))
        work = np.where(keep, self.entry_work, 0)
        per_row = np.bincount(self.row_of, weights=work, minlength=self.a.nrows)
        rows_sel = np.flatnonzero(a_row_mask)
        row_work = per_row[rows_sel].astype(INDEX_DTYPE)
        tuples = self._tuples(row_work)
        refs = np.bincount(self.a.indices[keep], minlength=self.b.nrows)
        return KernelStats.for_product(
            a_entries, row_work, tuples, tuples,
            b_reuse_curve=reuse_curve(refs, self.b_sizes),
        )

    @cached_property
    def _entries_by_b_size(self) -> tuple[int, np.ndarray, np.ndarray]:
        """A's entries sorted by (row, B-row size), as composite keys
        ``row * span + size``, plus prefix sums of the sorted sizes.
        Rows keep their CSR slots, so ``a.indptr`` still bounds them."""
        span = int(self.b_sizes.max(initial=0)) + 1
        base = self.row_of * span
        keys = np.sort(base + self.entry_work)
        cum = np.zeros(keys.size + 1, dtype=INDEX_DTYPE)
        np.cumsum(keys - base, out=cum[1:])
        return span, keys, cum

    @cached_property
    def _refs_by_a_size(self) -> tuple[int, np.ndarray, np.ndarray]:
        """A's column references sorted by (B row, A-row size), as keys
        ``k * span + size``, plus each B row's slice bounds."""
        span = int(self.a_sizes.max(initial=0)) + 1
        keys = np.sort(self.a.indices * span + self.a_sizes[self.row_of])
        bounds = np.searchsorted(
            keys, np.arange(self.b.nrows + 1, dtype=INDEX_DTYPE) * span
        )
        return span, keys, bounds

    def quadrant_stats(self, threshold_a: int, threshold_b: int) -> dict[str, KernelStats]:
        """:meth:`stats_for` of all four threshold classes at once.

        Keys are ``"HH"``, ``"LL"``, ``"LH"``, ``"HL"`` (A class, then B
        class; H = row size above the threshold).  Each value equals
        ``stats_for`` on the matching masks field for field, but costs
        O((nrows_A + nrows_B) log nnz) instead of four O(nnz) passes:
        each row's low/high split is a ``searchsorted`` in the sorted
        views, and its work a difference of prefix sums.
        """
        indptr = self.a.indptr
        span, keys, cum = self._entries_by_b_size
        cut = np.searchsorted(
            keys,
            np.arange(self.a.nrows, dtype=INDEX_DTYPE) * span
            + min(max(int(threshold_b), -1), span - 1),
            side="right",
        )
        # per A row, over its entries into B_L / B_H: count and work
        entries = {"L": cut - indptr[:-1], "H": indptr[1:] - cut}
        work = {"L": cum[cut] - cum[indptr[:-1]], "H": cum[indptr[1:]] - cum[cut]}

        span, ckeys, bounds = self._refs_by_a_size
        ccut = np.searchsorted(
            ckeys,
            np.arange(self.b.nrows, dtype=INDEX_DTYPE) * span
            + min(max(int(threshold_a), -1), span - 1),
            side="right",
        )
        # per B row, references from A_L / A_H rows
        refs = {"L": ccut - bounds[:-1], "H": bounds[1:] - ccut}

        a_high = self.a_sizes > threshold_a
        b_high = self.b_sizes > threshold_b
        rows = {"H": np.flatnonzero(a_high), "L": np.flatnonzero(~a_high)}
        b_in = {"H": b_high, "L": ~b_high}
        out = {}
        for xa in ("H", "L"):
            order = retention_order(refs[xa])
            for xb in ("H", "L"):
                row_work = work[xb][rows[xa]]
                tuples = self._tuples(row_work)
                kept = order[b_in[xb][order]]
                out[xa + xb] = KernelStats.for_product(
                    int(entries[xb][rows[xa]].sum()), row_work, tuples, tuples,
                    b_reuse_curve=retained_reuse_curve(
                        refs[xa][kept], self.b_sizes[kept]
                    ),
                )
        return out


def estimate_times(
    a: CSRMatrix,
    b: CSRMatrix,
    threshold_a: int,
    threshold_b: int,
    platform: HeteroPlatform | None = None,
    *,
    profile: ProductProfile | None = None,
) -> EstimatedTimes:
    """Analytic HH-CPU phase-time estimate for one (t_A, t_B) pair."""
    platform = platform or default_platform()
    prof = profile if profile is not None else ProductProfile(a, b)
    calib = platform.calibration

    b_high = prof.b_sizes > threshold_b
    b_high_nnz = int(prof.b_sizes[b_high].sum())
    b_low_nnz = int(b.nnz - b_high_nnz)
    ctx_bh = ProductContext.for_b_class(b_high_nnz, int(b_high.sum()), b.ncols)
    ctx_bl = ProductContext.for_b_class(b_low_nnz, int((~b_high).sum()), b.ncols)

    quadrants = prof.quadrant_stats(threshold_a, threshold_b)

    # Phase II: CPU does A_H x B_H, GPU does A_L x B_L
    st_hh, st_ll = quadrants["HH"], quadrants["LL"]
    t2_cpu = cpu_spmm_time(st_hh, ctx_bh, platform.cpu.spec, calib)
    t2_gpu = gpu_spmm_time(st_ll, ctx_bl, platform.gpu.spec, calib)

    # Phase III: both devices share A_L x B_H and A_H x B_L; the
    # workqueue equalises finish times, so the balanced duration is the
    # parallel combination of each device's solo time over the union.
    st_lh, st_hl = quadrants["LH"], quadrants["HL"]
    cpu_solo = cpu_spmm_time(st_lh, ctx_bh, platform.cpu.spec, calib) + cpu_spmm_time(
        st_hl, ctx_bl, platform.cpu.spec, calib
    )
    gpu_solo = gpu_spmm_time(st_lh, ctx_bh, platform.gpu.spec, calib) + gpu_spmm_time(
        st_hl, ctx_bl, platform.gpu.spec, calib
    )
    if cpu_solo + gpu_solo > 0:
        t3 = 1.0 / (1.0 / max(cpu_solo, 1e-30) + 1.0 / max(gpu_solo, 1e-30))
    else:
        t3 = 0.0

    tuples_total = st_hh.tuples_emitted + st_ll.tuples_emitted + st_lh.tuples_emitted + st_hl.tuples_emitted
    t4 = cpu_merge_time(tuples_total, platform.cpu.spec, calib, needs_sort=False)

    return EstimatedTimes(
        threshold_a=int(threshold_a),
        threshold_b=int(threshold_b),
        phase2_cpu=t2_cpu,
        phase2_gpu=t2_gpu,
        phase3=t3,
        phase4=t4,
    )


def sweep_thresholds(
    a: CSRMatrix,
    b: CSRMatrix,
    platform: HeteroPlatform | None = None,
    *,
    candidates: np.ndarray | None = None,
) -> list[EstimatedTimes]:
    """Estimate phase times across a threshold grid (Fig 8's fast mode).

    Uses one threshold for both operands, as the paper's self-product
    experiments (A x A) imply ``t_A = t_B``.
    """
    platform = platform or default_platform()
    if candidates is None:
        candidates = threshold_candidates(a)
    prof = ProductProfile(a, b)
    return [
        estimate_times(a, b, int(t), int(t), platform, profile=prof)
        for t in candidates
    ]


#: Phase I picks already swept, oldest first; see :func:`select_threshold`
_PICKS: dict[tuple, tuple[int, int]] = {}
#: entries kept before the oldest is evicted
PICK_MEMO_SIZE = 256


def select_threshold(
    a: CSRMatrix,
    b: CSRMatrix,
    platform: HeteroPlatform | None = None,
    *,
    candidates: np.ndarray | None = None,
) -> tuple[int, int]:
    """The library's "empirical" Phase I pick: the candidate minimising
    the estimated total time.  Returns ``(t_A, t_B)`` (equal by
    construction; callers may override either).

    The pick depends only on the operands' structure, the device specs,
    the calibration and the candidates, so it is memoised on exactly
    those: an operand pair seen before (as any objects, with any values)
    skips the sweep.  The memo holds the two ints only, never a
    :class:`ProductProfile`, and keeps the last :data:`PICK_MEMO_SIZE`
    picks.
    """
    platform = platform or default_platform()
    key = (
        a.structure_digest(),
        b.structure_digest(),
        platform.cpu.spec,
        platform.gpu.spec,
        platform.calibration,
        None if candidates is None else tuple(int(t) for t in candidates),
    )
    pick = _PICKS.get(key)
    if pick is None:
        sweep = sweep_thresholds(a, b, platform, candidates=candidates)
        best = min(sweep, key=lambda e: e.total)
        pick = (best.threshold_a, best.threshold_b)
        if len(_PICKS) >= PICK_MEMO_SIZE:
            del _PICKS[next(iter(_PICKS))]
        _PICKS[key] = pick
    return pick
