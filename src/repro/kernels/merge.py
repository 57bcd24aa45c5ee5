"""Phase IV: merging ``<r, c, v>`` tuple streams into the final CSR.

Implements the procedure of §III-D / Fig 4 of the paper, whose
device-shaped steps the cost model charges:

1. **merge/sort** — tuples from all producers are ordered by (row, col);
2. **mark** — a flag array marks the first tuple of each like-tuple run
   (the *master index*);
3. **scan** — an exclusive prefix sum over the flags assigns each master
   index its output slot (:func:`exclusive_scan`; the host path reads
   slots off ``np.flatnonzero`` of the flags instead);
4. **reduce** — one (virtual) thread per master index sums its run;
5. **CSR conversion** — row pointers, as in §V-D's remark that Phase IV
   converts tuples to CSR.

The functions report a :class:`MergeStats` record used by the cost model
(Fig 7 shows Phase IV must stay under ~4% of total time, and Fig 10's
discussion attributes the 500K/1M speedup drop to growth in tuple count,
so tuple volume must be surfaced).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.formats.base import INDEX_DTYPE, VALUE_DTYPE, check_shape
from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from repro.obs.metrics import METRICS
from repro.util.errors import FormatError


@dataclass(frozen=True)
class MergeStats:
    """Workload accounting of a Phase IV merge."""

    #: tuples entering the merge (from all devices / phases)
    tuples_in: int
    #: distinct (row, col) master indices
    masters: int
    #: largest like-tuple run length
    max_run: int
    #: comparisons performed by the sort, modelled as n log2 n
    sort_ops: int
    #: additions performed by the reduction (tuples_in - masters)
    reduce_ops: int

    @property
    def duplication_ratio(self) -> float:
        """Average tuples per output entry (1.0 = no cross-phase overlap)."""
        return self.tuples_in / self.masters if self.masters else 0.0


@dataclass(frozen=True)
class MergeResult:
    """Final CSR matrix plus merge workload statistics."""

    matrix: CSRMatrix
    stats: MergeStats


def mark_master_indices(keys: np.ndarray) -> np.ndarray:
    """Boolean flags marking the first tuple of each like-tuple run.

    ``keys`` must already be sorted.  Exposed separately so tests can
    check the mark/scan decomposition directly.
    """
    head = np.empty(keys.size, dtype=bool)
    if keys.size:
        head[0] = True
        np.not_equal(keys[1:], keys[:-1], out=head[1:])
    return head


def exclusive_scan(flags: np.ndarray) -> np.ndarray:
    """Exclusive prefix sum over an int/bool array (output slot of each run).

    The device-shaped scan step of Fig 4, kept for tests of the
    mark/scan decomposition; :func:`sort_reduce` does not need it.
    """
    out = np.zeros(flags.size, dtype=INDEX_DTYPE)
    np.cumsum(flags[:-1], out=out[1:])
    return out


def merge_tuples(
    shape: tuple[int, int],
    parts: Sequence[COOMatrix],
    *,
    drop_zeros: bool = False,
) -> MergeResult:
    """Merge per-device tuple streams into one canonical CSR matrix.

    Parameters
    ----------
    shape:
        Shape of the output matrix ``C``.
    parts:
        Tuple streams (COO matrices in C coordinates) produced by the
        CPU and GPU during Phases II and III.
    drop_zeros:
        When True, entries whose merged value is exactly zero are
        dropped (numerical cancellation).  The paper keeps them —
        accumulators emit whatever they saw — so the default is False.
    """
    result = sort_reduce(shape, parts, drop_zeros=drop_zeros)
    stats = result.stats
    if METRICS.enabled:
        METRICS.inc("kernels.merge.calls")
        METRICS.inc("kernels.merge.tuples_in", stats.tuples_in)
        METRICS.inc("kernels.merge.reduce_ops", stats.reduce_ops)
        METRICS.inc("kernels.merge.sort_ops", stats.sort_ops)
    return result


def sort_reduce(
    shape: tuple[int, int],
    parts: Sequence[COOMatrix],
    *,
    drop_zeros: bool = False,
) -> MergeResult:
    """The merge itself, without metrics: :func:`merge_tuples` for the
    pipeline, and the one sort-reduce behind
    :meth:`repro.formats.coo.COOMatrix.canonicalize` / ``tocsr``.

    Host notes (the simulated charge is unaffected by any of them):

    - keys and values are written straight into preallocated buffers,
      one slice per part — no concatenated triplet copy;
    - one stable argsort orders them; every part leaves its producer
      row-sorted, so the input is a few presorted runs and timsort
      merges them in near-linear time;
    - like-tuples are reduced in **stream order**: each master starts
      at its run's first value and the remaining duplicates are added
      one by one in production order (``np.add.at`` is unbuffered and
      in order).  That is the scalar ``acc[k] += v`` walk, independent
      of SIMD blocking.  On runs of two it equals the former
      ``np.add.reduceat``, and an HH-CPU run is never longer: a row's
      tuples come from two quadrant streams (its B_H and B_L halves),
      each already locally merged;
    - ``indptr`` comes from a ``searchsorted`` of each row's first key
      over the sorted unique keys.
    """
    nrows, ncols = check_shape(shape)
    # row-major key ``row << col_bits | col``: masking recovers the column
    col_bits = INDEX_DTYPE(max(ncols - 1, 0).bit_length())
    tuples_in = 0
    for p in parts:
        if p.shape != (nrows, ncols):
            raise FormatError(f"part shape {p.shape} differs from target {(nrows, ncols)}")
        tuples_in += p.nnz
    if tuples_in == 0:
        return MergeResult(CSRMatrix.empty((nrows, ncols)), MergeStats(0, 0, 0, 0, 0))

    keys = np.empty(tuples_in, dtype=INDEX_DTYPE)
    vals = np.empty(tuples_in, dtype=VALUE_DTYPE)
    pos = 0
    for p in parts:
        end = pos + p.nnz
        np.left_shift(p.row, col_bits, out=keys[pos:end])
        keys[pos:end] |= p.col
        vals[pos:end] = p.data
        pos = end

    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    vals = vals[order]
    head = mark_master_indices(keys)
    ukeys = keys[head]
    summed = vals[head]
    masters = ukeys.size
    max_run = 1
    if masters < tuples_in:
        dups = np.flatnonzero(~head)
        # masters at or before each duplicate, minus one: its run's slot
        run_of = dups - np.arange(1, dups.size + 1, dtype=INDEX_DTYPE)
        np.add.at(summed, run_of, vals[dups])
        firsts = np.flatnonzero(np.diff(run_of, prepend=-1))
        max_run += int(np.diff(firsts, append=run_of.size).max())
    if drop_zeros:
        keep = summed != 0.0
        ukeys, summed = ukeys[keep], summed[keep]

    row_starts = np.arange(nrows + 1, dtype=INDEX_DTYPE) << col_bits
    indptr = np.searchsorted(ukeys, row_starts).astype(INDEX_DTYPE, copy=False)
    cols = ukeys & ((INDEX_DTYPE(1) << col_bits) - 1)
    matrix = CSRMatrix((nrows, ncols), indptr, cols, summed, validate=False)
    stats = MergeStats(
        tuples_in=tuples_in,
        masters=masters,
        max_run=max_run,
        sort_ops=int(tuples_in * max(1.0, np.log2(tuples_in))),
        reduce_ops=tuples_in - masters,
    )
    return MergeResult(matrix=matrix, stats=stats)


def merge_tuples_grouped(
    shape: tuple[int, int],
    parts: Sequence[COOMatrix],
    *,
    max_group_tuples: int,
    drop_zeros: bool = False,
) -> MergeResult:
    """Memory-bounded Phase IV: merge ``parts`` hierarchically so no
    single sort ever materialises more than ~``max_group_tuples`` tuples.

    Parts are grouped greedily in order (each group at least one part,
    closed once it reaches the budget), each group merged to a canonical
    intermediate, and the deduplicated group outputs merged once more.
    Grouping is a deterministic function of the parts and the budget, so
    a given configuration always produces the same result — but because
    cross-group duplicates are summed at the second level, the
    floating-point summation *order* differs from the flat
    :func:`merge_tuples`; results are mathematically equal (scipy-equal
    in tests), not bit-identical to the unbudgeted path.

    The reported stats count the original ``tuples_in`` so cost models
    and metrics see the true tuple volume.
    """
    if max_group_tuples <= 0:
        raise ValueError(f"max_group_tuples must be positive, got {max_group_tuples}")
    parts = list(parts)
    total_in = sum(p.nnz for p in parts)
    if total_in <= max_group_tuples or len(parts) <= 1:
        return merge_tuples(shape, parts, drop_zeros=drop_zeros)

    groups: list[list[COOMatrix]] = [[]]
    acc = 0
    for p in parts:
        if groups[-1] and acc + p.nnz > max_group_tuples:
            groups.append([])
            acc = 0
        groups[-1].append(p)
        acc += p.nnz

    reduced = [merge_tuples(shape, g).matrix.tocoo() for g in groups]
    final = merge_tuples(shape, reduced, drop_zeros=drop_zeros)
    stats = MergeStats(
        tuples_in=total_in,
        masters=final.stats.masters,
        max_run=final.stats.max_run,
        sort_ops=int(total_in * max(1.0, np.log2(total_in))),
        reduce_ops=int(total_in - final.stats.masters),
    )
    if METRICS.enabled:
        METRICS.inc("kernels.merge.grouped_calls")
        METRICS.inc("kernels.merge.groups", len(groups))
    return MergeResult(matrix=final.matrix, stats=stats)
