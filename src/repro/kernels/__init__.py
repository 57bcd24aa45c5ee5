"""Numeric spmm kernels and the Phase IV tuple merge.

Four numerically-equivalent spmm entry points (property-tested against
each other and against ``scipy.sparse``):

- :func:`esc_multiply` — expand–sort–compress (GPU-shaped);
- :func:`spa_multiply` — dense sparse-accumulator (CPU-shaped, Gustavson);
- :func:`hash_multiply` — hash/dictionary accumulation;
- :func:`adaptive_multiply` — per-row regime selection over the above
  (short→ESC, medium→hash, dense→flat SPA), thresholds from a
  :class:`repro.backends.BackendSpec`.

The package-level entry points are **dispatchers**: each resolves an
implementation through the :mod:`repro.backends` registry (``backend=``
names ``reference`` / ``numpy`` / ``numba``, or carries a full
``BackendSpec``; ``None`` means the default, ``numpy``).  The raw
implementations stay importable from their home modules
(``repro.kernels.hash_acc`` …) for the backends package and the
differential tests; everything above the kernel layer must go through
these dispatchers (lint rule BKD001).

Plus :func:`merge_tuples` (Phase IV), symbolic work estimation, spmv,
and the §VI csrmm extension.
"""

from __future__ import annotations

import numpy as np

from repro.formats.csr import CSRMatrix
from repro.kernels.symbolic import KernelStats, WorkEstimate, estimate_work, symbolic_nnz
from repro.kernels.esc import KernelResult
from repro.kernels.spa import DEFAULT_ROW_BLOCK
from repro.kernels.merge import (
    MergeResult,
    MergeStats,
    exclusive_scan,
    mark_master_indices,
    merge_tuples,
)
from repro.kernels.spmv import csr_spmv, masked_spmv, split_spmv
from repro.kernels.csrmm import CsrmmResult, CsrmmStats

#: sentinel distinguishing "not passed" from an explicit ``None``
_UNSET = object()


def _backend(backend):
    # function-level import: repro.backends imports the raw kernel
    # modules, so binding at module import time would be circular
    from repro.backends import get_backend

    return get_backend(backend)


def hash_multiply(
    a: CSRMatrix,
    b: CSRMatrix,
    a_rows: np.ndarray | None = None,
    b_row_mask: np.ndarray | None = None,
    *,
    slow: bool = False,
    backend=None,
) -> KernelResult:
    """Hash-accumulator product, dispatched through the backend registry.

    ``slow=True`` forces the per-row Python dictionary walk (the
    auditable reference) regardless of ``backend`` — it exists for
    differential testing of that exact code path.
    """
    if slow:
        from repro.kernels.hash_acc import hash_multiply as raw

        return raw(a, b, a_rows, b_row_mask, slow=True)
    return _backend(backend).hash_multiply(a, b, a_rows, b_row_mask)


def spa_multiply(
    a: CSRMatrix,
    b: CSRMatrix,
    a_rows: np.ndarray | None = None,
    b_row_mask: np.ndarray | None = None,
    *,
    row_block=_UNSET,
    backend=None,
) -> KernelResult:
    """Gustavson SPA product, dispatched through the backend registry.

    Passing ``row_block`` explicitly (an int, or ``None`` for the
    per-row reference loop) selects the numpy implementation's batching
    directly — it is an implementation knob of that backend, kept for
    the differential tests.
    """
    if row_block is not _UNSET:
        from repro.kernels.spa import spa_multiply as raw

        return raw(a, b, a_rows, b_row_mask, row_block=row_block)
    return _backend(backend).spa_multiply(a, b, a_rows, b_row_mask)


def esc_multiply(
    a: CSRMatrix,
    b: CSRMatrix,
    a_rows: np.ndarray | None = None,
    b_row_mask: np.ndarray | None = None,
    *,
    backend=None,
) -> KernelResult:
    """ESC product, dispatched through the backend registry."""
    return _backend(backend).esc_multiply(a, b, a_rows, b_row_mask)


def adaptive_multiply(
    a: CSRMatrix,
    b: CSRMatrix,
    a_rows: np.ndarray | None = None,
    b_row_mask: np.ndarray | None = None,
    *,
    backend=None,
) -> KernelResult:
    """Regime-selected product (see :mod:`repro.backends.adaptive`).

    ``backend`` may carry a full :class:`repro.backends.BackendSpec`
    with custom regime thresholds; a bare name (or ``None``) uses the
    default thresholds over that backend's kernels.
    """
    from repro.backends import resolve_spec
    from repro.backends.adaptive import adaptive_multiply as raw

    return raw(a, b, a_rows, b_row_mask, spec=resolve_spec(backend))


def csrmm(
    a: CSRMatrix,
    dense: np.ndarray,
    a_rows: np.ndarray | None = None,
    *,
    backend=None,
) -> CsrmmResult:
    """Sparse × dense product, dispatched through the backend registry."""
    return _backend(backend).csrmm(a, dense, a_rows)


#: registry of the interchangeable numeric spmm kernels by name
SPMM_KERNELS = {
    "esc": esc_multiply,
    "spa": spa_multiply,
    "hash": hash_multiply,
    "adaptive": adaptive_multiply,
}

__all__ = [
    "KernelStats",
    "WorkEstimate",
    "estimate_work",
    "symbolic_nnz",
    "KernelResult",
    "esc_multiply",
    "spa_multiply",
    "hash_multiply",
    "adaptive_multiply",
    "DEFAULT_ROW_BLOCK",
    "MergeResult",
    "MergeStats",
    "exclusive_scan",
    "mark_master_indices",
    "merge_tuples",
    "csr_spmv",
    "masked_spmv",
    "split_spmv",
    "CsrmmResult",
    "CsrmmStats",
    "csrmm",
    "SPMM_KERNELS",
]
