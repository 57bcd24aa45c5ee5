"""The ``numpy`` backend — the vectorised default kernels.

Binds the raw PR-4 segment-reduction implementations directly (not the
package-level dispatch wrappers, which would recurse back into the
registry).  All three spmm kernels accumulate through
:func:`repro.kernels.esc.accumulate_rows`, which preserves k-major
stream order, so the backend is ``ordered`` — bit-identical to the
scalar references and scipy.
"""

from __future__ import annotations

import numpy as np

from repro.formats.csr import CSRMatrix
from repro.kernels.csrmm import CsrmmResult
from repro.kernels.csrmm import csrmm as _csrmm
from repro.kernels.esc import KernelResult
from repro.kernels.esc import esc_multiply as _esc_multiply
from repro.kernels.hash_acc import hash_multiply as _hash_multiply
from repro.kernels.spa import DEFAULT_ROW_BLOCK
from repro.kernels.spa import spa_multiply as _spa_multiply

from repro.backends.registry import Backend, register_backend


def hash_multiply(
    a: CSRMatrix,
    b: CSRMatrix,
    a_rows: np.ndarray | None = None,
    b_row_mask: np.ndarray | None = None,
    *,
    slow: bool = False,
) -> KernelResult:
    # ``slow`` passes through so differential tests can still reach the
    # dictionary walk via the dispatching entry point.
    return _hash_multiply(a, b, a_rows, b_row_mask, slow=slow)


def spa_multiply(
    a: CSRMatrix,
    b: CSRMatrix,
    a_rows: np.ndarray | None = None,
    b_row_mask: np.ndarray | None = None,
    *,
    row_block: int | None = DEFAULT_ROW_BLOCK,
) -> KernelResult:
    # ``row_block`` passes through (including ``None`` = the per-row
    # reference loop) so existing differential tests keep working.
    return _spa_multiply(a, b, a_rows, b_row_mask, row_block=row_block)


def esc_multiply(
    a: CSRMatrix,
    b: CSRMatrix,
    a_rows: np.ndarray | None = None,
    b_row_mask: np.ndarray | None = None,
) -> KernelResult:
    return _esc_multiply(a, b, a_rows, b_row_mask)


def csrmm(
    a: CSRMatrix,
    dense: np.ndarray,
    a_rows: np.ndarray | None = None,
) -> CsrmmResult:
    return _csrmm(a, dense, a_rows)


BACKEND = register_backend(Backend(
    name="numpy",
    impl="numpy",
    ordered=True,
    available=True,
    fallback_reason=None,
    hash_multiply=hash_multiply,
    spa_multiply=spa_multiply,
    esc_multiply=esc_multiply,
    csrmm=csrmm,
))
