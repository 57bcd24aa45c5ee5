"""Benchmark case registry: what gets timed, and how it is verified.

A case binds one workload to one code path under test.  Two kinds:

- ``kernel`` — a single spmm kernel call (hash / SPA / ESC, fast and
  reference paths, plus a cross-quadrant masked product).  Only host
  wall time is reported.
- ``end_to_end`` — a full Algorithm HH-CPU run.  Host wall time (how
  long the simulation takes to execute) and *simulated* time (what the
  model says the heterogeneous platform would take) are reported as
  separate fields — they must never be conflated (CLK001).

Every case is **verified**: after timing, its result is compared
bit-for-bit against ``scipy.sparse`` on the same operands.  The
vectorised kernels accumulate intermediate products in k-major stream
order (see :func:`repro.kernels.esc.accumulate_rows`), the same
order scipy's ``csr_matmat`` uses, so exact equality is the contract —
a verification failure fails the bench run.  The harness relaxes the
contract to ``allclose`` only where the backend declares it cannot
preserve that order (``Backend.ordered`` is False, e.g. JIT kernels
with fused accumulation) — and marks the row accordingly.

Cases take the **backend axis** from the harness: ``make(a, b,
backend)`` binds the operands *and* the kernel backend the timed
callable dispatches through.  A case may pin its backend (the scalar
references pin ``numpy`` — their ``slow=True`` / ``row_block=None``
escape hatches bypass the registry, so the axis would only mislabel
them); pinned cases ignore ``--backend`` and always report the pin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.bench.workloads import SMOKE, Workload, get_workload, iter_workloads
from repro.formats.csr import CSRMatrix
from repro.kernels import (
    adaptive_multiply,
    esc_multiply,
    hash_multiply,
    spa_multiply,
)


@dataclass(frozen=True)
class CaseOutput:
    """What one timed execution produced."""

    #: the result matrix, for verification against the scipy oracle
    matrix: object
    #: modelled platform seconds (end-to-end cases only); host wall
    #: time is measured outside, by the harness
    sim_time_s: float | None = None


@dataclass(frozen=True)
class BenchCase:
    """One timed + verified benchmark case."""

    name: str
    kind: str  # "kernel" | "end_to_end"
    workload: str
    description: str
    tags: tuple = ()
    #: bind the workload operands and kernel backend, returning the
    #: zero-arg timed callable
    make: Callable[[CSRMatrix, CSRMatrix, str], Callable[[], CaseOutput]] = field(
        default=None, repr=False
    )
    #: rows of B masked out (cross-quadrant cases); None = full B
    b_row_mask: Callable[[CSRMatrix, CSRMatrix], np.ndarray] | None = field(
        default=None, repr=False
    )
    #: pinned kernel backend; None = follow the harness ``--backend`` axis
    backend: str | None = None

    def __post_init__(self) -> None:
        if "." in self.name:
            raise ValueError(f"case name must not contain dots: {self.name!r}")
        if self.kind not in ("kernel", "end_to_end"):
            raise ValueError(f"unknown case kind {self.kind!r}")

    def load_workload(self) -> Workload:
        return get_workload(self.workload)


def verify_against_scipy(
    a: CSRMatrix, b: CSRMatrix, out: CaseOutput,
    mask: np.ndarray | None = None,
    *,
    exact: bool = True,
) -> None:
    """Assert ``out.matrix`` equals scipy's product.

    ``exact=True`` (kernel cases) demands **bit-for-bit** equality —
    the vectorised kernels share scipy's k-major accumulation order.
    ``exact=False`` (end-to-end cases) allows float round-off: Algorithm
    HH-CPU sums per-quadrant partials in the Phase IV merge, a different
    (equally valid) association order, so only ``allclose`` holds there.

    With ``mask``, the oracle multiplies by B with the masked-out rows
    structurally removed (not merely zeroed), so scipy accumulates
    exactly the terms the masked kernel does.
    """
    sa = a.to_scipy().tocsr()
    sb = b.to_scipy().tocsr()
    if mask is not None:
        sb = sb.multiply(np.asarray(mask, dtype=float)[:, None]).tocsr()
        sb.eliminate_zeros()
    ref = (sa @ sb).tocsr()
    ref.sort_indices()
    m = out.matrix
    if hasattr(m, "tocsr"):  # COO kernel outputs; CSRMatrix is already CSR
        m = m.tocsr()
    got = m.to_scipy().tocsr()
    got.sort_indices()
    structure_ok = np.array_equal(got.indptr, ref.indptr) and np.array_equal(
        got.indices, ref.indices
    )
    if exact:
        if not (structure_ok and np.array_equal(got.data, ref.data)):
            raise AssertionError("bench result is not bit-identical to scipy")
    elif not (structure_ok and np.allclose(got.data, ref.data, rtol=1e-12, atol=0.0)):
        raise AssertionError("bench result does not match scipy within tolerance")


def _median_degree_mask(a: CSRMatrix, b: CSRMatrix) -> np.ndarray:
    """The Phase I-shaped high-row mask: B rows at/above median size."""
    sizes = b.row_nnz()
    return sizes >= np.median(sizes)


_REGISTRY: dict[str, BenchCase] = {}


def _register(case: BenchCase) -> BenchCase:
    if case.name in _REGISTRY:
        raise ValueError(f"duplicate case name {case.name!r}")
    _REGISTRY[case.name] = case
    return case


def _kernel_case(fn: Callable, **kwargs) -> Callable:
    def make(a: CSRMatrix, b: CSRMatrix, backend: str) -> Callable[[], CaseOutput]:
        return lambda: CaseOutput(matrix=fn(a, b, backend=backend, **kwargs).result)

    return make


def _masked_kernel_case(fn: Callable) -> Callable:
    def make(a: CSRMatrix, b: CSRMatrix, backend: str) -> Callable[[], CaseOutput]:
        mask = _median_degree_mask(a, b)
        return lambda: CaseOutput(
            matrix=fn(a, b, b_row_mask=mask, backend=backend).result
        )

    return make


def _e2e_case() -> Callable:
    def make(a: CSRMatrix, b: CSRMatrix, backend: str) -> Callable[[], CaseOutput]:
        from repro.core import hhcpu_multiply

        def run() -> CaseOutput:
            result = hhcpu_multiply(a, b, backend=backend)
            return CaseOutput(matrix=result.matrix, sim_time_s=result.total_time)

        return run

    return make


def _build_registry() -> None:
    for wl in iter_workloads():
        _register(BenchCase(
            name=f"hash-{wl.name}", kind="kernel", workload=wl.name,
            description=f"vectorised hash-accumulator kernel on {wl.name}",
            tags=wl.tags, make=_kernel_case(hash_multiply),
        ))
        _register(BenchCase(
            name=f"spa-{wl.name}", kind="kernel", workload=wl.name,
            description=f"batched SPA kernel on {wl.name}",
            tags=wl.tags, make=_kernel_case(spa_multiply),
        ))
        _register(BenchCase(
            name=f"esc-{wl.name}", kind="kernel", workload=wl.name,
            description=f"ESC kernel on {wl.name}",
            tags=wl.tags, make=_kernel_case(esc_multiply),
        ))
        _register(BenchCase(
            name=f"adaptive-{wl.name}", kind="kernel", workload=wl.name,
            description=f"adaptive per-row-regime kernel on {wl.name}",
            tags=wl.tags + ("adaptive",), make=_kernel_case(adaptive_multiply),
        ))
        if SMOKE in wl.tags:
            # the scalar references only run at smoke sizes — they are
            # the denominators of the vectorisation speedup ratios.
            # Their slow=True / row_block=None escape hatches bypass the
            # backend registry, so the backend axis is pinned to keep
            # the report column truthful.
            _register(BenchCase(
                name=f"hash-slow-{wl.name}", kind="kernel", workload=wl.name,
                description=f"reference dictionary-walk hash kernel on {wl.name}",
                tags=wl.tags + ("reference",),
                make=_kernel_case(hash_multiply, slow=True),
                backend="numpy",
            ))
            _register(BenchCase(
                name=f"spa-rowwise-{wl.name}", kind="kernel", workload=wl.name,
                description=f"reference per-row SPA kernel on {wl.name}",
                tags=wl.tags + ("reference",),
                make=_kernel_case(spa_multiply, row_block=None),
                backend="numpy",
            ))
    for wl_name in ("powerlaw-sm", "powerlaw-md"):
        wl = get_workload(wl_name)
        _register(BenchCase(
            name=f"hash-quadrant-{wl.name}", kind="kernel", workload=wl.name,
            description=f"cross-quadrant masked product (A x B_H) on {wl.name}",
            tags=wl.tags, make=_masked_kernel_case(hash_multiply),
            b_row_mask=_median_degree_mask,
        ))
    for wl_name in ("powerlaw-sm", "rmat-sm", "powerlaw-md"):
        wl = get_workload(wl_name)
        _register(BenchCase(
            name=f"e2e-hhcpu-{wl.name}", kind="end_to_end", workload=wl.name,
            description=f"full Algorithm HH-CPU run on {wl.name}",
            tags=wl.tags, make=_e2e_case(),
        ))


_build_registry()


def get_case(name: str) -> BenchCase:
    """Look up one case by name; raise ``KeyError`` with the list."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown case {name!r}; available: {', '.join(sorted(_REGISTRY))}"
        ) from None


def iter_cases(filter_substr: str | None = None) -> list[BenchCase]:
    """Registered cases in name order, optionally filtered.

    ``filter_substr`` selects cases whose name, workload, or any tag
    contains the substring — ``--filter smoke`` selects the CI subset.
    """
    cases = [_REGISTRY[name] for name in sorted(_REGISTRY)]
    if filter_substr is None:
        return cases
    needle = filter_substr.lower()
    return [
        c for c in cases
        if needle in c.name.lower()
        or needle in c.workload.lower()
        or any(needle in t.lower() for t in c.tags)
    ]
