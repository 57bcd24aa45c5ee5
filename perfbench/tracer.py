"""Per-layer host self time, recorded from outside the program.

The tracer wraps public callables where the program looks them up at
call time (a module attribute, a class attribute, or an entry of a
registry dict) and restores them on :meth:`Tracer.uninstall`, so no
file under ``src/`` changes.  Each wrapped call is a span of one layer.
A layer's self time is the span's duration minus the time of the spans
nested inside it, so the self times of all layers add up to the time of
the outermost spans, which the benchmark opens around each operation.

A hook whose module or attribute no longer exists is recorded in
:attr:`Tracer.missing` instead of raising: a refactor of the program
shows up as ``trace.hooks_missing`` and never breaks the benchmark.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from pathlib import Path


def _count(name):
    def read(counts, result):
        counts[name] += 1

    return read


def _kernel(counts, result):
    counts["kernels.calls"] += 1
    counts["kernels.flops"] += result.stats.flops


def _merge(counts, result):
    counts["kernels.merge.tuples_in"] += result.stats.tuples_in
    counts["kernels.merge.masters"] += result.stats.masters


def _scheduler(counts, result):
    counts["hetero.scheduler.units"] += result.cpu_units + result.gpu_units


def _snapshot(counts, result):
    counts["jobs.snapshot.calls"] += 1
    counts["jobs.snapshot.bytes"] += Path(result).stat().st_size


def _verifier(counts, result):
    counts["resilience.verifier.calls"] += 1
    counts["resilience.verifier.rows"] += result


#: (layer, module, attribute, reader of the call's result).  The
#: attribute is looked up on the module; ``Class.method`` patches the
#: class, and a dict attribute has every value wrapped.  A layer of
#: ``None`` counts calls without timing them.
HOOKS = (
    ("core.threshold", "repro.core.hhcpu", "select_threshold",
     _count("core.threshold.calls")),
    (None, "repro.core.threshold", "estimate_times",
     _count("core.threshold.estimates")),
    ("kernels", "repro.kernels", "SPMM_KERNELS", _kernel),
    ("kernels.merge", "repro.core.hhcpu", "merge_tuples", _merge),
    ("kernels.merge", "repro.core.hhcpu", "merge_tuples_grouped", _merge),
    ("hetero.scheduler", "repro.core.hhcpu", "run_workqueue_phase", _scheduler),
    ("hetero.partition", "repro.core.hhcpu", "partition_rows", None),
    ("hetero.partition", "repro.jobs.runner", "partition_rows", None),
    ("costmodel", "repro.core.hhcpu", "make_context", None),
    ("formats.validation", "repro.core.hhcpu", "ensure_canonical",
     _count("formats.validation.calls")),
    ("formats.validation", "repro.jobs.runner", "ensure_canonical",
     _count("formats.validation.calls")),
    ("core.hhcpu", "repro.core.hhcpu", "HHCPU.multiply", None),
    ("core.hhcpu", "repro.service.core", "PipelineExecutor.execute", None),
    ("jobs.snapshot", "repro.jobs.runner", "write_checkpoint", _snapshot),
    ("jobs.snapshot", "repro.jobs.runner", "find_resumable", None),
    ("jobs.runner", "repro.jobs.runner", "JobRunner.__init__", None),
    ("jobs.runner", "repro.jobs.runner", "JobRunner.run", None),
    ("resilience.verifier", "repro.resilience.executor", "verify_result", _verifier),
    ("resilience.executor", "repro.resilience.executor",
     "ResilientExecutor.execute", None),
)


class Tracer:
    """Span stack, per-layer self time and counters for one run."""

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        #: child-time accumulator of each open span, innermost last
        self._stack: list[float] = []
        #: (owner, key, original) to restore, in install order
        self._patches: list[tuple[object, object, object]] = []
        self._targets = self._resolve()

    def _resolve(self) -> list[tuple[object, object, str | None, object]]:
        """Find every hook target once; record the ones that are gone."""
        targets = []
        for layer, module, attr, reader in HOOKS:
            try:
                owner = importlib.import_module(module)
                *path, name = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                value = getattr(owner, name)
            except (ImportError, AttributeError):
                self.missing.append(f"{module}:{attr}")
                continue
            if isinstance(value, dict):
                targets += [(value, key, layer, reader) for key in value]
            else:
                targets.append((owner, name, layer, reader))
        return targets

    def install(self) -> None:
        for owner, key, layer, reader in self._targets:
            if isinstance(owner, dict):
                original = owner[key]
                owner[key] = self._wrap(original, layer, reader)
            else:
                original = vars(owner)[key]
                setattr(owner, key, self._wrap(original, layer, reader))
            self._patches.append((owner, key, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    def _wrap(self, fn, layer, reader):
        counts = self.counts

        if layer is None:
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                reader(counts, result)
                return result

            return counted

        def timed(*args, **kwargs):
            t0 = self.enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(layer, t0)
            if reader is not None:
                reader(counts, result)
            return result

        return timed

    def enter(self) -> float:
        """Open a span; pair with :meth:`exit`."""
        self._stack.append(0.0)
        return time.perf_counter()

    def exit(self, layer: str | None, t0: float) -> float:
        """Close the innermost span and charge its self time to
        ``layer``; ``None`` charges nobody, which takes the span's time
        out of its parent and out of the traced total."""
        dur = time.perf_counter() - t0
        child = self._stack.pop()
        if layer is not None:
            self.self_s[layer] += dur - child
        if self._stack:
            self._stack[-1] += dur
        return dur
