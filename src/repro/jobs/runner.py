"""The durable job runner: checkpointed, budgeted HH-CPU runs.

Drives the same :class:`~repro.core.hhcpu.HHCPU` stage methods as
``HHCPU.multiply`` but persists a versioned snapshot
(:mod:`repro.jobs.snapshot`) after Phase I, after Phase II, every
``checkpoint_every`` completed Phase III work-units, and at the drained
queue — so a job killed at any point (including SIGKILL mid-Phase-III)
resumes from the newest valid checkpoint and produces a result
**bit-identical** to the uninterrupted run.

What makes bit-identity possible (and what the checkpoint captures):

- discrete-event steps are atomic — a slice boundary always falls on a
  completed work-unit, never inside one;
- Phase IV's stable merge sums duplicate ``(r, c)`` keys in parts
  order, so preserving part *completion order* across the pause
  preserves every floating-point summation order;
- the snapshot holds the device/PCIe clocks, the full trace, the
  thresholds, the workqueue cursors + dequeue log, the scheduler carry
  (retry budgets and backoff deadlines), and the fault injector's RNG
  state — the partition, contexts, and queue *contents* are
  deterministically recomputed instead of stored;
- the parts are written once: each snapshot takes only the Phase II /
  Phase III parts completed since the previous one, and its chain of
  earlier files gives back all of them in completion order.

Resource guardrails: ``mem_budget_bytes`` flows to the algorithm's
chunked Phase II / grouped Phase IV fallbacks, and ``deadline_s`` is a
simulated-time budget — the run curtails gracefully at the deadline,
checkpoints, and raises :class:`~repro.util.errors.ResourceExhausted`
(the job is resumable with a larger budget; the deadline is deliberately
left out of the config fingerprint for exactly that reason).
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

import numpy as np

from repro.backends import resolve_spec
from repro.core.hhcpu import HHCPU, HHCPURunState
from repro.core.result import SpmmResult
from repro.faults.spec import FaultSpec
from repro.formats.validation import ensure_canonical
from repro.hardware.platform import HeteroPlatform, default_platform
from repro.hardware.trace import TraceEvent
from repro.hetero.partition import partition_rows
from repro.hetero.scheduler import Phase3Carry, Phase3Outcome
from repro.hetero.workqueue import DEFAULT_CPU_ROWS, DEFAULT_GPU_ROWS
from repro.jobs.snapshot import Chain, Resumable, find_resumable, write_checkpoint
from repro.obs.events import EVENTS
from repro.obs.metrics import METRICS
from repro.util.errors import FaultError, ResourceExhausted

#: fingerprint domain tag; bump when the fingerprinted config changes
_FINGERPRINT_DOMAIN = "repro-job/2"

#: outcome counters round-tripped through the checkpoint
_OUTCOME_FIELDS = (
    "cpu_units", "gpu_units", "cpu_stolen", "gpu_stolen",
    "retries", "timeouts", "requeues",
    "failover_units", "failover_rows", "completed", "deadline_curtailed",
)


def _jsonable(value):
    """Coerce trace metadata to JSON-able primitives (numpy scalars
    become Python scalars; anything exotic degrades to ``str``)."""
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return str(value)


class JobRunner:
    """One durable ``C = A @ B`` job over a checkpoint directory.

    Parameters mirror :class:`~repro.core.hhcpu.HHCPU` (kernel, unit
    sizes, thresholds, fault spec, memory budget) plus the durability
    knobs: ``checkpoint_dir``, ``checkpoint_every`` (Phase III units per
    snapshot; None disables mid-phase snapshots), ``deadline_s`` (a
    simulated-time budget), and ``sigkill_after_checkpoints`` (a
    determinism hook for kill-and-resume tests: the process SIGKILLs
    itself immediately after writing the N-th checkpoint).

    A configuration **fingerprint** (operand bytes + name/scale/kernel/
    backend spec/unit sizes/thresholds/fault spec/memory budget) is
    stamped into every checkpoint; resuming under a different
    configuration is refused rather than silently computing something
    else.  In particular a checkpoint written under one
    :class:`repro.backends.BackendSpec` refuses to resume under another
    — regime thresholds decide which accumulator touched each row, so
    crossing specs could silently change summation order.  The deadline
    and checkpoint cadence are excluded, so an exhausted job can be
    resumed with a larger budget.
    """

    def __init__(
        self,
        a,
        b,
        *,
        checkpoint_dir: str | Path,
        platform_factory: Callable[[], HeteroPlatform] = default_platform,
        kernel: str = "esc",
        backend=None,
        cpu_rows: int = DEFAULT_CPU_ROWS,
        gpu_rows: int = DEFAULT_GPU_ROWS,
        threshold_a: int | None = None,
        threshold_b: int | None = None,
        faults: FaultSpec | None = None,
        mem_budget_bytes: int | None = None,
        deadline_s: float | None = None,
        checkpoint_every: int | None = 25,
        matrix_name: str = "",
        scale: float = 1.0,
        sigkill_after_checkpoints: int | None = None,
    ):
        self.a = ensure_canonical(a, name="a")
        self.b = ensure_canonical(b, name="b")
        self.checkpoint_dir = Path(checkpoint_dir)
        self.platform_factory = platform_factory
        self.kernel = kernel
        self.backend_spec = resolve_spec(backend)
        self.cpu_rows = int(cpu_rows)
        self.gpu_rows = int(gpu_rows)
        self.threshold_a = threshold_a
        self.threshold_b = threshold_b
        self.fault_spec = faults
        self.mem_budget_bytes = mem_budget_bytes
        self.deadline_s = deadline_s
        if checkpoint_every is not None and checkpoint_every <= 0:
            raise ValueError("checkpoint_every must be positive or None")
        self.checkpoint_every = checkpoint_every
        self.matrix_name = matrix_name
        self.scale = float(scale)
        self.sigkill_after_checkpoints = sigkill_after_checkpoints
        self.fingerprint = self._fingerprint()
        self._seq = 0
        self._written = 0
        #: the job's part-holding checkpoints, and how many Phase II /
        #: Phase III parts they already hold
        self._chain = Chain()
        self._durable = (0, 0)
        self._crash_checkpoints = (
            frozenset(faults.crash_checkpoints()) if faults else frozenset()
        )
        self._algo: HHCPU | None = None

    @property
    def checkpoints_written(self) -> int:
        """Snapshots durably written by *this* runner instance (resets
        per process; resumed runners count only their own writes)."""
        return self._written

    # -- configuration identity --------------------------------------------
    def _fingerprint(self) -> str:
        h = hashlib.sha256()
        h.update(_FINGERPRINT_DOMAIN.encode())
        for arr in (
            self.a.indptr, self.a.indices, self.a.data,
            self.b.indptr, self.b.indices, self.b.data,
        ):
            h.update(np.ascontiguousarray(arr).tobytes())
        config = {
            "matrix_name": self.matrix_name,
            "scale": repr(self.scale),
            "kernel": str(self.kernel),
            "backend": self.backend_spec.as_dict(),
            "cpu_rows": self.cpu_rows,
            "gpu_rows": self.gpu_rows,
            "threshold_a": self.threshold_a,
            "threshold_b": self.threshold_b,
            "faults": self.fault_spec.as_dict() if self.fault_spec else None,
            "mem_budget_bytes": self.mem_budget_bytes,
        }
        h.update(json.dumps(config, sort_keys=True).encode())
        return h.hexdigest()

    # -- the job ------------------------------------------------------------
    def run(self, *, resume: bool = False) -> SpmmResult:
        """Run (or resume) the job to completion.

        Raises :class:`ResourceExhausted` when the simulated deadline is
        spent — the job has been checkpointed and can be resumed with a
        larger ``deadline_s``.
        """
        algo = HHCPU(
            self.platform_factory(),
            kernel=self.kernel,
            backend=self.backend_spec,
            cpu_rows=self.cpu_rows,
            gpu_rows=self.gpu_rows,
            threshold_a=self.threshold_a,
            threshold_b=self.threshold_b,
            faults=self.fault_spec,
            mem_budget_bytes=self.mem_budget_bytes,
        )
        self._algo = algo
        found = (
            find_resumable(self.checkpoint_dir, self.fingerprint)
            if resume
            else None
        )
        if found is None:
            st = algo.begin(self.a, self.b)
            self._seq, self._chain, self._durable = 0, Chain(), (0, 0)
            with self._stage("phase1"):
                algo.run_phase1(st)
            self._checkpoint("phase1", st)
            self._check_deadline("phase1")
            with self._stage("phase2"):
                algo.stage_operands(st)
                algo.make_contexts(st)
                algo.run_phase2(st)
                algo.build_queue(st)
            self._checkpoint("phase2", st)
            self._check_deadline("phase2")
            carry = None
        else:
            st, carry, stage = self._restore(algo, found)
            self._check_deadline(stage)
            if stage == "phase1":
                with self._stage("phase2"):
                    algo.stage_operands(st)
                    algo.run_phase2(st)
                    algo.build_queue(st)
                self._checkpoint("phase2", st)
                self._check_deadline("phase2")
        with self._stage("phase3"):
            self._drain_phase3(st, carry)
        with self._stage("phase4"):
            result = algo.run_phase4(st)
        if METRICS.enabled:
            METRICS.inc("jobs.run.completed")
        if EVENTS.enabled:
            EVENTS.emit(
                "run_complete", sim_t=algo.platform.elapsed,
                result_nnz=int(result.matrix.nnz),
            )
        return result

    @contextmanager
    def _stage(self, stage: str):
        """Bracket one pipeline stage with begin/end events and record
        its simulated duration into the ``jobs.stage.sim_s`` histogram.

        Stage durations come off the *simulated* platform clock
        (``platform.elapsed``); the event log's own ``wall_t`` stamps
        supply the wall-clock side, so the two domains never mix."""
        t0 = self._algo.platform.elapsed
        if EVENTS.enabled:
            EVENTS.emit("stage_begin", stage=stage, sim_t=t0)
        yield
        t1 = self._algo.platform.elapsed
        if METRICS.enabled:
            METRICS.record("jobs.stage.sim_s", t1 - t0)
        if EVENTS.enabled:
            EVENTS.emit("stage_end", stage=stage, sim_t=t1, sim_s=t1 - t0)

    def _drain_phase3(self, st: HHCPURunState, carry: Phase3Carry | None) -> None:
        algo = self._algo
        while True:
            slice_out = algo.run_phase3(
                st,
                max_units=self.checkpoint_every,
                deadline_s=self.deadline_s,
                carry=carry,
            )
            if slice_out.stopped == "max_units":
                carry = slice_out.carry
                self._checkpoint("phase3", st)
                continue
            if slice_out.stopped == "deadline":
                self._checkpoint("phase3", st)
                if METRICS.enabled:
                    METRICS.inc("jobs.deadline.exhausted")
                if EVENTS.enabled:
                    EVENTS.emit(
                        "deadline_exhausted", stage="phase3",
                        deadline_s=self.deadline_s,
                        sim_t=algo.platform.elapsed,
                        remaining_units=int(st.queue.remaining),
                    )
                raise ResourceExhausted(
                    f"simulated deadline of {self.deadline_s}s spent with "
                    f"{st.queue.remaining} Phase III work-unit(s) remaining; "
                    "job checkpointed — resume with a larger --deadline",
                    deadline_s=self.deadline_s,
                    elapsed_s=algo.platform.elapsed,
                    remaining_units=st.queue.remaining,
                    stage="phase3",
                    resumable=True,
                )
            break  # drained
        self._checkpoint("phase3", st)

    def _check_deadline(self, stage: str) -> None:
        if self.deadline_s is None:
            return
        elapsed = self._algo.platform.elapsed
        if elapsed >= self.deadline_s:
            if METRICS.enabled:
                METRICS.inc("jobs.deadline.exhausted")
            if EVENTS.enabled:
                EVENTS.emit(
                    "deadline_exhausted", stage=stage,
                    deadline_s=self.deadline_s, sim_t=elapsed,
                )
            raise ResourceExhausted(
                f"simulated deadline of {self.deadline_s}s already spent "
                f"after {stage} (elapsed {elapsed:.6g}s); job checkpointed — "
                "resume with a larger --deadline",
                deadline_s=self.deadline_s,
                elapsed_s=elapsed,
                stage=stage,
                resumable=True,
            )

    # -- checkpointing -------------------------------------------------------
    def _checkpoint(self, stage: str, st: HHCPURunState) -> Path:
        pf = self._algo.platform
        injector = self._algo.faults
        state = {
            "clocks": {
                "cpu": pf.cpu.clock, "gpu": pf.gpu.clock, "pcie": pf.pcie.clock,
            },
            "trace": [
                {
                    "device": e.device, "phase": e.phase, "label": e.label,
                    "start": e.start, "end": e.end, "meta": _jsonable(e.meta),
                }
                for e in pf.trace.events
            ],
            "t_a": st.t_a,
            "t_b": st.t_b,
            "injector": injector.state_dict() if injector is not None else None,
        }
        parts = {}
        if stage != "phase1":
            carry = st.outcome.carry
            state.update(
                gpu_tuples=int(st.gpu_tuples),
                phase3_gpu_tuples=int(st.phase3_gpu_tuples),
                queue=st.queue.state_dict(),
                outcome={
                    **{f: int(getattr(st.outcome, f)) for f in _OUTCOME_FIELDS},
                    "dead_devices": list(st.outcome.dead_devices),
                },
                carry=(
                    {"attempts": carry.attempts, "ready_at": carry.ready_at}
                    if carry is not None
                    else None
                ),
            )
            n2, n3 = self._durable
            parts = {"p2": st.phase2_parts[n2:], "p3": st.outcome.parts[n3:]}
        path = write_checkpoint(
            self.checkpoint_dir,
            seq=self._seq,
            stage=stage,
            fingerprint=self.fingerprint,
            state=state,
            parts=parts,
            chain=self._chain,
        )
        self._durable = (len(st.phase2_parts), len(st.outcome.parts))
        self._seq += 1
        self._written += 1
        if EVENTS.enabled:
            EVENTS.emit(
                "checkpoint_write", stage=stage, ckpt_seq=self._seq - 1,
                sim_t=pf.elapsed,
            )
        if (
            self.sigkill_after_checkpoints is not None
            and self._written >= self.sigkill_after_checkpoints
        ):
            # determinism hook for kill-and-resume tests: die the hard
            # way (no atexit, no cleanup), exactly after the N-th write
            os.kill(os.getpid(), signal.SIGKILL)
        if self._seq - 1 in self._crash_checkpoints:
            # injected executor crash: the snapshot is already durable,
            # so a checkpointed executor resumes from this very seq.
            # Because _seq continues across resume, each entry fires
            # exactly once per job.
            if METRICS.enabled:
                METRICS.inc("faults.executor.crashes")
            if EVENTS.enabled:
                EVENTS.emit(
                    "fault", fault="executor_crash", stage=stage,
                    ckpt_seq=self._seq - 1, sim_t=pf.elapsed,
                )
            raise FaultError(
                f"injected executor crash after checkpoint {self._seq - 1} "
                f"({stage})",
                reason="executor_crash", at_checkpoint=self._seq - 1,
                stage=stage, resumable=True,
            )
        return path

    # -- resume --------------------------------------------------------------
    def _restore(
        self, algo: HHCPU, found: Resumable
    ) -> tuple[HHCPURunState, Phase3Carry | None, str]:
        meta, parts, self._chain = found
        state = meta["state"]
        stage = meta["stage"]
        st = algo.begin(self.a, self.b)
        pf = algo.platform
        pf.cpu.clock = float(state["clocks"]["cpu"])
        pf.gpu.clock = float(state["clocks"]["gpu"])
        pf.pcie.clock = float(state["clocks"]["pcie"])
        for e in state["trace"]:
            pf.trace.add(TraceEvent(
                device=e["device"], phase=e["phase"], label=e["label"],
                start=e["start"], end=e["end"], meta=dict(e["meta"]),
            ))
        if state["injector"] is not None and algo.faults is not None:
            algo.faults.load_state(state["injector"])
        st.t_a, st.t_b = int(state["t_a"]), int(state["t_b"])
        st.part = partition_rows(st.a, st.b, st.t_a, st.t_b)
        algo.make_contexts(st)
        carry: Phase3Carry | None = None
        if stage != "phase1":
            st.gpu_tuples = int(state["gpu_tuples"])
            st.phase3_gpu_tuples = int(state["phase3_gpu_tuples"])
            st.phase2_parts = parts.get("p2", [])
            algo.build_queue(st)
            st.queue.load_state(state["queue"])
            o = state["outcome"]
            st.outcome = Phase3Outcome(
                parts=parts.get("p3", []),
                dead_devices=tuple(o["dead_devices"]),
                **{f: int(o[f]) for f in _OUTCOME_FIELDS},
            )
            if state["carry"] is not None:
                carry = Phase3Carry(
                    attempts=dict(state["carry"]["attempts"]),
                    ready_at=dict(state["carry"]["ready_at"]),
                )
        self._seq = int(meta["seq"]) + 1
        self._durable = (len(st.phase2_parts), len(st.outcome.parts))
        if METRICS.enabled:
            METRICS.inc("jobs.resume.count")
            METRICS.set_gauge("jobs.resume.from_seq", int(meta["seq"]))
        if EVENTS.enabled:
            EVENTS.emit(
                "resume", stage=stage, from_seq=int(meta["seq"]),
                sim_t=algo.platform.elapsed,
            )
        return st, carry, stage
