"""Phase III scheduling: draining the double-ended workqueue.

Driven by the discrete-event engine: each device, when free, dequeues
from its end of the queue, pays its per-dequeue synchronisation
overhead, executes the unit (real numerics, modelled time), and
re-schedules itself.  The loop ends when the cursors meet, at which
point conservation is checked (every unit executed exactly once).

With a :class:`~repro.faults.injector.FaultInjector` attached the loop
also survives injected faults: a crashed device stops dequeueing (its
in-flight unit is curtailed and requeued, and the surviving device
drains both ends of the queue), transient work-unit errors and timeouts
retry with capped exponential backoff in simulated time, and dequeue
stalls charge idle time before the pop.  Conservation still demands
exactly one *completed* execution per unit; only when every device dies
with work remaining does the phase raise :class:`FaultError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.faults.policy import DEFAULT_RETRY_POLICY, RetryPolicy
from repro.formats.coo import COOMatrix
from repro.hardware.engine import EventEngine, EventHandle
from repro.hardware.platform import HeteroPlatform
from repro.hetero.workqueue import DoubleEndedWorkQueue, WorkUnit
from repro.obs.events import EVENTS
from repro.obs.metrics import METRICS
from repro.sanitize.rsan import RSAN
from repro.util.errors import FaultError

#: executes a unit on a device kind ("cpu" / "gpu"); returns the tuple part
UnitExecutor = Callable[[str, WorkUnit], COOMatrix]

#: which queue end each device kind dequeues from
QUEUE_ENDS = {"cpu": "front", "gpu": "back"}


@dataclass
class Phase3Carry:
    """Scheduler state that must survive a sliced (paused) drain.

    ``attempts`` is the per-unit failed-attempt tally (retry budgets
    continue across the pause); ``ready_at`` records, per living device,
    the simulated time of its cancelled next-dequeue event — a device
    sitting out a retry backoff must not forget the remainder of it.
    Both are plain JSON-able scalars so the jobs layer can checkpoint a
    carry verbatim.
    """

    attempts: dict = field(default_factory=dict)
    ready_at: dict = field(default_factory=dict)


@dataclass
class Phase3Outcome:
    """Results of a drained Phase III queue."""

    parts: list[COOMatrix] = field(default_factory=list)
    cpu_units: int = 0
    gpu_units: int = 0
    #: units each device took from the *other* product's end
    cpu_stolen: int = 0
    gpu_stolen: int = 0
    #: fault bookkeeping (all zero / empty on a healthy run)
    retries: int = 0
    timeouts: int = 0
    requeues: int = 0
    #: dequeues and rows executed by a survivor after its peer died
    failover_units: int = 0
    failover_rows: int = 0
    dead_devices: tuple = ()
    #: units completed by *this call* (== len(parts) for a fresh outcome)
    completed: int = 0
    #: units curtailed + requeued because they crossed the deadline
    deadline_curtailed: int = 0
    #: why the drain stopped early: "max_units" | "deadline" | None (drained)
    stopped: str | None = None
    #: resume state when ``stopped`` is set
    carry: Phase3Carry | None = None

    def accumulate(self, other: "Phase3Outcome") -> None:
        """Fold a later slice's outcome into this accumulated one.

        Parts are appended in completion order — Phase IV's stable merge
        sums duplicates in parts order, so this ordering is what makes a
        resumed run bit-identical to an uninterrupted one.
        """
        self.parts.extend(other.parts)
        self.cpu_units += other.cpu_units
        self.gpu_units += other.gpu_units
        self.cpu_stolen += other.cpu_stolen
        self.gpu_stolen += other.gpu_stolen
        self.retries += other.retries
        self.timeouts += other.timeouts
        self.requeues += other.requeues
        self.failover_units += other.failover_units
        self.failover_rows += other.failover_rows
        self.completed += other.completed
        self.deadline_curtailed += other.deadline_curtailed
        self.dead_devices = tuple(sorted(set(self.dead_devices) | set(other.dead_devices)))
        self.stopped = other.stopped
        self.carry = other.carry


def run_workqueue_phase(
    platform: HeteroPlatform,
    queue: DoubleEndedWorkQueue,
    execute: UnitExecutor,
    *,
    gpu_batch_rows: int | None = None,
    faults=None,
    retry: RetryPolicy | None = None,
    max_units: int | None = None,
    deadline_s: float | None = None,
    carry: Phase3Carry | None = None,
    tiebreak: Callable[[], int] | None = None,
) -> Phase3Outcome:
    """Drain ``queue`` with both devices running asynchronously.

    ``execute(kind, unit)`` must run the unit's numeric kernel and
    charge the modelled time (including dequeue overhead) to the
    matching device; this scheduler only decides *who* takes *which*
    unit *when*, using each device's private clock.

    ``faults`` (default: ``platform.faults``) enables the degradation
    path; ``retry`` overrides the injector's retry policy.

    The jobs layer drains in *slices*: ``max_units`` stops the drain
    after that many completed units (pending dequeues are cancelled and
    recorded in the returned :class:`Phase3Carry`); ``deadline_s`` is a
    simulated-time budget — a unit whose execution crosses it is
    curtailed at the deadline and requeued, and devices park instead of
    dequeueing past it.  A stopped drain sets ``outcome.stopped`` and
    ``outcome.carry``; pass the carry back (with the queue in its
    checkpointed state) to continue exactly where the drain paused —
    unit completion order, and therefore the Phase IV merge, is
    preserved bit-for-bit.

    ``tiebreak`` is forwarded to the :class:`EventEngine`: a seeded
    draw there permutes equal-simulated-time event order, which the
    sanitizer harness uses to assert the drain is tie-break invariant.
    """
    injector = faults if faults is not None else platform.faults
    policy = retry or (injector.retry if injector is not None else DEFAULT_RETRY_POLICY)
    outcome = Phase3Outcome()
    engine = EventEngine(tiebreak=tiebreak)
    devices = {"cpu": platform.cpu, "gpu": platform.gpu}
    dead: set[str] = set()
    parked: set[str] = set()
    deadline_parked: set[str] = set()
    pending: dict[str, EventHandle] = {}
    scheduled_at: dict[str, float] = {}
    tallies = {kind: {"dequeues": 0, "rows": 0, "steals": 0} for kind in devices}

    def _flush_metrics() -> None:
        if not METRICS.enabled:
            return
        for kind, t in tallies.items():
            if t["dequeues"]:
                METRICS.inc(f"phase3.workqueue.{kind}.dequeues", t["dequeues"])
                METRICS.inc(f"phase3.workqueue.{kind}.rows", t["rows"])
            if t["steals"]:
                METRICS.inc(f"phase3.workqueue.{kind}.steals", t["steals"])
        if outcome.failover_units:
            METRICS.inc("phase3.failover.units", outcome.failover_units)
            METRICS.inc("phase3.failover.rows", outcome.failover_rows)
    #: failed attempts per queue-unit index (batched units share their
    #: lead unit's budget — they requeue and retry as one launch);
    #: seeded from a carry so retry budgets span sliced drains
    attempts: dict[int, int] = (
        {int(k): int(v) for k, v in carry.attempts.items()} if carry else {}
    )

    def _schedule(kind: str, at: float) -> None:
        scheduled_at[kind] = at
        pending[kind] = engine.schedule(at, steps[kind])

    def _kill(kind: str, at: float) -> None:
        dead.add(kind)
        parked.discard(kind)
        deadline_parked.discard(kind)
        injector.mark_dead(kind, at)
        handle = pending.pop(kind, None)
        if handle is not None:
            handle.cancel()

    def _stop(reason: str) -> None:
        """Pause the drain: cancel pending dequeues, remember when each
        living device would have taken its next unit."""
        outcome.stopped = reason
        ready = {}
        for kind, handle in pending.items():
            handle.cancel()
            ready[kind] = scheduled_at[kind]
        pending.clear()
        for kind in sorted(deadline_parked | parked):
            if kind not in dead:
                ready.setdefault(kind, devices[kind].clock)
        outcome.carry = Phase3Carry(attempts=dict(attempts), ready_at=ready)

    def _kick_survivors() -> None:
        """Work reappeared (a requeue): wake any parked, living peer."""
        for kind in sorted(parked):
            if kind in dead:
                continue
            parked.discard(kind)
            _schedule(kind, max(engine.now, devices[kind].clock))

    def _complete(kind: str, unit: WorkUnit, part: COOMatrix, sim_s: float) -> None:
        if RSAN.enabled:
            RSAN.on_unit_complete(kind, unit, devices[kind].clock)
        outcome.parts.append(part)
        outcome.completed += 1
        stolen_product = "AH_BL" if kind == "cpu" else "AL_BH"
        stolen = unit.product == stolen_product
        if kind == "cpu":
            outcome.cpu_units += 1
            outcome.cpu_stolen += int(stolen)
        else:
            outcome.gpu_units += 1
            outcome.gpu_stolen += int(stolen)
        failover = bool(dead)
        if failover:
            outcome.failover_units += 1
            outcome.failover_rows += unit.nrows
        # metrics are tallied locally and flushed once after the drain
        # (batched bookkeeping: O(1) metric calls per phase, not per unit)
        t = tallies[kind]
        t["dequeues"] += 1
        t["rows"] += unit.nrows
        t["steals"] += int(stolen)
        if METRICS.enabled:
            METRICS.record("phase3.unit.sim_s", sim_s)
        if EVENTS.enabled:
            EVENTS.emit(
                "unit_complete", device=kind, product=unit.product,
                units=len(unit.members), rows=int(unit.nrows),
                sim_t=devices[kind].clock, sim_s=sim_s,
                stolen=stolen, failover=failover,
            )

    def step(kind: str) -> None:
        device = devices[kind]
        end = QUEUE_ENDS[kind]
        pending.pop(kind, None)
        device.wait_until(engine.now)
        if injector is not None and injector.crashed(kind, device.clock):
            _kill(kind, injector.crash_time(kind))
            return
        if deadline_s is not None and device.clock >= deadline_s:
            # past the budget: no new work starts on this device
            deadline_parked.add(kind)
            return
        if not queue.has_work():
            parked.add(kind)
            return
        if injector is not None:
            stall = injector.dequeue_stall(kind, device.clock)
            if stall > 0:
                device.busy("III", f"fault:stall:{kind}", stall, kind="fault")
                if injector.crashed(kind, device.clock):
                    _kill(kind, injector.crash_time(kind))
                    return
                if deadline_s is not None and device.clock >= deadline_s:
                    # the stall consumed the rest of the budget
                    deadline_parked.add(kind)
                    return
        unit = (
            queue.pop_back_batch(gpu_batch_rows)
            if kind == "gpu" and gpu_batch_rows
            else (queue.pop_front() if end == "front" else queue.pop_back())
        )
        t0 = device.clock
        if RSAN.enabled:
            RSAN.on_unit_start(kind, unit, t0)
        part = execute(kind, unit)
        if injector is not None:
            crash_t = injector.crash_time(kind)
            if crash_t is not None and t0 <= crash_t < device.clock:
                # the crash landed inside this attempt: truncate the
                # trace there, give the unit back, and stop this device
                lost = device.clock - crash_t
                device.curtail(crash_t, reason="crash")
                if RSAN.enabled:
                    RSAN.on_unit_requeue(kind, unit, crash_t)
                queue.requeue(unit, end=end)
                outcome.requeues += len(unit.members)
                if METRICS.enabled:
                    METRICS.inc("faults.unit.lost_s", lost)
                if EVENTS.enabled:
                    EVENTS.emit(
                        "unit_curtailed", device=kind, reason="crash",
                        product=unit.product, units=len(unit.members),
                        sim_t=crash_t, lost_s=lost,
                    )
                _kill(kind, crash_t)
                _kick_survivors()
                return
        if deadline_s is not None and device.clock > deadline_s:
            # the unit crossed the simulated-time budget: graceful
            # curtailment — the attempt is cut at the deadline, the unit
            # goes back whole, and the device parks.  A faster living
            # peer still under budget may pick it up; otherwise the
            # caller checkpoints and reports ResourceExhausted.
            device.curtail(deadline_s, reason="deadline")
            if RSAN.enabled:
                RSAN.on_unit_requeue(kind, unit, deadline_s)
            queue.requeue(unit, end=end)
            outcome.requeues += len(unit.members)
            outcome.deadline_curtailed += len(unit.members)
            deadline_parked.add(kind)
            if METRICS.enabled:
                METRICS.inc("phase3.deadline.curtailed_units", len(unit.members))
            if EVENTS.enabled:
                EVENTS.emit(
                    "unit_curtailed", device=kind, reason="deadline",
                    product=unit.product, units=len(unit.members),
                    sim_t=deadline_s,
                )
            _kick_survivors()
            return
        if injector is not None:
            duration = device.clock - t0
            timed_out = (
                policy.unit_timeout_s is not None
                and duration > policy.unit_timeout_s
            )
            errored = injector.unit_attempt_fails(kind)
            if (timed_out or errored) and attempts.get(unit.index, 0) < policy.max_attempts - 1:
                attempts[unit.index] = attempts.get(unit.index, 0) + 1
                if timed_out:
                    # the watchdog abandons the attempt at the timeout;
                    # the tail of the modelled run never happens
                    cut = t0 + policy.unit_timeout_s
                    reason = "timeout"
                    outcome.timeouts += 1
                else:
                    cut = device.clock
                    reason = "error"
                lost = duration - (cut - t0)
                device.curtail(cut, reason=reason)
                if RSAN.enabled:
                    RSAN.on_unit_requeue(kind, unit, cut)
                queue.requeue(unit, end=end)
                outcome.requeues += len(unit.members)
                outcome.retries += 1
                backoff = policy.backoff_s(attempts[unit.index])
                if METRICS.enabled:
                    METRICS.inc("faults.unit.retries")
                    if timed_out:
                        METRICS.inc("faults.unit.timeouts")
                    METRICS.inc("faults.unit.lost_s", lost)
                    METRICS.inc("faults.retry.backoff_s", backoff)
                if EVENTS.enabled:
                    EVENTS.emit(
                        "unit_retry", device=kind, reason=reason,
                        product=unit.product, attempt=attempts[unit.index],
                        backoff_s=backoff, lost_s=lost, sim_t=device.clock,
                    )
                _kick_survivors()
                _schedule(kind, device.clock + backoff)
                return
            # attempt budget exhausted: accept the run as completed —
            # forced completion guarantees progress under any schedule
        _complete(kind, unit, part, device.clock - t0)
        _schedule(kind, device.clock)
        if (
            max_units is not None
            and outcome.completed >= max_units
            and queue.has_work()
        ):
            _stop("max_units")

    steps = {kind: (lambda k=kind: step(k)) for kind in devices}
    for kind, device in devices.items():
        # a device that already died (e.g. during Phase II) never joins:
        # registering the death up front makes the peer's work count as
        # failover from its first dequeue
        if injector is not None and injector.crashed(kind, device.clock):
            _kill(kind, injector.crash_time(kind))
        else:
            at = device.clock
            if carry is not None and kind in carry.ready_at:
                # a paused retry backoff resumes where it left off
                at = max(at, float(carry.ready_at[kind]))
            _schedule(kind, at)
    try:
        engine.run()
    finally:
        # ``steps`` and the ``step``/``_schedule`` closures refer to each
        # other; breaking the cycle lets refcounting free the run's state
        # (executor, run state, COO parts) as soon as the caller drops it
        steps.clear()
    _flush_metrics()
    if outcome.stopped is None and queue.has_work() and deadline_parked - dead:
        # every living device parked at the deadline with work remaining
        _stop("deadline")
    outcome.dead_devices = tuple(sorted(dead))
    if outcome.stopped is not None:
        # a paused drain: conservation holds by construction (requeues
        # withdrew their log entries) and is re-checked when the final
        # slice drains the queue
        return outcome
    if queue.has_work():
        raise FaultError(
            f"all devices crashed ({sorted(dead)}) with "
            f"{queue.remaining} work-unit(s) remaining"
        )
    queue.check_conservation()
    if METRICS.enabled or EVENTS.enabled:
        # starvation: simulated idle a device accumulates at the phase
        # barrier after its end of the queue drained first; meaningless
        # for a dead device (its clock froze at the crash)
        end = max(platform.cpu.clock, platform.gpu.clock)
        for kind in sorted(devices):
            device = devices[kind]
            alive = kind not in dead
            if METRICS.enabled and alive:
                METRICS.set_gauge(
                    f"phase3.workqueue.{kind}.starvation_s", end - device.clock
                )
            if EVENTS.enabled:
                t = tallies[kind]
                EVENTS.emit(
                    "phase_complete", phase="III", device=kind,
                    dequeues=t["dequeues"], rows=t["rows"], steals=t["steals"],
                    dead=not alive, sim_t=device.clock,
                    starvation_s=(end - device.clock) if alive else 0.0,
                )
    return outcome
