"""One benchmark process: build a workload from the seed, set up, measure.

``run.py`` starts this script once per set-up probe (``--mode setup``)
and once for the measured run (``--mode measure``), single-threaded.
It prints one JSON object as the last line of its standard output and
exits 0, 1 when an operation failed, or 2 when the inputs the seed
produces no longer match ``fingerprints.json``.

Set-up is everything from process start (``--t0``, a ``perf_counter``
reading taken by the parent just before the spawn) to the first timed
operation: imports, building inputs, the fingerprint check and one
warm-up operation on inputs the measured operations never see.  Like
every host time it is reported at reference host speed
(:class:`Calibration`).

Every input is drawn from a generator family and kept only if the
intermediate-product count of ``A @ A`` lies within ``BAND`` of the
family's target, so each workload runs at a stated input size and a
new seed draws new operands of the same size.
"""

import time

T_IMPORT = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import tracemalloc  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy.sparse  # noqa: E402,F401  (the reference products)

from repro.core.hhcpu import HHCPU  # noqa: E402
from repro.resilience.config import ResilienceConfig  # noqa: E402
from repro.resilience.executor import ResilientExecutor  # noqa: E402
from repro.scalefree.generators import (  # noqa: E402
    powerlaw_matrix,
    rmat_matrix,
    uniform_matrix,
)
from repro.service.core import (  # noqa: E402
    COMPLETED,
    JobRequest,
    JobService,
    PipelineExecutor,
    ServiceConfig,
    TenantQuota,
)
from repro.service.loadgen import execute_schedule  # noqa: E402

from tracer import Tracer  # noqa: E402

#: seed whose inputs ``fingerprints.json`` records
DEFAULT_SEED = 20150525
#: accepted relative distance of an operand's products from its target
BAND = 0.15
#: results must match scipy's structure exactly and its values to this
RTOL = 1e-12
#: requests per simulated second of each serve tenant
RATE_PER_S = 150.0
#: operand pairs in each serve tenant's pool
POOL = 4
#: requests per tenant in one serve round
ROUND = 25
#: requests per tenant in the round whose peak memory is reported
MEM_ROUND = 10
#: calibration kernel time (s) of the reference host speed that host
#: times are reported at
CAL_REF_S = 0.020
FINGERPRINTS = HERE / "fingerprints.json"


@dataclass(frozen=True)
class Family:
    """A generator of square operands ``A`` for ``A @ A``."""

    ident: int
    make: Callable[[np.random.Generator], object]
    #: intermediate products of ``A @ A`` the family is drawn at
    target: int


POWERLAW = Family(1, lambda rng: powerlaw_matrix(
    6000, alpha=2.5, target_nnz=60_000, hub_bias=0.3, rng=rng), 1_900_000)
HUB = Family(2, lambda rng: powerlaw_matrix(
    2000, alpha=2.1, target_nnz=20_000, hub_bias=0.5, rng=rng), 1_200_000)
RMAT = Family(3, lambda rng: rmat_matrix(10, edge_factor=8, rng=rng), 290_000)
WEB = Family(4, lambda rng: powerlaw_matrix(
    1500, alpha=2.5, target_nnz=15_000, hub_bias=0.3, rng=rng), 330_000)
MESH = Family(5, lambda rng: uniform_matrix(2000, mean_nnz=8.0, rng=rng), 128_000)

#: serve tenants: (name, priority, family)
TENANTS = (("graph", "high", RMAT), ("web", "normal", WEB), ("mesh", "low", MESH))


def products(a) -> int:
    """Intermediate products of ``A @ A`` (half its flops)."""
    return int(a.row_nnz()[a.indices].sum())


def draw(family: Family, seed: int, stream: int, index: int):
    """Operand ``index`` of ``stream`` (0 measured, 1 set-up) for ``seed``."""
    rng = np.random.default_rng([seed, family.ident, stream, index])
    while True:
        a = family.make(rng)
        p = products(a)
        if abs(p - family.target) <= BAND * family.target:
            return a, p


def digest(h, a) -> None:
    h.update(repr(a.shape).encode())
    for arr in (a.indptr, a.indices, a.data):
        h.update(np.ascontiguousarray(arr).tobytes())


class Reference:
    """scipy's ``A @ A``, compared with a result outside every timer."""

    def __init__(self, a) -> None:
        sa = a.to_scipy().tocsr()
        self.ref = (sa @ sa).tocsr()
        self.ref.sort_indices()

    def matches(self, c) -> bool:
        ref = self.ref
        return (
            c.shape == ref.shape
            and np.array_equal(c.indptr, ref.indptr)
            and np.array_equal(c.indices, ref.indices)
            and np.allclose(c.data, ref.data, rtol=RTOL, atol=0.0)
        )


def timed(tracer: Tracer | None, layer: str, fn):
    """``(fn(), host seconds)``; with a tracer, hooks are installed for
    the call and the call is the root span of ``layer``."""
    if tracer is None:
        t0 = time.perf_counter()
        out = fn()
        return out, time.perf_counter() - t0
    tracer.install()
    t0 = tracer.enter()
    try:
        out = fn()
    finally:
        dt = tracer.exit(layer, t0)
        tracer.uninstall()
    return out, dt


class Calibration:
    """Host speed, sampled between operations with a fixed kernel that
    shares no code with the program: a stable argsort and a dict loop.

    On a shared machine the speed of the same code drifts by up to half
    within minutes, and the kernel's time drifts with it.  Host times
    are therefore reported scaled by :meth:`factor`, as if measured on a
    host where the kernel takes ``CAL_REF_S``.
    """

    def __init__(self) -> None:
        self._keys = np.random.default_rng(0).integers(0, 1 << 40, size=200_000)
        self.samples: list[float] = []

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            t0 = time.perf_counter()
            np.argsort(self._keys, kind="stable")
            d: dict[int, int] = {}
            for i in range(20_000):
                d[i & 1023] = d.get(i & 1023, 0) + i
            self.samples.append(time.perf_counter() - t0)

    def factor(self) -> float:
        """Multiply a host time by this, or divide a rate, to report it
        at reference speed."""
        return CAL_REF_S / float(np.median(self.samples))


def peak_mem_mb(fn) -> float:
    """Peak traced heap of ``fn()`` in MB (numpy buffers included), which
    unlike the resident set does not depend on the allocator's history.
    Collecting first makes the garbage collector's timing, and so the
    peak, independent of what ran before."""
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


# -- e2e workloads ------------------------------------------------------------

class E2E:
    """Fresh operands every run: ``HHCPU(backend="numpy").multiply(A, A)``."""

    def __init__(self, family: Family, smoke: bool) -> None:
        self.family = family
        #: runs made at least; their simulated makespans give
        #: ``hardware.sim_p50_ms``, the same for a seed on any host
        self.min_ops = 5 if smoke else 20

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        for i in range(2):
            digest(h, draw(self.family, DEFAULT_SEED, 1, i)[0])
        return h.hexdigest()

    def warm_up(self) -> None:
        a, _ = draw(self.family, DEFAULT_SEED, 1, 0)
        HHCPU(backend="numpy").multiply(a, a)

    def peak_mem_mb(self) -> float:
        a, _ = draw(self.family, DEFAULT_SEED, 1, 0)
        return peak_mem_mb(lambda: HHCPU(backend="numpy").multiply(a, a))

    def measure(self, seed: int, seconds: float, tracer: Tracer | None,
                cal: Calibration) -> dict:
        runs = {False: [], True: []}  # traced? -> [(host_s, products)]
        sims = []
        failed = 0
        stop = time.perf_counter() + seconds
        i = 0
        while i < self.min_ops or time.perf_counter() < stop:
            a, p = draw(self.family, seed, 0, i)
            traced = tracer is not None and i % 2 == 1
            i += 1
            cal.sample()
            try:
                result, dt = timed(
                    tracer if traced else None, "core.hhcpu",
                    lambda: HHCPU(backend="numpy").multiply(a, a),
                )
            except Exception:
                traceback.print_exc()
                failed += 1
                continue
            if not Reference(a).matches(result.matrix):
                print(f"run {i - 1}: product differs from scipy", file=sys.stderr)
                failed += 1
                continue
            runs[traced].append((dt, p))
            if i <= self.min_ops:
                sims.append(result.total_time)
        plain = runs[False]
        host = np.array([dt for dt, _ in plain]) * cal.factor()
        out = {
            "attempted": i,
            "failed": failed,
            "e2e": {
                "op_p50_ms": float(np.median(host)) * 1e3,
                "op_p90_ms": float(np.percentile(host, 90)) * 1e3,
                "throughput_rps": len(host) / float(host.sum()),
            },
            "sim_p50_ms": float(np.median(sims)) * 1e3,
        }
        if tracer is not None:
            def per_product(rs):
                return sum(dt for dt, _ in rs) / sum(p for _, p in rs)

            out["requests"] = len(runs[True])
            out["overhead"] = per_product(runs[True]) / per_product(plain) - 1.0
        return out


# -- serve workloads ----------------------------------------------------------

class TimedExecutor:
    """The executor the benchmark hands the service: host seconds per
    call, and removal of each execution's checkpoint directory after the
    call (kept out of both the call's time and the traced total)."""

    def __init__(self, inner, workdir: Path | None, tracer: Tracer | None) -> None:
        self.inner = inner
        self.workdir = workdir
        self.tracer = tracer
        self.calls: list[tuple[float, JobRequest]] = []
        self.cleanup_s = 0.0

    def __getattr__(self, name: str):
        # bind_clock and stats, which the service looks up
        return getattr(self.inner, name)

    def execute(self, request: JobRequest):
        t0 = time.perf_counter()
        try:
            return self.inner.execute(request)
        finally:
            self.calls.append((time.perf_counter() - t0, request))
            if self.workdir is not None:
                self._clean()

    def _clean(self) -> None:
        t0 = self.tracer.enter() if self.tracer else time.perf_counter()
        for d in self.workdir.glob("x*"):
            shutil.rmtree(d)
        if self.tracer:
            self.cleanup_s += self.tracer.exit(None, t0)
        else:
            self.cleanup_s += time.perf_counter() - t0


@dataclass
class RoundStats:
    """What one serve round left behind once its service is gone."""

    #: host seconds of the round, checkpoint-directory removal excluded
    host_s: float
    #: (host seconds, request) of every executor call
    calls: list[tuple[float, JobRequest]]
    attempted: int = 0
    failed: int = 0
    #: simulated latency of every completed, verified request
    sims: list[float] = field(default_factory=list)

    @property
    def completed(self) -> int:
        return len(self.sims)


def per_second(rounds: list[RoundStats]) -> float:
    """Completed requests per host second over ``rounds``."""
    return sum(st.completed for st in rounds) / sum(st.host_s for st in rounds)


class Serve:
    """An open-loop Poisson trace through ``JobService`` on a pool of
    operand pairs per tenant, repeated in rounds with fresh arrivals."""

    def __init__(self, resilient: bool, smoke: bool, workdir: Path) -> None:
        self.resilient = resilient
        self.workdir = workdir if resilient else None
        self.per_tenant = 10 if smoke else ROUND
        #: rounds made at least, so that a traced run has an untraced and
        #: a traced one; their simulated latencies give
        #: ``hardware.sim_p50_ms``, the same for a seed on any host
        self.min_rounds = 2
        self.config = ServiceConfig(
            queue_depth=1_000_000,
            default_quota=TenantQuota(max_pending=1_000_000),
            resilience=ResilienceConfig() if resilient else None,
        )

    def pool(self, seed: int, stream: int) -> list[list[tuple[JobRequest, int]]]:
        """Per tenant, ``POOL`` requests ``A @ A`` with their products."""
        return [
            [
                (JobRequest(tenant=name, workload=f"{name}-{k}", priority=prio,
                            a=a, b=a), p)
                for k in range(POOL)
                for a, p in [draw(family, seed, stream, k)]
            ]
            for name, prio, family in TENANTS
        ]

    def trace(self, seed: int, stream: int, rnd: int, n: int):
        """Per tenant, ``n`` arrival times and pool indices."""
        out = []
        for t in range(len(TENANTS)):
            rng = np.random.default_rng([seed, 9, stream, rnd, t])
            times = np.cumsum(rng.exponential(1.0 / RATE_PER_S, size=n))
            out.append((times, rng.integers(0, POOL, size=n)))
        return out

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        for tenant in self.pool(DEFAULT_SEED, 1):
            for request, _ in tenant:
                digest(h, request.a)
        for times, picks in self.trace(DEFAULT_SEED, 1, 0, ROUND):
            h.update(times.tobytes())
            h.update(picks.astype(np.int64).tobytes())
        return h.hexdigest()

    def executor(self):
        if self.resilient:
            return ResilientExecutor(self.config, workdir=self.workdir)
        return PipelineExecutor(self.config)

    def round(self, pool, trace, tracer: Tracer | None,
              refs: dict[int, Reference] | None) -> RoundStats:
        """Run one trace through a fresh service and, given ``refs``,
        check every result; the service and its results die on return."""
        arrivals = [
            (float(t), pool[tenant][int(k)][0])
            for tenant, (times, picks) in enumerate(trace)
            for t, k in zip(times, picks)
        ]
        ex = TimedExecutor(self.executor(), self.workdir, tracer)

        def serve():
            service = JobService(self.config, executor=ex)
            return service, execute_schedule(service, arrivals)

        (service, job_ids), dt = timed(tracer, "service", serve)
        stats = RoundStats(dt - ex.cleanup_s, ex.calls)
        verdicts: dict[int, bool] = {}  # id(result) -> matches scipy
        for jid in job_ids:
            rec = service.jobs[jid]
            stats.attempted += 1
            if rec.status != COMPLETED:
                print(f"job {jid}: {rec.status} {rec.error!r}", file=sys.stderr)
                stats.failed += 1
                continue
            if refs is not None:
                req = rec.request
                if id(rec.result) not in verdicts:
                    if id(req) not in refs:
                        refs[id(req)] = Reference(req.a)
                    verdicts[id(rec.result)] = refs[id(req)].matches(rec.result.matrix)
                if not verdicts[id(rec.result)]:
                    print(f"job {jid}: result differs from scipy", file=sys.stderr)
                    stats.failed += 1
                    continue
            stats.sims.append(rec.sim_latency_s)
        return stats

    def warm_up(self) -> None:
        pool = self.pool(DEFAULT_SEED, 1)
        self.round(pool, self.trace(DEFAULT_SEED, 1, 0, 1), None, None)

    def peak_mem_mb(self) -> float:
        pool = self.pool(DEFAULT_SEED, 1)
        trace = self.trace(DEFAULT_SEED, 1, 0, MEM_ROUND)
        return peak_mem_mb(lambda: self.round(pool, trace, None, None))

    def measure(self, seed: int, seconds: float, tracer: Tracer | None,
                cal: Calibration) -> dict:
        pool = self.pool(seed, 0)
        refs: dict[int, Reference] = {}
        rounds: dict[bool, list[RoundStats]] = {False: [], True: []}  # by traced?
        sims: list[float] = []
        stop = time.perf_counter() + seconds
        r = 0
        while r < self.min_rounds or time.perf_counter() < stop:
            traced = tracer is not None and r % 2 == 1
            cal.sample(5)
            stats = self.round(
                pool, self.trace(seed, 0, r, self.per_tenant),
                tracer if traced else None, refs,
            )
            rounds[traced].append(stats)
            if r < self.min_rounds:
                sims += stats.sims
            r += 1
        plain = rounds[False]
        calls = [c for st in plain for c in st.calls]
        f = cal.factor()
        host = np.array([dt for dt, _ in calls]) * f
        everything = plain + rounds[True]
        out = {
            "attempted": sum(st.attempted for st in everything),
            "failed": sum(st.failed for st in everything),
            "e2e": {
                "op_p50_ms": float(np.median(host)) * 1e3,
                "op_p90_ms": float(np.percentile(host, 90)) * 1e3,
                "throughput_rps": per_second(plain) / f,
            },
            "sim_p50_ms": float(np.median(sims)) * 1e3,
        }
        if tracer is not None:
            traced = rounds[True]
            out["requests"] = sum(st.completed for st in traced)
            out["batch_fill"] = out["requests"] / sum(len(st.calls) for st in traced)
            out["overhead"] = per_second(plain) / per_second(traced) - 1.0
        return out


# -- per-layer metrics --------------------------------------------------------

#: layers whose self time is reported, and those that also get a share
SELF_LAYERS = (
    "core.threshold", "kernels", "kernels.merge", "hetero.scheduler",
    "hetero.partition", "costmodel", "formats.validation", "core.hhcpu",
    "jobs.snapshot", "jobs.runner", "resilience.verifier",
    "resilience.executor", "service",
)
SHARE_LAYERS = (
    "core.threshold", "kernels", "kernels.merge", "jobs.snapshot",
    "resilience.verifier", "service",
)
#: counters reported per request
PER_REQUEST = (
    "core.threshold.calls", "core.threshold.estimates", "kernels.calls",
    "kernels.flops", "kernels.merge.tuples_in", "hetero.scheduler.units",
    "formats.validation.calls", "jobs.snapshot.calls",
    "resilience.verifier.calls", "resilience.verifier.rows",
)


def layer_metrics(tracer: Tracer, out: dict, f: float) -> dict:
    """Per-request layer metrics; ``f`` scales host times to reference
    speed (see :class:`Calibration`)."""
    s = {layer: t * f for layer, t in tracer.self_s.items()}
    c = tracer.counts
    total = sum(s.values())
    n = out["requests"]

    def rate(count: float, seconds: float) -> float:
        return count / seconds / 1e6 if seconds > 0 else 0.0

    m = {f"{layer}.self_s": s.get(layer, 0.0) / n for layer in SELF_LAYERS}
    m.update({f"{layer}.share": s.get(layer, 0.0) / total for layer in SHARE_LAYERS})
    m.update({name: c[name] / n for name in PER_REQUEST})
    m["kernels.mflops"] = rate(c["kernels.flops"], s.get("kernels", 0.0))
    m["kernels.merge.mtuples_per_s"] = rate(
        c["kernels.merge.tuples_in"], s.get("kernels.merge", 0.0))
    masters = c["kernels.merge.masters"]
    m["kernels.merge.compress"] = c["kernels.merge.tuples_in"] / masters if masters else 0.0
    m["jobs.snapshot.mb"] = c["jobs.snapshot.bytes"] / 1e6 / n
    m["service.batch_fill"] = out.get("batch_fill", 1.0)
    m["hardware.sim_p50_ms"] = out["sim_p50_ms"]
    m["trace.overhead"] = out["overhead"]
    m["trace.hooks_missing"] = len(tracer.missing)
    m["trace.total_s"] = total / n
    return m


WORKLOADS = ("e2e-powerlaw", "e2e-hub", "serve-open", "serve-resilient")


def make_workload(name: str, smoke: bool, workdir: Path):
    if name == "e2e-powerlaw":
        return E2E(POWERLAW, smoke)
    if name == "e2e-hub":
        return E2E(HUB, smoke)
    return Serve(name == "serve-resilient", smoke, workdir)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--mode", required=True, choices=("setup", "measure", "fingerprint"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--t0", type=float, default=None,
                    help="perf_counter reading taken just before this process was spawned")
    args = ap.parse_args()
    t0 = T_IMPORT if args.t0 is None else args.t0

    # checkpoints of serve-resilient go under the checkout, never /tmp
    scratch = ROOT / ".perfbench-tmp"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        wl = make_workload(args.workload, args.smoke, Path(tmp))
        fingerprint = wl.fingerprint()
        if args.mode == "fingerprint":
            print(json.dumps({"fingerprint": fingerprint}))
            return 0
        expected = json.loads(FINGERPRINTS.read_text())[args.workload]
        if fingerprint != expected:
            print(f"{args.workload}: inputs changed (sha256 {fingerprint}, "
                  f"{FINGERPRINTS.name} has {expected}); the generators no "
                  "longer produce what this benchmark measures", file=sys.stderr)
            return 2
        tracer = Tracer() if args.trace else None
        wl.warm_up()
        setup_s = time.perf_counter() - t0
        cal = Calibration()
        cal.sample(5)
        setup_s *= cal.factor()
        if args.mode == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return 0
        out = wl.measure(args.seed, args.seconds, tracer, cal)
        if tracer is None:
            out["e2e"]["peak_mem_mb"] = wl.peak_mem_mb()
        else:
            out["layers"] = layer_metrics(tracer, out, cal.factor())
    out["setup_s"] = setup_s
    out["cal_ms"] = float(np.median(cal.samples)) * 1e3
    print(json.dumps(out))
    return 1 if out["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
