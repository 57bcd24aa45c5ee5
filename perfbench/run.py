"""perfbench: host-time benchmark of HH-CPU runs and the job service.

    python3 perfbench/run.py --workload e2e-powerlaw --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
ones, with the names and units of ``BENCHMARK.json`` (see README.md).  Exit status: 0 when every product matched scipy,
1 when an operation failed or a worker crashed, 2 when the checkout has
no ``src/repro`` or the seeded inputs no longer match
``fingerprints.json``.

Each run starts ``worker.py`` ``SETUP_PROBES`` times to time set-up
alone and once more to measure; every worker is single-threaded.
``--out FILE`` also appends the run to a results file that
``compare.py`` reads; ``--update-fingerprints`` rewrites
``fingerprints.json`` after a deliberate change to the generators.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("e2e-powerlaw", "e2e-hub", "serve-open", "serve-resilient")
DEFAULT_SEED = 20150525
#: set-up-only worker processes per run, besides the measured one; a
#: single set-up spread up to 14% across seeds, the median of 5 up to 6%
SETUP_PROBES = 4
THREADS_ENV = {
    "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
}

class WorkerError(Exception):
    """A worker exited without a result; ``code`` is run.py's exit status."""

    def __init__(self, message: str, code: int) -> None:
        super().__init__(message)
        self.code = code


def spawn(workload: str, mode: str, args: argparse.Namespace) -> dict:
    """Run one worker process to completion; return its JSON result."""
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--mode", mode, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.smoke:
        cmd.append("--smoke")
    t0 = time.perf_counter()
    proc = subprocess.run(
        cmd + ["--t0", repr(t0)], cwd=ROOT, env={**os.environ, **THREADS_ENV},
        stdout=subprocess.PIPE, text=True, timeout=args.seconds + 120,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise WorkerError(
            f"{workload} worker ({mode}) exited {proc.returncode} without a result",
            2 if proc.returncode == 2 else 1,
        )
    return json.loads(lines[-1])


def run(args: argparse.Namespace) -> tuple[dict, float]:
    """The run's result line, and the measuring worker's median
    calibration-kernel time in ms (host times are scaled by it)."""
    probes = 0 if args.smoke else SETUP_PROBES
    setups = [spawn(args.workload, "setup", args)["setup_s"] for _ in range(probes)]
    out = spawn(args.workload, "measure", args)
    setups.append(out["setup_s"])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        kind, values = "per_layer", out["layers"]
    else:
        kind, values = "end_to_end", {**out["e2e"], "setup_s": statistics.median(setups)}
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if set(values) != set(units):
        raise WorkerError(f"worker metrics {sorted(values)} != {sorted(units)}", 1)
    return {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }, out["cal_ms"]


def append_result(path: Path, args: argparse.Namespace, result: dict,
                  cal_ms: float) -> None:
    doc = json.loads(path.read_text()) if path.exists() else {
        "schema": "perfbench-results/1", "runs": [],
    }
    doc["runs"].append({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "cal_ms": cal_ms, **result,
    })
    path.write_text(json.dumps(doc, indent=1) + "\n")


def update_fingerprints(args: argparse.Namespace) -> None:
    prints = {w: spawn(w, "fingerprint", args)["fingerprint"] for w in WORKLOADS}
    (HERE / "fingerprints.json").write_text(json.dumps(prints, indent=2) + "\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="5 runs / 30-request rounds and no set-up probes")
    ap.add_argument("--out", type=Path, help="append the run to this results file")
    ap.add_argument("--update-fingerprints", action="store_true")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no src/repro under {ROOT}: run from a checkout of the repository",
              file=sys.stderr)
        return 2
    try:
        if args.update_fingerprints:
            update_fingerprints(args)
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        result, cal_ms = run(args)
    except WorkerError as exc:
        print(exc, file=sys.stderr)
        return exc.code
    if args.out is not None:
        append_result(args.out, args, result, cal_ms)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
