"""Smoke check of the benchmark itself: ``python3 perfbench/selfcheck.py``.

Runs every workload through ``run.py --smoke`` (5 runs / 30-request
rounds, same shapes) with tracing off and on, and checks that

- no operation failed (``run.py`` itself rejects a metric set that
  differs from BENCHMARK.json);
- a repeated traced run with the same seed reports the same
  ``hardware.sim_p50_ms``;
- every hook found its target (``trace.hooks_missing == 0``);
- the reported layers' self times add up to ``trace.total_s`` within 5%.

Exit status 1 on the first failed check.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SEED = 7


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--smoke"],
        stdout=subprocess.PIPE, text=True, timeout=180,
    )
    check(proc.returncode == 0, f"{workload} --trace {trace}: exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(ok: bool, message: str) -> None:
    if not ok:
        sys.exit(f"FAIL: {message}")


def main() -> int:
    for wl in (w["name"] for w in SPEC["workloads"]):
        plain, traced, again = run(wl, 0), run(wl, 1), run(wl, 1)
        for result in (plain, traced, again):
            check(result["correct"] and result["failed"] == 0, f"{wl}: failed operations")
        sim = [r["metrics"]["hardware.sim_p50_ms"]["value"] for r in (traced, again)]
        check(sim[0] == sim[1], f"{wl}: simulated latency differs between same-seed runs {sim}")
        m = {k: v["value"] for k, v in traced["metrics"].items()}
        check(m["trace.hooks_missing"] == 0, f"{wl}: {m['trace.hooks_missing']} hooks missing")
        layers = sum(v for k, v in m.items() if k.endswith(".self_s"))
        check(abs(layers - m["trace.total_s"]) <= 0.05 * m["trace.total_s"],
              f"{wl}: layer self times {layers} != traced total {m['trace.total_s']}")
        print(f"ok  {wl}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
