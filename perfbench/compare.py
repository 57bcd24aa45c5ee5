"""Compare perfbench result files against the bounds in BENCHMARK.json.

    python3 perfbench/compare.py A.json            # spread of each metric
    python3 perfbench/compare.py A.json B.json     # B against baseline A

A results file collects runs appended by ``run.py --out``.  For each
workload and end-to-end metric the verdict on B is:

- ``unresolved`` when either side's spread (quartile distance over the
  median) exceeds the bound, unless every B run beats or loses to every
  A run;
- ``worse`` / ``better`` when B's median moved past the bound;
- ``within-bound`` otherwise.

Layer shares (``--trace 1`` runs) are compared in percentage points and
flagged past 5.  ``hardware.sim_p50_ms`` of runs with the same workload
and seed must be identical.  Exit status 1 when any metric is worse or a
simulated value differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: largest move of a layer's share, in percentage points, still called steady
SHARE_PP = 5.0
#: simulated latency, which the same seed must reproduce exactly
SIM = "hardware.sim_p50_ms"


def load(path: Path) -> list[dict]:
    doc = json.loads(path.read_text())
    if doc.get("schema") != "perfbench-results/1":
        sys.exit(f"{path}: not a perfbench results file")
    return doc["runs"]


def values(runs: list[dict], workload: str, metric: str) -> list[float]:
    return [
        r["metrics"][metric]["value"] for r in runs
        if r["workload"] == workload and metric in r["metrics"]
    ]


def spread(vals: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(vals) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / abs(statistics.median(vals))


def verdict(a: list[float], b: list[float], bound: float, lower: bool) -> tuple[str, float]:
    ma, mb = statistics.median(a), statistics.median(b)
    worse_by = (mb - ma) / abs(ma) * (1 if lower else -1)
    if max(spread(a), spread(b)) > bound:
        b_below, b_above = max(b) < min(a), min(b) > max(a)
        if b_below or b_above:
            return ("better" if b_below == lower else "worse"), worse_by
        return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    if -worse_by > bound:
        return "better", worse_by
    return "within-bound", worse_by


def workloads(*files: list[dict]) -> list[str]:
    return sorted({r["workload"] for runs in files for r in runs})


def report_spread(runs: list[dict], spec: dict) -> int:
    print(f"{'workload':16} {'metric':16} {'n':>3} {'median':>12} {'spread':>7} {'bound':>6}")
    for wl in workloads(runs):
        for m in spec["end_to_end"]:
            vals = values(runs, wl, m["name"])
            if vals:
                s = spread(vals)
                flag = "  > bound/3" if s > m["bound"] / 3 else ""
                print(f"{wl:16} {m['name']:16} {len(vals):3} "
                      f"{statistics.median(vals):12.5g} {s:7.2%} {m['bound']:6.0%}{flag}")
    return 0


def report_compare(a_runs: list[dict], b_runs: list[dict], spec: dict) -> int:
    bad = 0
    print(f"{'workload':16} {'metric':16} {'A median':>12} {'B median':>12} "
          f"{'worse by':>9} {'bound':>6}  verdict")
    for wl in workloads(a_runs, b_runs):
        for m in spec["end_to_end"]:
            a, b = values(a_runs, wl, m["name"]), values(b_runs, wl, m["name"])
            if not a or not b:
                continue
            v, worse_by = verdict(a, b, m["bound"], m["better"] == "lower")
            bad += v == "worse"
            print(f"{wl:16} {m['name']:16} {statistics.median(a):12.5g} "
                  f"{statistics.median(b):12.5g} {worse_by:9.2%} {m['bound']:6.0%}  {v}")
    shares = [m["name"] for m in spec["per_layer"] if m["name"].endswith(".share")]
    for wl in workloads(a_runs, b_runs):
        for name in shares:
            a, b = values(a_runs, wl, name), values(b_runs, wl, name)
            if a and b:
                pp = 100 * (statistics.median(b) - statistics.median(a))
                flag = "moved" if abs(pp) > SHARE_PP else "steady"
                print(f"{wl:16} {name:28} {statistics.median(a):7.1%} -> "
                      f"{statistics.median(b):7.1%} ({pp:+.1f} pp) {flag}")
    sims_a = {(r["workload"], r["seed"], r["smoke"]): r["metrics"][SIM]["value"]
              for r in a_runs if SIM in r["metrics"]}
    for r in b_runs:
        key = (r["workload"], r["seed"], r["smoke"])
        if key in sims_a and SIM in r["metrics"]:
            if r["metrics"][SIM]["value"] != sims_a[key]:
                bad += 1
                print(f"{key[0]} seed {key[1]}: simulated time changed "
                      f"({sims_a[key]!r} -> {r['metrics'][SIM]['value']!r})")
    return 1 if bad else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", type=Path)
    ap.add_argument("b", type=Path, nargs="?")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.b is None:
        return report_spread(load(args.a), spec)
    return report_compare(load(args.a), load(args.b), spec)


if __name__ == "__main__":
    sys.exit(main())
