"""ESC workload accounting pinned on HH-CPU's own kernel calls.

The simulated clock is charged from :class:`KernelStats`, so a host-side
rewrite of the ESC kernel must report exactly the same accounting on
every call HH-CPU makes.  Per ``test_sim_golden`` input this test spies
on the numpy backend's ESC entry point during one ``HHCPU().multiply``
and pins, call by call:

- ``a_entries``, ``total_work``, ``tuples_emitted`` and ``result_nnz``;
- the sha256 of the ``row_work`` bytes (processing order);
- the sha256 of the B-reuse curve's bytes;

plus the run's ``kernels.esc.*`` metric counters.  Regenerate only for
a deliberate accounting change::

    PYTHONPATH=src python tests/test_kernel_stats_parity.py --update
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

import repro.backends.numpy_backend as numpy_backend
from repro.core import HHCPU
from repro.obs.metrics import METRICS
from tests.test_sim_golden import CASES, _platform

FIXTURE = Path(__file__).parent / "data" / "esc_stats_parity.json"


def _sha(*arrays) -> str:
    digest = hashlib.sha256()
    for arr in arrays:
        digest.update(arr.tobytes())
    return digest.hexdigest()


def record(name: str, monkeypatch) -> dict:
    make, scale = CASES[name]
    a = make()
    calls: list[dict] = []
    raw = numpy_backend._esc_multiply

    def spy(*args, **kwargs):
        out = raw(*args, **kwargs)
        st = out.stats
        calls.append({
            "a_entries": st.a_entries,
            "total_work": st.total_work,
            "tuples_emitted": st.tuples_emitted,
            "result_nnz": st.result_nnz,
            "row_work": [int(st.row_work.size), _sha(st.row_work)],
            "reuse_curve": None if st.b_reuse_curve is None
            else _sha(*st.b_reuse_curve),
        })
        return out

    monkeypatch.setattr(numpy_backend, "_esc_multiply", spy)
    METRICS.reset()
    METRICS.enabled = True
    try:
        HHCPU(_platform(scale), backend="numpy").multiply(a, a)
        counters = METRICS.prefixed("kernels.esc.")
    finally:
        METRICS.reset()
        METRICS.enabled = False
        monkeypatch.undo()
    return {"calls": calls, "metrics": {k: int(v) for k, v in counters.items()}}


@pytest.fixture(scope="module")
def fixture() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_esc_stats_and_metrics_unchanged(fixture, name, monkeypatch):
    got = record(name, monkeypatch)
    assert got["calls"], "HH-CPU made no ESC calls"
    assert got == fixture[name]


def test_fixture_covers_every_case(fixture):
    assert sorted(fixture) == sorted(CASES)


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_kernel_stats_parity.py --update")
    mp = pytest.MonkeyPatch()
    doc = {name: record(name, mp) for name in sorted(CASES)}
    FIXTURE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
