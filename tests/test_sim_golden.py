"""Byte-exact golden of HH-CPU's simulated outputs on small seeded inputs.

Host-side refactors of Phase I (the threshold sweep) and Phase IV (the
tuple merge) must not move the simulated clock or the product by a
single bit.  This test pins, per input:

- every :func:`sweep_thresholds` total as ``float.hex``;
- the :func:`select_threshold` pick;
- ``total_time``, ``phase_times`` (``float.hex``), ``merge_stats`` and
  ``details`` of a full :class:`HHCPU` run;
- the sha256 of the result CSR's ``indptr``/``indices``/``data`` bytes.

A change that is *meant* to move simulated numbers regenerates the file
in the same diff::

    PYTHONPATH=src python tests/test_sim_golden.py --update
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.core import HHCPU, select_threshold, sweep_thresholds
from repro.hardware.platform import default_platform, platform_for_scale
from repro.scalefree.generators import powerlaw_matrix, rmat_matrix, uniform_matrix

GOLDEN = Path(__file__).parent / "data" / "hhcpu_sim_golden.json"

#: name -> (operand factory, platform cache scale; None = full testbed)
CASES = {
    "powerlaw": (lambda: powerlaw_matrix(
        1500, alpha=2.5, target_nnz=12_000, hub_bias=0.3, rng=11), 0.01),
    "hub": (lambda: powerlaw_matrix(
        600, alpha=2.1, target_nnz=6_000, hub_bias=0.5, rng=12), 0.01),
    "rmat": (lambda: rmat_matrix(9, edge_factor=8, rng=13), None),
    "uniform": (lambda: uniform_matrix(1000, mean_nnz=5.0, rng=14), 0.01),
}


def _platform(scale):
    return default_platform() if scale is None else platform_for_scale(scale)


def _jsonable(value):
    """Floats as ``float.hex`` (exact), tuples as lists, recursively."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "item"):  # numpy scalar
        return _jsonable(value.item())
    return value


def record(name: str) -> dict:
    make, scale = CASES[name]
    a = make()
    sweep = sweep_thresholds(a, a, _platform(scale))
    pick = select_threshold(a, a, _platform(scale))
    res = HHCPU(_platform(scale), backend="numpy").multiply(a, a)
    m = res.matrix
    digest = hashlib.sha256()
    for arr in (m.indptr, m.indices, m.data):
        digest.update(arr.tobytes())
    return _jsonable({
        "sweep": [[e.threshold_a, e.total] for e in sweep],
        "pick": list(pick),
        "total_time": res.total_time,
        "phase_times": res.phase_times,
        "merge_stats": dataclasses.asdict(res.merge_stats),
        "details": res.details,
        "csr_sha256": digest.hexdigest(),
    })


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_simulated_outputs_byte_identical(golden, name):
    assert record(name) == golden[name]


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_sim_golden.py --update")
    doc = {name: record(name) for name in sorted(CASES)}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
