"""The Phase I pick memo in :func:`repro.core.threshold.select_threshold`.

The memo is keyed on the operands' structure digests, the device specs,
the calibration and the candidate grid.  A hit must return exactly what
a cold sweep would, a change to any key part must miss, and the memo
must hold nothing but the two ints.
"""

from __future__ import annotations

import dataclasses
import weakref

import numpy as np
import pytest

from repro.__main__ import main
from repro.core import threshold as th
from repro.core.threshold import select_threshold
from repro.formats.csr import CSRMatrix
from repro.hardware.platform import HeteroPlatform, default_platform
from repro.scalefree.generators import powerlaw_matrix

from tests.test_sim_golden import CASES, _platform


#: the sweep itself, captured before any test wraps it
_SWEEP = th.sweep_thresholds


@pytest.fixture(autouse=True)
def cold_memo():
    th._PICKS.clear()
    yield
    th._PICKS.clear()


@pytest.fixture
def sweeps(monkeypatch):
    """Count the sweeps :func:`select_threshold` actually runs."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[:2])
        return _SWEEP(*args, **kwargs)

    monkeypatch.setattr(th, "sweep_thresholds", counting)
    return calls


def _cold_pick(a, b, platform, **kwargs):
    """The pick straight from the sweep, bypassing the memo."""
    best = min(_SWEEP(a, b, platform, **kwargs), key=lambda e: e.total)
    return best.threshold_a, best.threshold_b


def _operand(rng=5):
    return powerlaw_matrix(700, alpha=2.3, target_nnz=5_000, hub_bias=0.4, rng=rng)


def _clone(m, *, indices=None, data=None, shape=None):
    return CSRMatrix(
        shape or m.shape,
        m.indptr.copy(),
        (m.indices if indices is None else indices).copy(),
        (m.data if data is None else data).copy(),
        validate=False,
    )


class TestHits:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_hit_equals_cold_sweep_on_golden_inputs(self, name, sweeps):
        make, scale = CASES[name]
        a = make()
        cold = _cold_pick(a, a, _platform(scale))
        assert select_threshold(a, a, _platform(scale)) == cold
        assert len(sweeps) == 1
        # equal operands as new objects, on a new equal platform: a hit
        again = make()
        assert again is not a
        assert select_threshold(again, again, _platform(scale)) == cold
        assert len(sweeps) == 1

    def test_changing_only_data_hits_with_the_cold_pick(self, sweeps):
        a = _operand()
        pf = default_platform()
        select_threshold(a, a, pf)
        scaled = _clone(a, data=np.arange(1.0, a.nnz + 1.0) * -3.5)
        assert select_threshold(scaled, scaled, pf) == _cold_pick(scaled, scaled, pf)
        assert len(sweeps) == 1

    def test_default_platform_matches_explicit(self, sweeps):
        a = _operand()
        assert select_threshold(a, a) == select_threshold(a, a, default_platform())
        assert len(sweeps) == 1


class TestMisses:
    def _assert_misses(self, sweeps, a, b, platform, **kwargs):
        before = len(sweeps)
        got = select_threshold(a, b, platform, **kwargs)
        assert len(sweeps) == before + 1
        assert got == _cold_pick(a, b, platform, **kwargs)

    def test_platform_spec_change_misses(self, sweeps):
        a = _operand()
        pf = default_platform()
        select_threshold(a, a, pf)
        cpu = dataclasses.replace(pf.cpu.spec, l3_bytes=pf.cpu.spec.l3_bytes // 4)
        gpu = dataclasses.replace(pf.gpu.spec, sm_count=pf.gpu.spec.sm_count + 1)
        self._assert_misses(sweeps, a, a, HeteroPlatform(cpu_spec=cpu))
        self._assert_misses(sweeps, a, a, HeteroPlatform(gpu_spec=gpu))

    def test_calibration_change_misses(self, sweeps):
        a = _operand()
        pf = default_platform()
        select_threshold(a, a, pf)
        calib = dataclasses.replace(pf.calibration, cpu_flop_efficiency=0.05)
        self._assert_misses(sweeps, a, a, default_platform(calib))

    def test_candidates_change_misses(self, sweeps):
        a = _operand()
        pf = default_platform()
        select_threshold(a, a, pf)
        self._assert_misses(sweeps, a, a, pf, candidates=np.array([0, 4, 9]))
        self._assert_misses(sweeps, a, a, pf, candidates=np.array([0, 4, 10]))
        # the same grid again, as a new array: a hit
        assert select_threshold(a, a, pf, candidates=np.array([0, 4, 10])) == \
            _cold_pick(a, a, pf, candidates=np.array([0, 4, 10]))
        assert len(sweeps) == 3

    def test_structure_change_misses(self, sweeps):
        a = _operand()
        pf = default_platform()
        select_threshold(a, a, pf)
        # move the first row's last entry to a column the row lacks
        moved = a.indices.copy()
        row = int(np.flatnonzero(a.row_nnz())[0])
        lo, hi = a.indptr[row], a.indptr[row + 1]
        moved[hi - 1] = np.setdiff1d(np.arange(a.ncols), a.indices[lo:hi])[-1]
        moved[lo:hi].sort()
        other = _clone(a, indices=moved)
        assert other.structure_digest() != a.structure_digest()
        self._assert_misses(sweeps, other, other, pf)
        # a different B with the same A misses too
        self._assert_misses(sweeps, a, other, pf)

    def test_shape_change_misses(self, sweeps):
        a = _operand()
        pf = default_platform()
        b = _clone(a)
        select_threshold(a, b, pf)
        wider = _clone(a, shape=(a.nrows, a.ncols + 3))
        assert wider.structure_digest() != b.structure_digest()
        self._assert_misses(sweeps, a, wider, pf)

    def test_rebinding_indices_invalidates_the_digest(self, sweeps):
        a = _operand()
        pf = default_platform()
        first = select_threshold(a, a, pf)
        digest = a.structure_digest()
        assert a.structure_digest() is digest  # computed once per instance
        a.indices = np.zeros_like(a.indices)
        assert a.structure_digest() != digest
        self._assert_misses(sweeps, a, a, pf)
        a.indices = _operand().indices
        assert a.structure_digest() == digest
        assert select_threshold(a, a, pf) == first


class TestBounds:
    def test_memo_never_grows_past_its_bound(self, monkeypatch, sweeps):
        monkeypatch.setattr(th, "PICK_MEMO_SIZE", 3)
        pf = default_platform()
        mats = [powerlaw_matrix(80, alpha=2.5, target_nnz=300, rng=s) for s in range(5)]
        for m in mats:
            select_threshold(m, m, pf)
            assert len(th._PICKS) <= 3
        assert len(th._PICKS) == 3
        # the oldest two were evicted; the newest three still hit
        for m in mats[2:]:
            select_threshold(m, m, pf)
        assert len(sweeps) == 5
        select_threshold(mats[0], mats[0], pf)
        assert len(sweeps) == 6 and len(th._PICKS) == 3

    def test_hit_leaves_no_profile_alive(self, monkeypatch):
        profiles = []
        real = th.ProductProfile

        def tracked(a, b):
            prof = real(a, b)
            profiles.append(weakref.ref(prof))
            return prof

        monkeypatch.setattr(th, "ProductProfile", tracked)
        a = _operand()
        pf = default_platform()
        select_threshold(a, a, pf)
        assert len(profiles) == 1
        assert profiles[0]() is None  # freed by refcount, no collection
        select_threshold(a, a, pf)
        assert len(profiles) == 1
        for key, value in th._PICKS.items():
            assert all(isinstance(v, int) for v in value)
            assert not any(isinstance(part, np.ndarray) for part in key)


class TestWarmLoadIsByteIdentical:
    def test_same_seed_load_with_warm_memo(self, tmp_path, sweeps):
        args = ["load", "--process", "open", "--tenants", "2", "--requests", "3",
                "--repetitions", "2", "--seed", "97", "--workload", "powerlaw-sm"]
        assert main(args + ["--out-dir", str(tmp_path / "cold")]) == 0
        cold_sweeps = len(sweeps)
        assert cold_sweeps > 0
        assert main(args + ["--out-dir", str(tmp_path / "warm")]) == 0
        assert len(sweeps) == cold_sweeps  # every pick came from the memo
        name = "run_table_service.csv"
        cold = (tmp_path / "cold" / name).read_bytes()
        assert cold == (tmp_path / "warm" / name).read_bytes()
