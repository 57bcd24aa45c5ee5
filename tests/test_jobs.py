"""Tests for the durable job runner (:mod:`repro.jobs`).

Covers: the versioned snapshot format (round-trip, corruption
detection, newest-valid-wins discovery, fingerprint refusal), byte-size
parsing, the symbolic memory estimate, checkpoint/resume bit-identity
from every stage (fresh, post-Phase-I, post-Phase-II, mid-Phase-III,
with and without fault schedules — including a Hypothesis property over
kill points and cadences), deadline exhaustion + resume, memory-budget
fallbacks, finished runs leaving no reference cycles, and the
``python -m repro run`` CLI end to end with a real SIGKILL between
checkpoints.
"""

import gc
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hhcpu import HHCPU
from repro.faults import FaultSpec, RetryPolicy, UnitError
from repro.formats.coo import COOMatrix
from repro.hardware.platform import platform_for_scale
from repro.jobs import (
    JobRunner,
    estimate_intermediate_bytes,
    estimate_intermediate_tuples,
    find_resumable,
    list_checkpoints,
    parse_size,
    read_checkpoint,
    write_checkpoint,
)
from repro.jobs.snapshot import SCHEMA, checkpoint_path
from repro.obs.metrics import METRICS
from repro.obs.spans import observed
from repro.scalefree import powerlaw_matrix
from repro.util.errors import (
    CheckpointCorrupt,
    InvalidInputError,
    ResourceExhausted,
)

from tests.conftest import assert_same_product

REPO_ROOT = Path(__file__).resolve().parents[1]

#: unit sizes small enough that the 800-row test matrix yields a
#: multi-unit Phase III queue (so mid-phase checkpoints actually land
#: between units)
UNITS = {"cpu_rows": 40, "gpu_rows": 120}

FAULTY = FaultSpec(
    faults=(UnitError(device="cpu", probability=0.3, max_errors=4),),
    retry=RetryPolicy(max_attempts=4),
    seed=7,
)


@pytest.fixture
def matrix():
    return powerlaw_matrix(800, alpha=2.5, target_nnz=4_000, hub_bias=0.5, rng=17)


def make_platform():
    return platform_for_scale(0.001)


def reference_result(matrix, **kwargs):
    """The uninterrupted run every durable run must reproduce."""
    algo = HHCPU(make_platform(), **UNITS, **kwargs)
    return algo.multiply(matrix, matrix)


def make_runner(matrix, ckdir, **kwargs):
    kwargs.setdefault("checkpoint_every", 5)
    return JobRunner(
        matrix, matrix,
        checkpoint_dir=ckdir,
        platform_factory=make_platform,
        **UNITS,
        **kwargs,
    )


def assert_bit_identical(got, want):
    """The durability bar: byte-for-byte the same CSR product."""
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.indices, want.indices)
    assert got.data.tobytes() == want.data.tobytes()


class TestParseSize:
    @pytest.mark.parametrize("text,expected", [
        ("4096", 4096),
        ("64k", 64 << 10),
        ("64K", 64 << 10),
        ("64KB", 64 << 10),
        ("2M", 2 << 20),
        ("1.5G", int(1.5 * (1 << 30))),
        (" 8m ", 8 << 20),
    ])
    def test_accepts(self, text, expected):
        assert parse_size(text) == expected

    @pytest.mark.parametrize("text", ["", "M", "-4", "4T", "1e6", "64 MB extra"])
    def test_rejects(self, text):
        with pytest.raises(InvalidInputError) as exc:
            parse_size(text)
        assert exc.value.context["field"] == "mem_budget"

    def test_rejects_zero(self):
        with pytest.raises(InvalidInputError):
            parse_size("0")


class TestEstimate:
    def test_matches_scipy_row_work(self, matrix):
        s = matrix.to_scipy().tocsr()
        b_nnz = np.diff(s.indptr)
        expected = int(b_nnz[s.indices].sum())
        assert estimate_intermediate_tuples(matrix, matrix) == expected
        assert estimate_intermediate_bytes(matrix, matrix) == expected * 24


class TestSnapshotFormat:
    STATE = {"clocks": {"cpu": 1.25, "gpu": 0.5}, "note": "x"}

    def write_one(self, tmp_path, seq=0, stage="phase2", fp="fp-abc"):
        part = COOMatrix((2, 3), [0, 1, 1], [2, 0, 1], [1.0, 2.5, -3.0])
        path = write_checkpoint(
            tmp_path, seq=seq, stage=stage, fingerprint=fp,
            state=self.STATE, parts={"p2": [part]},
        )
        return path, part

    def test_round_trip(self, tmp_path):
        path, part = self.write_one(tmp_path)
        assert path == checkpoint_path(tmp_path, 0, "phase2")
        meta, _ = read_checkpoint(path)
        assert meta["schema"] == SCHEMA
        assert meta["seq"] == 0 and meta["stage"] == "phase2"
        assert meta["fingerprint"] == "fp-abc"
        assert meta["state"] == self.STATE
        (loaded,) = find_resumable(tmp_path, "fp-abc").parts["p2"]
        for name in ("row", "col", "data"):
            got, want = getattr(loaded, name), getattr(part, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_float_state_is_bit_exact(self, tmp_path):
        value = 0.1 + 0.2  # not representable; repr round-trips exactly
        write_checkpoint(tmp_path, seq=0, stage="phase1", fingerprint="f",
                         state={"clock": value})
        meta, _ = read_checkpoint(checkpoint_path(tmp_path, 0, "phase1"))
        assert meta["state"]["clock"].hex() == value.hex()

    def test_meta_name_reserved(self, tmp_path):
        with pytest.raises(ValueError, match="__meta__"):
            write_checkpoint(tmp_path, seq=0, stage="s", fingerprint="f",
                             state={}, parts={"__meta__": [COOMatrix.empty((1, 1))]})

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointCorrupt) as exc:
            read_checkpoint(tmp_path / "ckpt-000000-phase1.npz")
        assert exc.value.context["reason"] == "file not found"

    def test_truncated_file(self, tmp_path):
        path, _ = self.write_one(tmp_path)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(CheckpointCorrupt, match="unusable"):
            read_checkpoint(path)

    def test_bit_flip_detected(self, tmp_path):
        path, _ = self.write_one(tmp_path)
        blob = bytearray(path.read_bytes())
        # flip one byte inside the stored array payload (zip members are
        # uncompressed, so this corrupts data without breaking the zip)
        offset = blob.rindex(np.float64(-3.0).tobytes())
        blob[offset] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointCorrupt):
            read_checkpoint(path)

    def test_tmp_files_ignored_by_discovery(self, tmp_path):
        self.write_one(tmp_path)
        (tmp_path / "ckpt-000009-phase3.npz.tmp").write_bytes(b"partial")
        (tmp_path / "unrelated.txt").write_text("hi")
        assert list_checkpoints(tmp_path) == [checkpoint_path(tmp_path, 0, "phase2")]

    def test_list_newest_first(self, tmp_path):
        for seq in (0, 2, 1):
            self.write_one(tmp_path, seq=seq)
        seqs = [p.name for p in list_checkpoints(tmp_path)]
        assert seqs == ["ckpt-000002-phase2.npz", "ckpt-000001-phase2.npz",
                        "ckpt-000000-phase2.npz"]

    def test_find_resumable_empty(self, tmp_path):
        assert find_resumable(tmp_path, "fp") is None
        assert find_resumable(tmp_path / "nonexistent", "fp") is None

    def test_newest_valid_wins_over_corrupt(self, tmp_path):
        self.write_one(tmp_path, seq=0)
        newest, _ = self.write_one(tmp_path, seq=1)
        newest.write_bytes(b"garbage")
        with observed():
            assert find_resumable(tmp_path, "fp-abc").meta["seq"] == 0
            assert METRICS.counter("jobs.checkpoint.corrupt") == 1

    def test_all_corrupt_reraises(self, tmp_path):
        path, _ = self.write_one(tmp_path)
        path.write_bytes(b"garbage")
        with pytest.raises(CheckpointCorrupt):
            find_resumable(tmp_path, "fp-abc")

    def test_fingerprint_mismatch_refused(self, tmp_path):
        self.write_one(tmp_path, fp="theirs")
        with pytest.raises(InvalidInputError) as exc:
            find_resumable(tmp_path, "ours")
        ctx = exc.value.context
        assert ctx["field"] == "checkpoint_dir"
        assert ctx["expected"] == "ours" and ctx["found"] == "theirs"


def prefix_dir(src: Path, dst: Path, count: int) -> Path:
    """A checkpoint directory holding only the first ``count`` snapshots
    — exactly what survives a kill right after the ``count``-th write."""
    dst.mkdir()
    kept = sorted(src.iterdir())[:count]
    assert len(kept) == count
    for p in kept:
        shutil.copy(p, dst / p.name)
    return dst


class TestKillAndResume:
    def test_fresh_durable_run_is_bit_identical(self, matrix, tmp_path):
        want = reference_result(matrix)
        got = make_runner(matrix, tmp_path / "ck").run()
        assert_bit_identical(got.matrix, want.matrix)
        assert got.total_time == want.total_time
        assert got.details == want.details

    def test_resume_from_every_stage(self, matrix, tmp_path):
        want = reference_result(matrix)
        full = tmp_path / "full"
        make_runner(matrix, full).run()
        snapshots = sorted(full.iterdir())
        assert snapshots[0].name.endswith("-phase1.npz")
        assert snapshots[1].name.endswith("-phase2.npz")
        assert len(snapshots) >= 4  # at least two mid-Phase-III snapshots
        # resume after phase1, after phase2, mid-Phase-III, and at the
        # last-but-one snapshot — each must finish bit-identical
        for count in (1, 2, 3, len(snapshots) - 1):
            ckdir = prefix_dir(full, tmp_path / f"cut{count}", count)
            got = make_runner(matrix, ckdir).run(resume=True)
            assert_bit_identical(got.matrix, want.matrix)
            assert got.total_time == want.total_time

    def test_resume_with_fault_schedule(self, matrix, tmp_path):
        want = reference_result(matrix, faults=FAULTY)
        assert want.details["faults"]["retries"] > 0  # schedule actually bites
        full = tmp_path / "full"
        make_runner(matrix, full, faults=FAULTY, checkpoint_every=3).run()
        snapshots = sorted(full.iterdir())
        ckdir = prefix_dir(full, tmp_path / "cut", len(snapshots) // 2)
        got = make_runner(matrix, ckdir, faults=FAULTY, checkpoint_every=3).run(resume=True)
        assert_bit_identical(got.matrix, want.matrix)
        assert got.total_time == want.total_time
        assert got.details["faults"] == want.details["faults"]

    def test_resume_metrics(self, matrix, tmp_path):
        full = tmp_path / "full"
        make_runner(matrix, full).run()
        ckdir = prefix_dir(full, tmp_path / "cut", 3)
        with observed():
            make_runner(matrix, ckdir).run(resume=True)
            assert METRICS.counter("jobs.resume.count") == 1
            assert METRICS.gauge("jobs.resume.from_seq") == 2.0
            assert METRICS.counter("jobs.run.completed") == 1
            assert METRICS.counter("jobs.checkpoint.writes") >= 1

    def test_resume_without_checkpoints_starts_fresh(self, matrix, tmp_path):
        want = reference_result(matrix)
        got = make_runner(matrix, tmp_path / "empty").run(resume=True)
        assert_bit_identical(got.matrix, want.matrix)

    def test_config_drift_refused_on_resume(self, matrix, tmp_path):
        ckdir = tmp_path / "ck"
        make_runner(matrix, ckdir).run()
        drifted = JobRunner(
            matrix, matrix, checkpoint_dir=ckdir,
            platform_factory=make_platform,
            cpu_rows=UNITS["cpu_rows"] + 1, gpu_rows=UNITS["gpu_rows"],
        )
        with pytest.raises(InvalidInputError, match="different job configuration"):
            drifted.run(resume=True)

    def test_checkpoint_every_validated(self, matrix, tmp_path):
        with pytest.raises(ValueError, match="checkpoint_every"):
            make_runner(matrix, tmp_path, checkpoint_every=0)

    @settings(max_examples=6, deadline=None)
    @given(
        checkpoint_every=st.integers(min_value=1, max_value=7),
        kill_fraction=st.floats(min_value=0.05, max_value=0.95),
        with_faults=st.booleans(),
    )
    def test_kill_resume_property(self, checkpoint_every, kill_fraction, with_faults, tmp_path_factory):
        """Killing after *any* checkpoint and resuming reproduces the
        uninterrupted product bit-for-bit, at every cadence, with or
        without a fault schedule."""
        matrix = _PROP_MATRIX
        faults = FAULTY if with_faults else None
        want = (_PROP_REF_FAULTY if with_faults else _PROP_REF).matrix
        base = tmp_path_factory.mktemp("prop")
        full = base / "full"
        make_runner(matrix, full, faults=faults,
                    checkpoint_every=checkpoint_every).run()
        snapshots = sorted(full.iterdir())
        count = max(1, min(len(snapshots) - 1, int(len(snapshots) * kill_fraction)))
        ckdir = prefix_dir(full, base / "cut", count)
        got = make_runner(matrix, ckdir, faults=faults,
                          checkpoint_every=checkpoint_every).run(resume=True)
        assert_bit_identical(got.matrix, want)


# module-level references for the Hypothesis property (computed once,
# not per-example)
_PROP_MATRIX = powerlaw_matrix(800, alpha=2.5, target_nnz=4_000, hub_bias=0.5, rng=17)
_PROP_REF = HHCPU(make_platform(), **UNITS).multiply(_PROP_MATRIX, _PROP_MATRIX)
_PROP_REF_FAULTY = HHCPU(make_platform(), **UNITS, faults=FAULTY).multiply(
    _PROP_MATRIX, _PROP_MATRIX
)


def mid_phase3_deadline(result):
    """A simulated deadline 30% into the reference run's Phase III
    window — early enough that *both* devices park with work remaining
    (later deadlines may legitimately complete: one device parks and
    the still-under-budget peer drains the rest, which is the graceful
    degradation working, not exhaustion)."""
    p3 = [e for e in result.trace.events if e.phase == "III"]
    start = min(e.start for e in p3)
    return start + 0.3 * (max(e.end for e in p3) - start)


class TestDeadline:
    def test_deadline_exhausts_then_resumes(self, matrix, tmp_path):
        want = reference_result(matrix)
        budget = mid_phase3_deadline(want)
        runner = make_runner(matrix, tmp_path / "ck", deadline_s=budget)
        with pytest.raises(ResourceExhausted) as exc:
            runner.run()
        ctx = exc.value.context
        assert ctx["resumable"] is True
        assert ctx["deadline_s"] == budget
        assert ctx["stage"] in ("phase1", "phase2", "phase3")
        # the curtailed work was checkpointed — resume with no deadline
        # and the product must still match scipy
        got = make_runner(matrix, tmp_path / "ck").run(resume=True)
        assert_same_product(got.matrix, matrix.to_scipy() @ matrix.to_scipy())

    def test_deadline_metric(self, matrix, tmp_path):
        want = reference_result(matrix)
        with observed():
            with pytest.raises(ResourceExhausted):
                make_runner(matrix, tmp_path / "ck",
                            deadline_s=mid_phase3_deadline(want)).run()
            assert METRICS.counter("jobs.deadline.exhausted") == 1

    def test_curtailment_can_fail_over_to_peer(self, matrix, tmp_path):
        """A deadline only exhausts when *every* living device parks
        with work remaining — if one device is curtailed but its peer
        finishes the queue under budget, the job completes and the
        curtailed unit is counted, not lost."""
        want = reference_result(matrix)
        p3 = [e for e in want.trace.events if e.phase == "III"]
        start = min(e.start for e in p3)
        halfway = start + 0.5 * (max(e.end for e in p3) - start)
        with observed():
            got = make_runner(matrix, tmp_path / "ck", deadline_s=halfway).run()
            assert METRICS.counter("phase3.deadline.curtailed_units") >= 1
        assert_same_product(got.matrix, matrix.to_scipy() @ matrix.to_scipy())

    def test_generous_deadline_is_invisible(self, matrix, tmp_path):
        want = reference_result(matrix)
        got = make_runner(matrix, tmp_path / "ck",
                          deadline_s=want.total_time * 10).run()
        assert_bit_identical(got.matrix, want.matrix)
        assert got.total_time == want.total_time


class TestMemoryBudget:
    def test_chunked_phase2_is_bit_identical(self, matrix, tmp_path):
        want = reference_result(matrix)
        est = estimate_intermediate_bytes(matrix, matrix)
        got = make_runner(matrix, tmp_path / "ck",
                          mem_budget_bytes=est // 4).run()
        # row-disjoint Phase II chunks preserve every summation order
        assert_same_product(got.matrix, matrix.to_scipy() @ matrix.to_scipy())
        np.testing.assert_array_equal(got.matrix.indptr, want.matrix.indptr)
        np.testing.assert_array_equal(got.matrix.indices, want.matrix.indices)

    def test_budget_resume_round_trip(self, matrix, tmp_path):
        est = estimate_intermediate_bytes(matrix, matrix)
        budget = est // 4
        full = tmp_path / "full"
        want = make_runner(matrix, full, mem_budget_bytes=budget).run()
        ckdir = prefix_dir(full, tmp_path / "cut", 3)
        got = make_runner(matrix, ckdir, mem_budget_bytes=budget).run(resume=True)
        assert_bit_identical(got.matrix, want.matrix)

    def test_impossible_budget_raises(self, matrix, tmp_path):
        with pytest.raises(ResourceExhausted) as exc:
            make_runner(matrix, tmp_path / "ck", mem_budget_bytes=32).run()
        ctx = exc.value.context
        assert ctx["budget_bytes"] == 32
        assert ctx["required_bytes"] > 32
        assert "row" in ctx


class TestNoReferenceCycles:
    """A finished run is freed by refcounting alone: nothing it built
    (executor closures, run state, COO parts) waits in a reference cycle
    for the cyclic collector, so peak memory does not hang on GC timing."""

    @staticmethod
    def garbage_after(run) -> int:
        gc.collect()
        gc.disable()
        try:
            run()
            return gc.collect()
        finally:
            gc.enable()

    @pytest.mark.parametrize("variant", ["plain", "mem_budget", "faulted"])
    def test_hhcpu_multiply(self, matrix, variant):
        kwargs = {
            "plain": {},
            "mem_budget": {
                "mem_budget_bytes": estimate_intermediate_bytes(matrix, matrix) // 4
            },
            "faulted": {"faults": FAULTY},
        }[variant]
        assert self.garbage_after(lambda: reference_result(matrix, **kwargs)) == 0

    def test_job_runner_with_mid_phase_checkpoints(self, matrix, tmp_path):
        runner = make_runner(matrix, tmp_path / "ck", faults=FAULTY)
        assert self.garbage_after(runner.run) == 0
        assert len(list_checkpoints(tmp_path / "ck")) >= 4  # mid-Phase-III ones too


class TestRunCli:
    """``python -m repro run`` end to end, including a real SIGKILL."""

    ENV = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}

    def repro(self, *argv, cwd):
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            cwd=cwd, env=self.ENV, capture_output=True, text=True, timeout=600,
        )

    def test_sigkill_resume_matches_clean_run(self, tmp_path):
        common = ["run", "wiki-Vote", "--scale", "0.01", "--checkpoint-every", "3"]
        # 1) start, die from a real SIGKILL right after the 3rd checkpoint
        killed = self.repro(
            *common, "--checkpoint-dir", "ck", "--sigkill-after-checkpoints", "3",
            cwd=tmp_path,
        )
        assert killed.returncode == -signal.SIGKILL, killed.stderr
        assert len(list_checkpoints(tmp_path / "ck")) == 3
        # 2) resume to completion
        resumed = self.repro(
            *common, "--checkpoint-dir", "ck", "--resume",
            "--out", "resumed.mtx", "--export-metrics", "metrics.json",
            cwd=tmp_path,
        )
        assert resumed.returncode == 0, resumed.stderr
        # 3) an uninterrupted run writes a byte-identical MatrixMarket file
        clean = self.repro(
            *common, "--checkpoint-dir", "ck-clean", "--out", "clean.mtx",
            cwd=tmp_path,
        )
        assert clean.returncode == 0, clean.stderr
        assert (tmp_path / "resumed.mtx").read_bytes() == (tmp_path / "clean.mtx").read_bytes()
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["counters"]["jobs.resume.count"] == 1
        assert metrics["counters"]["jobs.run.completed"] == 1

    def test_bad_mem_budget_is_usage_error(self, tmp_path):
        out = self.repro(
            "run", "wiki-Vote", "--scale", "0.01",
            "--checkpoint-dir", "ck", "--mem-budget", "lots",
            cwd=tmp_path,
        )
        assert out.returncode == 2
        assert "unparseable byte size" in out.stderr
        assert "mem_budget" in out.stderr

    def test_deadline_exit_code_is_resumable(self, tmp_path):
        out = self.repro(
            "run", "wiki-Vote", "--scale", "0.01", "--checkpoint-dir", "ck",
            "--deadline", "1e-9",
            cwd=tmp_path,
        )
        assert out.returncode == 1
        assert "resume" in out.stderr
        assert list_checkpoints(tmp_path / "ck")  # the job is resumable
