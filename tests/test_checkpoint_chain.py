"""Tests for the checkpoint chain (:mod:`repro.jobs.snapshot`).

Covers: the row-compressed part encoding (a Hypothesis round trip over
unsorted and duplicate rows, empty parts and column counts of 1, 2^31
and 2^40), write-once storage (every part lands in exactly one file and
no file holds a per-tuple int64 row array, across cadences and fault
schedules), a resumed job continuing the chain file for file, the
fallback to the newest intact chain when one link is truncated,
bit-flipped, deleted or replaced by another run's file, and the refusal
of ``repro-ckpt/1`` files.
"""

import hashlib
import json
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.hhcpu import HHCPU
from repro.formats.coo import COOMatrix
from repro.jobs import find_resumable, list_checkpoints, read_checkpoint
from repro.jobs.snapshot import SCHEMA, checkpoint_path, decode_parts, encode_parts
from repro.obs.metrics import METRICS
from repro.obs.spans import observed
from repro.scalefree import powerlaw_matrix
from repro.util.errors import CheckpointCorrupt

from tests.test_jobs import (
    FAULTY,
    UNITS,
    assert_bit_identical,
    make_platform,
    make_runner,
    prefix_dir,
)

MATRIX = powerlaw_matrix(800, alpha=2.5, target_nnz=4_000, hub_bias=0.5, rng=17)

#: the fallback runs' cadence, and another that writes same-named files
EVERY, OTHER_EVERY = 3, 2


def assert_same_part(got: COOMatrix, want: COOMatrix) -> None:
    assert got.shape == want.shape
    for name in ("row", "col", "data"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), name


def seq_of(name: str) -> int:
    return int(name.split("-")[1])


# -- the part encoding --------------------------------------------------------
@st.composite
def part_groups(draw):
    """Groups of parts: unsorted or sorted rows with repeats, empty
    parts, every float bit pattern, and 1, 2^31 or 2^40 columns."""
    ncols = draw(st.sampled_from([1, 2**31, 2**40]))
    nrows = draw(st.integers(1, 9))
    groups = {}
    for group in draw(st.lists(st.sampled_from(["p2", "p3", "x_1"]), unique=True)):
        parts = []
        for _ in range(draw(st.integers(0, 3))):
            n = draw(st.integers(0, 25))
            row = draw(hnp.arrays(np.int64, n, elements=st.integers(0, nrows - 1)))
            if draw(st.booleans()):
                row = np.sort(row)
            col = draw(hnp.arrays(np.int64, n, elements=st.integers(0, ncols - 1)))
            data = draw(hnp.arrays(np.float64, n, elements=st.floats(width=64)))
            parts.append(COOMatrix((nrows, ncols), row, col, data, validate=False))
        groups[group] = parts
    return groups


class TestPartEncoding:
    @settings(max_examples=150, deadline=None)
    @given(groups=part_groups())
    def test_round_trip_is_byte_identical(self, groups):
        layout, arrays = encode_parts(groups)
        # the layout travels through the JSON meta document
        decoded = decode_parts(json.loads(json.dumps(layout)), arrays)
        for group, parts in groups.items():
            got = decoded.get(group, [])
            assert len(got) == len(parts)
            for g, w in zip(got, parts):
                assert_same_part(g, w)
            if parts:
                narrow = parts[0].ncols <= 2**31
                assert arrays[f"{group}.col"].dtype == (np.int32 if narrow else np.int64)
        assert set(decoded) == {g for g, parts in groups.items() if parts}

    def test_runs_not_tuples(self):
        row = np.repeat(np.arange(4), [5, 1, 3, 7])
        part = COOMatrix((4, 9), row, np.arange(16) % 9, np.ones(16), validate=False)
        _, arrays = encode_parts({"p2": [part]})
        assert arrays["p2.rows"].tolist() == [[0, 1, 2, 3], [5, 1, 3, 7]]
        assert arrays["p2.sizes"].tolist() == [[16], [4]]

    def test_bad_group_name(self):
        with pytest.raises(ValueError, match="lowercase identifier"):
            encode_parts({"p2.col": [COOMatrix.empty((1, 1))]})

    def test_mismatched_layout_rejected(self):
        part = COOMatrix((2, 2), [0, 1], [1, 0], [1.0, 2.0])
        layout, arrays = encode_parts({"p2": [part]})
        arrays["p2.data"] = arrays["p2.data"][:1]
        with pytest.raises(ValueError, match="disagree"):
            decode_parts(layout, arrays)


# -- write once -----------------------------------------------------------------
def reference_parts(faults) -> dict[str, list[COOMatrix]]:
    """The parts an uninterrupted run produces, in completion order."""
    algo = HHCPU(make_platform(), **UNITS, faults=faults)
    st_ = algo.begin(MATRIX, MATRIX)
    algo.run_phase1(st_)
    algo.stage_operands(st_)
    algo.make_contexts(st_)
    algo.run_phase2(st_)
    algo.build_queue(st_)
    algo.run_phase3(st_)
    return {"p2": st_.phase2_parts, "p3": st_.outcome.parts}


class TestWriteOnce:
    @pytest.mark.parametrize("faults", [None, FAULTY], ids=["plain", "faulty"])
    @pytest.mark.parametrize("every", [1, 2, 3])
    def test_each_part_stored_once(self, tmp_path, every, faults):
        make_runner(MATRIX, tmp_path, checkpoint_every=every, faults=faults).run()
        stored: dict[str, list[COOMatrix]] = {"p2": [], "p3": []}
        holders = []
        for path in reversed(list_checkpoints(tmp_path)):  # oldest first
            meta, arrays = read_checkpoint(path)
            parts = decode_parts(meta["parts"], arrays)
            tuples = sum(p.nnz for ps in parts.values() for p in ps)
            for group, group_parts in parts.items():
                stored[group] += group_parts
                assert arrays[f"{group}.col"].dtype == np.int32
            for name, arr in arrays.items():
                assert not (arr.dtype == np.int64 and arr.size == tuples > 0), name
            if parts:
                holders.append(path.name)
            # a file's chain is exactly the part-holding files before it
            assert [name for name, _ in meta["chain"]] == holders[: len(holders) - bool(parts)]
        want = reference_parts(faults)
        for group in ("p2", "p3"):
            assert len(stored[group]) == len(want[group])
            for got, w in zip(stored[group], want[group]):
                assert_same_part(got, w)

    @pytest.mark.parametrize("kill_at", [2, 3, 5])
    def test_resumed_job_writes_the_clean_files(self, tmp_path, kill_at):
        """A resumed job continues the chain: it writes the same files,
        byte for byte, as a job that was never interrupted."""
        clean = tmp_path / "clean"
        make_runner(MATRIX, clean, checkpoint_every=EVERY, faults=FAULTY).run()
        ckdir = prefix_dir(clean, tmp_path / "cut", kill_at)
        make_runner(MATRIX, ckdir, checkpoint_every=EVERY, faults=FAULTY).run(resume=True)
        names = sorted(p.name for p in clean.iterdir())
        assert sorted(p.name for p in ckdir.iterdir()) == names
        for name in names:
            assert (ckdir / name).read_bytes() == (clean / name).read_bytes(), name


# -- a broken chain -------------------------------------------------------------
@pytest.fixture(scope="module")
def clean_run(tmp_path_factory):
    full = tmp_path_factory.mktemp("clean")
    result = make_runner(MATRIX, full, checkpoint_every=EVERY, faults=FAULTY).run()
    return full, result


@pytest.fixture(scope="module")
def other_cadence(tmp_path_factory):
    full = tmp_path_factory.mktemp("other")
    make_runner(MATRIX, full, checkpoint_every=OTHER_EVERY, faults=FAULTY).run()
    return full


def damage(path, how: str, other_dir) -> None:
    """Truncate, bit-flip, delete, or replace ``path`` with the
    same-named file of a run at another cadence."""
    if how == "truncate":
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
    elif how == "bitflip":
        _, arrays = read_checkpoint(path)
        largest = max(arrays.values(), key=lambda a: a.nbytes).tobytes()
        blob = bytearray(path.read_bytes())
        blob[blob.index(largest) + len(largest) // 2] ^= 0x10
        path.write_bytes(bytes(blob))
    elif how == "delete":
        path.unlink()
    else:
        shutil.copy(other_dir / path.name, path)


def newest_intact(ckdir):
    """(seq, candidates skipped) of the newest checkpoint whose file and
    chain links all verify, judged from the files themselves."""
    meta_sha = {}
    for path in ckdir.iterdir():
        try:
            read_checkpoint(path)
        except CheckpointCorrupt:
            continue
        with np.load(path) as npz:
            meta_sha[path.name] = hashlib.sha256(npz["__meta__"].tobytes()).hexdigest()
    for skipped, path in enumerate(list_checkpoints(ckdir)):
        if path.name in meta_sha and all(
            meta_sha.get(name) == sha for name, sha in read_checkpoint(path)[0]["chain"]
        ):
            return seq_of(path.name), skipped
    raise AssertionError("no intact chain")


class TestChainFallback:
    @settings(max_examples=8, deadline=None)
    @given(kill_at=st.integers(2, 12), link=st.integers(0, 20))
    @pytest.mark.parametrize("how", ["truncate", "bitflip", "delete", "foreign"])
    def test_broken_link(self, clean_run, other_cadence, tmp_path_factory,
                         how, kill_at, link):
        """Kill after ``kill_at`` checkpoints and break one part-holding
        link of the newest chain: resume starts from the newest intact
        chain, counts every broken candidate, and finishes bit-identical."""
        full, want = clean_run
        kill_at = min(kill_at, len(list_checkpoints(full)))
        ckdir = prefix_dir(full, tmp_path_factory.mktemp("cut") / "ck", kill_at)
        newest = list_checkpoints(ckdir)[0]
        meta, _ = read_checkpoint(newest)
        links = [name for name, _ in meta["chain"]] + [newest.name] * bool(meta["parts"])
        victim = ckdir / links[link % len(links)]
        damage(victim, how, other_cadence)
        if how == "foreign":
            # another cadence's file may itself be an intact checkpoint
            # of this job (or the very same file, e.g. phase2)
            from_seq, corrupt = newest_intact(ckdir)
        else:
            from_seq = seq_of(victim.name) - 1
            corrupt = sum(seq_of(p.name) > from_seq for p in list_checkpoints(ckdir))
        with observed():
            got = make_runner(MATRIX, ckdir, checkpoint_every=EVERY,
                              faults=FAULTY).run(resume=True)
            assert METRICS.gauge("jobs.resume.from_seq") == from_seq
            assert METRICS.counter("jobs.checkpoint.corrupt") == corrupt
        assert_bit_identical(got.matrix, want.matrix)
        assert got.total_time == want.total_time

    def test_truncated_phase2_resumes_from_phase1(self, clean_run, tmp_path):
        """Every Phase III checkpoint chains through phase2, so only the
        state-only phase1 checkpoint survives its loss."""
        full, want = clean_run
        ckdir = tmp_path / "ck"
        shutil.copytree(full, ckdir)
        damage(ckdir / "ckpt-000001-phase2.npz", "truncate", None)
        with observed():
            got = make_runner(MATRIX, ckdir, checkpoint_every=EVERY,
                              faults=FAULTY).run(resume=True)
            assert METRICS.gauge("jobs.resume.from_seq") == 0
            assert METRICS.counter("jobs.checkpoint.corrupt") == len(list_checkpoints(full)) - 1
        assert_bit_identical(got.matrix, want.matrix)

    def test_link_reason_names_the_link(self, clean_run, tmp_path):
        full, _ = clean_run
        ckdir = tmp_path / "ck"
        shutil.copytree(full, ckdir)
        (ckdir / "ckpt-000001-phase2.npz").unlink()
        (ckdir / "ckpt-000000-phase1.npz").unlink()
        fingerprint = read_checkpoint(list_checkpoints(ckdir)[0])[0]["fingerprint"]
        with pytest.raises(CheckpointCorrupt) as exc:
            find_resumable(ckdir, fingerprint)
        assert "ckpt-000001-phase2.npz" in exc.value.context["reason"]


class TestSchema:
    def test_schema_1_refused(self, tmp_path):
        path = checkpoint_path(tmp_path, 0, "phase1")
        meta = {"schema": "repro-ckpt/1", "seq": 0, "stage": "phase1",
                "fingerprint": "f", "state": {}, "array_digests": {}}
        doc = json.dumps(meta, sort_keys=True).encode()
        np.savez(path, __meta__=np.frombuffer(doc, dtype=np.uint8))
        with pytest.raises(CheckpointCorrupt) as exc:
            read_checkpoint(path)
        reason = exc.value.context["reason"]
        assert "repro-ckpt/1" in reason and SCHEMA in reason
        assert SCHEMA == "repro-ckpt/2"
        with pytest.raises(CheckpointCorrupt):
            find_resumable(tmp_path, "f")
