"""Versioned, integrity-checked checkpoint chains for the job runner.

One checkpoint is one ``.npz`` file named ``ckpt-NNNNNN-<stage>.npz``:
a ``__meta__`` JSON document (schema tag, sequence number, stage,
config fingerprint, the JSON-able run state, the parts layout, the
chain, and a sha256 digest per array) plus the numeric arrays.

A job's checkpoints form a **chain**.  Each file stores only the
partial products (*parts*) completed since the previous checkpoint, so
every tuple goes to disk once.  Its ``chain`` names the earlier files
that hold the rest: one ``(file name, sha256 of that file's __meta__
document)`` link per part-holding predecessor, oldest first.  That
document carries the predecessor's own array digests, so reading and
verifying the linked file checks every byte the link stands for.
Parts are kept by *group* (the runner's Phase II and Phase III lists);
across the chain each group's parts come back in completion order.

Parts layout.  A file concatenates each group's new parts, in
completion order, into four arrays:

- ``<group>.sizes`` — int64, shape ``(2, k)``: tuples and row runs of
  each of the ``k`` parts;
- ``<group>.rows`` — int64, shape ``(2, runs)``: the ``row`` arrays
  run-length encoded, one value and one length per run of equal rows.
  The encoding is exact for any row order.  Parts leave their producers
  (row, col)-sorted, so there are few runs (about 1.4% of the tuples on
  the served workloads) and no nnz-long row array is stored;
- ``<group>.col`` — int32 when the part has at most 2^31 columns,
  otherwise int64; widened back to ``INDEX_DTYPE`` on read;
- ``<group>.data`` — float64.

Restored parts are byte-identical to the written ones: same dtypes,
same values, same order.

Properties the durability layer depends on:

- **versioned** — every file carries :data:`SCHEMA`; a reader that sees
  another schema (``repro-ckpt/1`` included) refuses with
  :class:`~repro.util.errors.CheckpointCorrupt` instead of guessing;
- **integrity-checked** — array digests are verified on read and each
  link's meta digest is checked against the file it names, so a
  truncated, bit-flipped, missing or foreign link is *detected*, never
  silently resumed: discovery falls back to the newest checkpoint whose
  whole chain verifies;
- **atomic** — files are written to a temporary name, fsynced and
  :func:`os.replace`'d into place, so a crash mid-write leaves either
  the previous checkpoint or a ``.tmp`` file the discovery scan ignores;
- **pickle-free** — written via :func:`numpy.savez` with plain arrays
  and read with ``allow_pickle=False``; a checkpoint can never execute
  code on load.  This module is the *only* place in :mod:`repro.jobs`
  allowed to touch serialisation primitives (lint rule CKP001).

JSON round-trips floats through ``repr`` (shortest-round-trip), so the
simulated clocks and trace timestamps restore bit-exactly.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from repro.formats.base import INDEX_DTYPE, VALUE_DTYPE
from repro.formats.coo import COOMatrix
from repro.obs.metrics import METRICS
from repro.obs.spans import SPANS
from repro.util.errors import CheckpointCorrupt, InvalidInputError

#: current checkpoint schema; bump on any layout change
SCHEMA = "repro-ckpt/2"

#: checkpoint file name: ``ckpt-NNNNNN-<stage>.npz``
_CKPT_NAME = re.compile(r"^ckpt-(\d{6})-([a-z0-9_]+)\.npz$")

#: part group names become array-name prefixes
_GROUP_NAME = re.compile(r"^[a-z][a-z0-9_]*$")

#: column counts up to this store ``col`` as int32 (indices < 2^31)
_INT32_COLS = 1 << 31


@dataclass
class Chain:
    """The part-holding checkpoint files of one job, oldest first.

    Each link is ``(file name, sha256 of the file's __meta__ document)``.
    :func:`write_checkpoint` stamps the links into the file it writes and
    appends that file when it holds parts; :func:`find_resumable`
    returns the chain a resumed job continues.
    """

    links: list[tuple[str, str]] = field(default_factory=list)


class Resumable(NamedTuple):
    """What :func:`find_resumable` restores: the newest intact
    checkpoint's meta, every group's parts across its chain in
    completion order, and the chain to continue."""

    meta: dict
    parts: dict[str, list[COOMatrix]]
    chain: Chain


def checkpoint_path(directory: str | Path, seq: int, stage: str) -> Path:
    """The canonical path of checkpoint ``seq`` at ``stage``."""
    return Path(directory) / f"ckpt-{int(seq):06d}-{stage}.npz"


def _digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array)).hexdigest()


def _corrupt(path: Path, reason: str) -> CheckpointCorrupt:
    return CheckpointCorrupt(
        f"checkpoint {path} is unusable: {reason}", path=str(path), reason=reason,
    )


# -- the parts layout ------------------------------------------------------
def _row_runs(row: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``row`` as runs of equal values: (values, lengths)."""
    change = np.empty(row.size, dtype=bool)
    change[:1] = True
    np.not_equal(row[1:], row[:-1], out=change[1:])
    starts = np.flatnonzero(change)
    return row[starts], np.diff(starts, append=row.size)


def encode_parts(
    parts: Mapping[str, Sequence[COOMatrix]],
) -> tuple[dict, dict[str, np.ndarray]]:
    """Row-compress ``parts`` (group name -> parts in completion order).

    Returns the JSON-able layout (group -> shape) and the arrays; groups
    without parts are left out.  Columns must lie in ``[0, ncols)``, the
    COO invariant, so an int32 ``col`` is exact.
    """
    layout: dict = {}
    arrays: dict[str, np.ndarray] = {}
    for group, group_parts in parts.items():
        if not _GROUP_NAME.match(group):
            raise ValueError(f"part group {group!r} is not a lowercase identifier")
        if not group_parts:
            continue
        shape = group_parts[0].shape
        if any(p.shape != shape for p in group_parts):
            raise ValueError(f"parts of group {group!r} differ in shape")
        runs = [_row_runs(p.row) for p in group_parts]
        arrays[f"{group}.sizes"] = np.array(
            [[p.nnz for p in group_parts], [v.size for v, _ in runs]],
            dtype=np.int64,
        )
        arrays[f"{group}.rows"] = np.array(
            [np.concatenate([v for v, _ in runs]),
             np.concatenate([n for _, n in runs])],
            dtype=np.int64,
        )
        arrays[f"{group}.col"] = np.concatenate(
            [p.col for p in group_parts],
            dtype=np.int32 if shape[1] <= _INT32_COLS else INDEX_DTYPE,
            casting="unsafe",
        )
        arrays[f"{group}.data"] = np.concatenate(
            [p.data for p in group_parts], dtype=VALUE_DTYPE
        )
        layout[group] = [int(shape[0]), int(shape[1])]
    return layout, arrays


def decode_parts(
    layout: Mapping[str, Sequence[int]], arrays: Mapping[str, np.ndarray]
) -> dict[str, list[COOMatrix]]:
    """Invert :func:`encode_parts`; raises ``ValueError`` or ``KeyError``
    when the arrays disagree with the layout."""
    parts: dict[str, list[COOMatrix]] = {}
    for group, shape in layout.items():
        sizes = arrays[f"{group}.sizes"]
        rows = arrays[f"{group}.rows"]
        col = arrays[f"{group}.col"].astype(INDEX_DTYPE, copy=False)
        data = arrays[f"{group}.data"]
        if (
            sizes.ndim != 2 or rows.ndim != 2 or len(sizes) != 2 or len(rows) != 2
            or int(sizes[0].sum()) != col.size or col.size != data.size
            or int(sizes[1].sum()) != rows.shape[1]
        ):
            raise ValueError(f"group {group!r}: array sizes disagree")
        out = []
        t0 = r0 = 0
        for t1, r1 in np.cumsum(sizes, axis=1).T.tolist():
            row = np.repeat(rows[0, r0:r1], rows[1, r0:r1])
            if row.size != t1 - t0:
                raise ValueError(f"group {group!r}: row runs disagree with sizes")
            out.append(COOMatrix(
                (int(shape[0]), int(shape[1])), row, col[t0:t1], data[t0:t1],
                validate=False,
            ))
            t0, r0 = t1, r1
        parts[group] = out
    return parts


# -- one file ----------------------------------------------------------------
def write_checkpoint(
    directory: str | Path,
    *,
    seq: int,
    stage: str,
    fingerprint: str,
    state: dict,
    parts: Mapping[str, Sequence[COOMatrix]] | None = None,
    chain: Chain | None = None,
) -> Path:
    """Atomically write one checkpoint; returns its final path.

    ``state`` must be JSON-able (the runner keeps it that way);
    ``parts`` maps group names to the parts completed since the previous
    checkpoint, in completion order.  ``chain`` is the job's chain so
    far: it is recorded as this file's predecessors, and this file is
    appended to it when it holds parts.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = checkpoint_path(directory, seq, stage)
    layout, arrays = encode_parts(parts or {})
    meta = {
        "schema": SCHEMA,
        "seq": int(seq),
        "stage": stage,
        "fingerprint": fingerprint,
        "state": state,
        "parts": layout,
        "chain": [list(link) for link in chain.links] if chain else [],
        "array_digests": {name: _digest(arr) for name, arr in arrays.items()},
    }
    meta_doc = json.dumps(meta, sort_keys=True).encode("utf-8")
    tmp = path.with_name(path.name + ".tmp")
    with SPANS.span("jobs:checkpoint-write", category="jobs.checkpoint",
                    seq=int(seq), stage=stage):
        with open(tmp, "wb") as fh:
            np.savez(fh, __meta__=np.frombuffer(meta_doc, dtype=np.uint8), **arrays)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    if chain is not None and layout:
        chain.links.append((path.name, hashlib.sha256(meta_doc).hexdigest()))
    if METRICS.enabled:
        METRICS.inc("jobs.checkpoint.writes")
        METRICS.inc("jobs.checkpoint.bytes", path.stat().st_size)
    return path


def _read(path: Path) -> tuple[dict, dict[str, np.ndarray], str]:
    """Load and verify one file: ``(meta, arrays, sha256 of __meta__)``."""
    with SPANS.span("jobs:checkpoint-read", category="jobs.checkpoint"):
        try:
            with np.load(path, allow_pickle=False) as npz:
                payload = {name: npz[name] for name in npz.files}
        except FileNotFoundError:
            raise _corrupt(path, "file not found") from None
        except Exception as exc:  # zipfile/npy format damage
            raise _corrupt(path, f"unreadable npz ({exc})") from exc
        blob = payload.pop("__meta__", None)
        if blob is None:
            raise _corrupt(path, "missing __meta__ document")
        try:
            meta = json.loads(bytes(blob).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _corrupt(path, f"undecodable __meta__ ({exc})") from exc
        if not isinstance(meta, dict) or meta.get("schema") != SCHEMA:
            raise _corrupt(
                path,
                f"schema {meta.get('schema') if isinstance(meta, dict) else meta!r} "
                f"is not {SCHEMA}",
            )
        digests = meta.get("array_digests")
        if not isinstance(digests, dict) or set(digests) != set(payload):
            raise _corrupt(path, "array set disagrees with the digest manifest")
        for name, arr in payload.items():
            if _digest(arr) != digests[name]:
                raise _corrupt(path, f"sha256 mismatch on array {name!r}")
    return meta, payload, _digest(blob)


def read_checkpoint(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    """Load and verify one checkpoint file; returns ``(meta, arrays)``.

    Raises :class:`CheckpointCorrupt` (with ``path`` and ``reason``
    context) on any unreadable, mis-schemaed, or digest-failing file.
    The file's chain is not followed; :func:`find_resumable` does that.
    """
    meta, arrays, _ = _read(Path(path))
    return meta, arrays


def list_checkpoints(directory: str | Path) -> list[Path]:
    """Checkpoint files in ``directory``, newest (highest seq) first."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    found = []
    for entry in directory.iterdir():
        m = _CKPT_NAME.match(entry.name)
        if m:
            found.append((int(m.group(1)), entry))
    return [p for _, p in sorted(found, reverse=True)]


# -- the chain ---------------------------------------------------------------
def _restore_chain(path: Path, meta: dict, arrays: dict, read) -> dict[str, list[COOMatrix]]:
    """Every group's parts across ``path``'s chain, oldest link first;
    raises :class:`CheckpointCorrupt` naming ``path`` on a broken link."""
    links = meta.get("chain")
    if not isinstance(links, list):
        raise _corrupt(path, "chain is not a list")
    files = []
    for link in links:
        if not (
            isinstance(link, list) and len(link) == 2
            and isinstance(link[0], str) and _CKPT_NAME.match(link[0])
        ):
            raise _corrupt(path, f"malformed chain link {link!r}")
        name, want = link
        try:
            link_meta, link_arrays, got = read(path.with_name(name))
        except CheckpointCorrupt as exc:
            raise _corrupt(
                path, f"chain link {name}: {exc.context['reason']}"
            ) from exc
        if got != want:
            raise _corrupt(path, f"chain link {name} is not the file it names")
        files.append((name, link_meta, link_arrays))
    files.append((path.name, meta, arrays))
    parts: dict[str, list[COOMatrix]] = {}
    for name, file_meta, file_arrays in files:
        try:
            decoded = decode_parts(file_meta["parts"], file_arrays)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise _corrupt(path, f"parts of {name} disagree with their layout ({exc})") from exc
        for group, group_parts in decoded.items():
            parts.setdefault(group, []).extend(group_parts)
    return parts


def find_resumable(directory: str | Path, fingerprint: str) -> Resumable | None:
    """The newest checkpoint in ``directory`` whose whole chain verifies,
    or None if there are no checkpoints.

    A candidate whose own file or any chain link is unreadable, fails a
    digest, or is not the file its link recorded is broken: it is
    counted in ``jobs.checkpoint.corrupt`` and discovery falls back to
    the next newest.  If checkpoints exist but *none* has an intact
    chain the last failure is re-raised.  A valid checkpoint written by
    a different job configuration raises
    :class:`~repro.util.errors.InvalidInputError` — resuming it would
    silently compute a different product.
    """
    candidates = list_checkpoints(directory)
    if not candidates:
        return None
    read = functools.cache(_read)  # links shared by candidates load once
    last_error: CheckpointCorrupt | None = None
    for path in candidates:
        try:
            meta, arrays, meta_sha = read(path)
            if meta.get("fingerprint") != fingerprint:
                raise InvalidInputError(
                    f"checkpoint {path} was written by a different job "
                    "configuration (operands, kernel, backend spec, unit sizes, "
                    "thresholds, fault spec, or memory budget differ); refusing "
                    "to resume",
                    field="checkpoint_dir", path=str(path),
                    expected=fingerprint, found=meta.get("fingerprint"),
                )
            parts = _restore_chain(path, meta, arrays, read)
        except CheckpointCorrupt as exc:
            if METRICS.enabled:
                METRICS.inc("jobs.checkpoint.corrupt")
            last_error = exc
            continue
        links = [(name, sha) for name, sha in meta["chain"]]
        if meta["parts"]:
            links.append((path.name, meta_sha))
        return Resumable(meta, parts, Chain(links))
    assert last_error is not None
    raise last_error
