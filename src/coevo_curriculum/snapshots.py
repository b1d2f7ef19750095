"""Snapshot and archive files: a run's whole state after an epoch, and its closed generations."""

from __future__ import annotations

import base64
import hashlib
import json
import math
import os
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import reduce
from itertools import islice
from pathlib import Path
from typing import Any, TextIO

import numpy as np

from .config import ConfigError, ExperimentConfig, _check_keys, _coerce, _schema, config_from_dict
from .evolution import ORIGIN_CROSS, ORIGIN_INIT, ORIGIN_MUTATE, Population, TaskRecord
from .tasks import BLOCK_SIZE, TaskGenome

SNAPSHOT_FORMAT = 6


@dataclass
class Snapshot:
    """A run's whole state after ``epoch`` epochs; a run advances one in place.

    A ccl run's archive lives in ``archive.jsonl`` beside its snapshots, one line per
    generation; ``archive_digest`` chains its first ``epoch`` lines (see ``_chain``).
    ``archive_lines`` holds those lines as ``load_snapshot`` read and checked them, so that a
    resume writes them back without encoding them again; it is never written.
    """

    config: ExperimentConfig
    epoch: int
    episodes_total: int
    env_steps_total: int
    pop: Population | None
    policy_q: np.ndarray
    archive_digest: str | None = None
    archive_lines: list[str] | None = field(default=None, repr=False, compare=False)


# Shared by writer and reader: the meta line's counters are Snapshot's int fields, and a
# generation line's JSON columns are TaskRecord's scalar fields in order. Its genomes, and the
# policy's entries, are binary columns instead: exact little-endian bytes (see _binary).
_COUNTS = tuple(name for name, tp in _schema(Snapshot).items() if tp is int)
_COLUMNS = {name: tp for name, tp in _schema(TaskRecord).items() if tp is not TaskGenome}
_FLOAT, _INDEX = np.dtype("<f8"), np.dtype("<u4")
_ENCODE = json.JSONEncoder(allow_nan=False).encode  # so no run writes a file the reader rejects
ARCHIVE_NAME = "archive.jsonl"
EMPTY_ARCHIVE_DIGEST = hashlib.sha256().hexdigest()


def _chain(digest: str, line: str) -> str:
    """Digest of an archive prefix extended by one line: sha256(previous hex digest + line)."""
    return hashlib.sha256((digest + line).encode("utf-8")).hexdigest()


@contextmanager
def _replacing(path: Path) -> Iterator[TextIO]:
    """A text file written to ``<path>.tmp`` and renamed onto ``path`` when the block ends;
    a failed write leaves no partial file and ``path`` as it was."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_snapshot(path: Path, snapshot: Snapshot) -> None:
    """One meta line with the run's identity config (and, for a ccl run, the archive digest);
    for a ccl run, one line for the active generation, records as columns; then one line with
    the Q table's size and its non-zero entries, their flat positions and values as binary
    columns. No operational key is stored, so a resumed run writes the files an uninterrupted
    one does.

    Written to ``<path>.tmp`` and renamed onto ``path``, so a failed write leaves no partial file.
    ``write_snapshot(p, load_snapshot(p))`` writes the bytes of a ``p`` it wrote again.
    """
    with _replacing(path) as handle:
        counts = {name: getattr(snapshot, name) for name in _COUNTS}
        pop = snapshot.pop
        digest = {} if pop is None else {"archive_digest": snapshot.archive_digest}
        handle.write(_ENCODE({"kind": "meta", "format": SNAPSHOT_FORMAT, **counts, **digest,
                              "config": snapshot.config.identity_fingerprint()}) + "\n")
        if pop is not None:
            handle.write(_ENCODE(_generation_line("active", pop.epoch, pop.active)) + "\n")
        handle.write(_ENCODE(_policy_line(snapshot.policy_q)) + "\n")


def _binary(values: np.ndarray, dtype: np.dtype, where: str) -> str:
    """``values`` as one column: their exact bytes as ``dtype``, base64. A non-finite float is
    refused, so no run writes a file the reader rejects."""
    if dtype.kind == "f" and not np.isfinite(values).all():
        raise ValueError(f"{where} holds a non-finite value; a snapshot stores finite numbers")
    return base64.b64encode(np.ascontiguousarray(values, dtype=dtype).tobytes()).decode("ascii")


def _policy_line(q: np.ndarray) -> dict[str, Any]:
    """The table's size, the flat positions of its non-zero entries, tested on the bit pattern
    so that a -0.0 is kept, and their values; each table has this one encoding."""
    flat = np.ascontiguousarray(q, dtype=_FLOAT).reshape(-1)
    index = np.flatnonzero(flat.view("<u8"))
    return {"kind": "policy", "size": flat.size, "index": _binary(index, _INDEX, "policy index"),
            "q": _binary(flat[index], _FLOAT, "policy q")}


def _generation_line(kind: str, epoch: int, records: list[TaskRecord]) -> dict[str, Any]:
    genomes = np.stack([rec.genome.blocks for rec in records]) if records else np.empty(0)
    columns = {name: [getattr(rec, name) for rec in records] for name in _COLUMNS}
    return {"kind": kind, "epoch": epoch,
            "genome": _binary(genomes, _FLOAT, f"{kind} genome"), **columns}


def _archive_line(epoch: int, records: list[TaskRecord]) -> str:
    return _ENCODE(_generation_line("archive", epoch, records)) + "\n"


def _start_archive(path: Path, lines: list[str]) -> None:
    """Write ``lines`` as a run's whole ``archive.jsonl``, which may be the file they were
    read from."""
    with _replacing(path) as handle:
        handle.writelines(lines)


def _append_archive(path: Path, digest: str, epoch: int, records: list[TaskRecord]) -> str:
    """Append the generation that just closed to ``archive.jsonl``; returns the new digest."""
    line = _archive_line(epoch, records)
    with open(path, "a", encoding="utf-8", newline="\n") as handle:
        handle.write(line)
    return _chain(digest, line)


def load_snapshot(path: str | Path) -> Snapshot:
    """Read a snapshot and check it against its own stored config; any fault is a ConfigError.

    A ccl snapshot takes its archive from the first ``epoch`` lines of the ``archive.jsonl``
    beside it, which must match its digest; later lines are ignored. Those lines are kept,
    as read, in ``archive_lines``.
    """
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = handle.readlines()
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8
        raise ConfigError(f"cannot read snapshot {path}: {exc}") from exc
    snap = _read_snapshot(f"snapshot {path}", raw)
    if snap.pop is not None:
        snap.pop.archive, snap.archive_lines = _read_archive(path.with_name(ARCHIVE_NAME), snap)
    return snap


@contextmanager
def _at_line(where: str, number: int) -> Iterator[None]:
    """Any fault in the block (bad JSON, a missing key, a failed check) names the line."""
    try:
        yield
    except ConfigError as exc:
        raise ConfigError(f"{where} line {number}: {exc}") from exc
    except (ValueError, LookupError, TypeError) as exc:
        raise ConfigError(f"{where} line {number} is malformed: {exc}") from exc


def _read_snapshot(where: str, raw: list[str]) -> Snapshot:
    """Every value is checked against its field's type, as a config value is."""
    lines = []
    for number, text in enumerate(raw, 1):
        with _at_line(where, number):
            lines.append(json.loads(text))
            if not isinstance(lines[-1], dict):
                raise ConfigError("not a JSON object")
    if not lines:
        raise ConfigError(f"{where} holds no lines")
    meta = lines[0]
    with _at_line(where, 1):
        if (found := meta.get("format", "missing")) != SNAPSHOT_FORMAT:
            raise ConfigError(f"format {found}, expected {SNAPSHOT_FORMAT}")
        config = config_from_dict(meta["config"])
        ccl = config.mode == "ccl"
        _check_keys(meta, {"kind", "format", "config", *_COUNTS,
                           *(["archive_digest"] if ccl else [])}, "meta line")
        counts = {name: _coerce(meta[name], int, f"meta {name}") for name in _COUNTS}
        digest = _coerce(meta["archive_digest"], str, "meta archive_digest") if ccl else None
    kinds = [line.get("kind") for line in lines]
    if kinds != ["meta", *(["active"] if ccl else []), "policy"]:
        raise ConfigError(f"{where}: lines run {', '.join(map(str, kinds))}; a {config.mode} "
                          f"snapshot needs meta, {'active, ' if ccl else ''}policy")
    with _at_line(where, len(lines)):
        q = _read_policy(lines[-1], config.env.q_shape)
    pop = None
    if ccl:
        with _at_line(where, 2):
            pop = Population(_read_generation(lines[1], config, counts["epoch"]),
                             epoch=counts["epoch"])
    return Snapshot(config=config, **counts, pop=pop, policy_q=q, archive_digest=digest)


def _read_column(value: Any, dtype: np.dtype, where: str) -> np.ndarray:
    """The values of one binary column: a string of strict base64 holding whole values."""
    if not isinstance(value, str):
        raise ConfigError(f"{where} must be a base64 string")
    try:
        raw = base64.b64decode(value, validate=True)
    except ValueError as exc:  # binascii.Error, or a character outside ASCII
        raise ConfigError(f"{where} is not base64: {exc}") from exc
    if len(raw) % dtype.itemsize:
        raise ConfigError(f"{where} holds {len(raw)} bytes, not whole {dtype.itemsize}-byte "
                          "values")
    return np.frombuffer(raw, dtype=dtype)


def _check_finite(values: np.ndarray, where: str) -> None:
    """One pass over a float array; a fault names the first non-finite element."""
    if not np.isfinite(values).all():
        first = np.argwhere(~np.isfinite(values))[0]
        raise ConfigError(where + "".join(f"[{i}]" for i in first) + " must be finite")


def _read_policy(line: dict[str, Any], shape: tuple[int, ...]) -> np.ndarray:
    """The Q table from its listed entries: a table of the config's size, positions rising
    strictly within it, each with a finite non-zero value, so that every table has one
    encoding."""
    _check_keys(line, {"kind", "size", "index", "q"}, "policy line")
    size = math.prod(shape)
    if _coerce(line["size"], int, "policy size") != size:
        raise ConfigError(f"policy holds a table of {line['size']} values; the shape {shape} "
                          f"needs {size}")
    index = _read_column(line["index"], _INDEX, "policy index")
    q = _read_column(line["q"], _FLOAT, "policy q")
    if index.size != q.size:
        raise ConfigError(f"policy index holds {index.size} positions, policy q {q.size} values")
    _check_finite(q, "policy q")
    zeros = np.flatnonzero(q.view("<u8") == 0)
    if zeros.size:
        raise ConfigError(f"policy q[{zeros[0]}] is a listed zero; only non-zero entries are "
                          "listed")
    if (index[1:] <= index[:-1]).any():
        raise ConfigError("policy index does not rise strictly")
    if index.size and index[-1] >= size:
        raise ConfigError(f"policy index {index[-1]} is out of range: the shape {shape} holds "
                          f"{size} values")
    table = np.zeros(size)
    table[index] = q
    return table.reshape(shape)


def _read_generation(line: dict[str, Any], config: ExperimentConfig, expected_epoch: int
                     ) -> list[TaskRecord]:
    kind = line["kind"]
    _check_keys(line, {"kind", "epoch", "genome", *_COLUMNS}, f"{kind} line")
    columns = {name: _coerce(line[name], tuple[tp, ...], f"{kind} {name}")
               for name, tp in _COLUMNS.items()}
    if not set(columns["origin"]) <= {ORIGIN_INIT, ORIGIN_CROSS, ORIGIN_MUTATE}:
        raise ConfigError(f"an {kind} origin is not one of "
                          f"{ORIGIN_INIT}, {ORIGIN_CROSS}, {ORIGIN_MUTATE}")
    genomes = _read_column(line["genome"], _FLOAT, f"{kind} genome")
    count, n_agents = len(columns["r"]), config.env.n_agents
    if genomes.size != count * n_agents * BLOCK_SIZE:
        raise ConfigError(f"{kind} genome holds {genomes.size} values; {count} records of "
                          f"{n_agents} agents need {count * n_agents * BLOCK_SIZE}")
    _check_finite(genomes.reshape(count, n_agents * BLOCK_SIZE), f"{kind} genome")
    if _coerce(line["epoch"], int, f"{kind} epoch") != expected_epoch:
        raise ConfigError(f"{kind} epoch {line['epoch']}, expected {expected_epoch}")
    batch = TaskGenome.batch(genomes.reshape(count, n_agents, BLOCK_SIZE))
    return [TaskRecord(*values) for values in zip(batch, *columns.values(), strict=True)]


def _read_archive(path: Path, snap: Snapshot
                  ) -> tuple[dict[int, list[TaskRecord]], list[str]]:
    """Generations 0 to ``snap.epoch - 1`` from the first lines of ``path``, and those lines,
    checked against the snapshot's digest first, so another run's archive is refused
    whatever it holds."""
    try:
        with open(path, "r", encoding="utf-8", newline="\n") as handle:
            lines = list(islice(handle, snap.epoch))
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8
        raise ConfigError(f"cannot read archive {path}: {exc}") from exc
    if lines and not lines[-1].endswith("\n"):
        lines.pop()  # cut short by a crash while it was appended
    if len(lines) < snap.epoch:
        raise ConfigError(f"{path} holds {len(lines)} complete lines; the snapshot needs "
                          f"{snap.epoch}")
    if reduce(_chain, lines, EMPTY_ARCHIVE_DIGEST) != snap.archive_digest:
        raise ConfigError(f"the first {snap.epoch} lines of {path} are not the snapshot's "
                          "archive (digest mismatch)")
    archive = {}
    for expected, raw in enumerate(lines):
        with _at_line(str(path), expected + 1):
            line = json.loads(raw)
            if not isinstance(line, dict) or line.get("kind") != "archive":
                raise ConfigError("not an archive line")
            archive[expected] = _read_generation(line, snap.config, expected)
    return archive, lines
