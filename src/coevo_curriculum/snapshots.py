"""Snapshot and archive files: a run's whole state after an epoch, and its closed generations."""

from __future__ import annotations

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

from .config import ConfigError, ExperimentConfig, _coerce, _schema, config_from_dict
from .evolution import ORIGIN_CROSS, ORIGIN_INIT, ORIGIN_MUTATE, Population, TaskRecord
from .tasks import BLOCK_SIZE, TaskGenome

SNAPSHOT_FORMAT = 5


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
# generation line's record columns are TaskRecord's fields in order, a genome as its flat vector.
_COUNTS = tuple(name for name, tp in _schema(Snapshot).items() if tp is int)
_VECTOR = tuple[float, ...]
_COLUMNS = {name: _VECTOR if tp is TaskGenome else tp for name, tp in _schema(TaskRecord).items()}
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
    for a ccl run, one line for the active generation, records as columns; then the whole Q
    table flat on one line. No operational key is stored, so a resumed run writes the files
    an uninterrupted one does.

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
        q = snapshot.policy_q.reshape(-1).tolist()
        handle.write(_ENCODE({"kind": "policy", "q": q}) + "\n")


def _generation_line(kind: str, epoch: int, records: list[TaskRecord]) -> dict[str, Any]:
    columns = {name: [getattr(rec, name) for rec in records] for name in _COLUMNS}
    columns["genome"] = (np.stack([genome.blocks for genome in columns["genome"]])
                         .reshape(len(records), -1).tolist() if records else [])
    return {"kind": kind, "epoch": epoch, **columns}


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
            snap = _read_snapshot([json.loads(line) for line in handle])
        if snap.pop is not None:
            snap.pop.archive, snap.archive_lines = _read_archive(path.with_name(ARCHIVE_NAME),
                                                                 snap)
        return snap
    except OSError as exc:
        raise ConfigError(f"cannot read snapshot {path}: {exc}") from exc
    except ConfigError as exc:
        raise ConfigError(f"snapshot {path}: {exc}") from exc
    except (ValueError, LookupError, TypeError) as exc:  # bad JSON, missing lines or keys
        raise ConfigError(f"snapshot {path} is malformed: {exc}") from exc


def _read_snapshot(lines: list[Any]) -> Snapshot:
    """Every value is checked against its field's type, as a config value is."""
    if not all(isinstance(line, dict) for line in lines):
        raise ConfigError("a line is not a JSON object")
    meta = lines[0]
    if meta.get("format") != SNAPSHOT_FORMAT:
        raise ConfigError(f"format {meta.get('format', 'missing')}, expected {SNAPSHOT_FORMAT}")
    config = config_from_dict(meta["config"])
    ccl = config.mode == "ccl"
    kinds = [line.get("kind") for line in lines]
    if kinds != ["meta", *(["active"] if ccl else []), "policy"]:
        raise ConfigError(f"lines run {', '.join(map(str, kinds))}; a {config.mode} snapshot "
                          f"needs meta, {'active, ' if ccl else ''}policy")
    shape = config.env.q_shape
    q = np.asarray(_coerce(lines[-1]["q"], _VECTOR, "policy q"), dtype=float)
    size = math.prod(shape)
    if q.shape != (size,):
        raise ConfigError(f"policy holds {q.size} values; the shape {shape} needs {size}")
    counts = {name: _coerce(meta[name], int, f"meta {name}") for name in _COUNTS}
    pop = digest = None
    if ccl:
        digest = _coerce(meta["archive_digest"], str, "meta archive_digest")
        epoch, active = _read_generation(lines[1], config)
        if epoch != counts["epoch"]:
            raise ConfigError(f"the active generation is of epoch {epoch}, "
                              f"the snapshot of epoch {counts['epoch']}")
        pop = Population(active=active, epoch=epoch)
    return Snapshot(config=config, **counts, pop=pop, policy_q=q.reshape(shape),
                    archive_digest=digest)


def _read_generation(line: dict[str, Any], config: ExperimentConfig
                     ) -> tuple[int, list[TaskRecord]]:
    kind = line["kind"]
    columns = {name: _coerce(line[name], tuple[tp, ...], f"{kind} {name}")
               for name, tp in _COLUMNS.items()}
    if not set(columns["origin"]) <= {ORIGIN_INIT, ORIGIN_CROSS, ORIGIN_MUTATE}:
        raise ConfigError(f"an {kind} origin is not one of "
                          f"{ORIGIN_INIT}, {ORIGIN_CROSS}, {ORIGIN_MUTATE}")
    genomes = columns["genome"]
    columns["genome"] = TaskGenome.batch(np.array(genomes, dtype=float).reshape(
        len(genomes), config.env.n_agents, BLOCK_SIZE))
    return (_coerce(line["epoch"], int, f"{kind} epoch"),
            [TaskRecord(*values) for values in zip(*columns.values(), strict=True)])


def _read_archive(path: Path, snap: Snapshot
                  ) -> tuple[dict[int, list[TaskRecord]], list[str]]:
    """Generations 0 to ``snap.epoch - 1`` from the first lines of ``path``, and those lines,
    checked against the snapshot's digest first, so another run's archive is refused
    whatever it holds."""
    try:
        with open(path, "r", encoding="utf-8", newline="\n") as handle:
            lines = list(islice(handle, snap.epoch))
    except OSError as exc:
        raise ConfigError(f"cannot read its archive: {exc}") from exc
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
        line = json.loads(raw)
        if not isinstance(line, dict) or line.get("kind") != "archive":
            raise ConfigError(f"{path} line {expected + 1} is not an archive line")
        epoch, archive[expected] = _read_generation(line, snap.config)
        if epoch != expected:
            raise ConfigError(f"{path} line {expected + 1} holds epoch {epoch}, "
                              f"expected {expected}")
    return archive, lines
