"""Snapshot and archive files: a run's whole state after an epoch, and its closed generations."""

from __future__ import annotations

import base64
import hashlib
import json
import math
import os
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from functools import reduce
from itertools import islice
from pathlib import Path
from typing import Any, TextIO

import numpy as np

from .config import (MODES, ConfigError, ExperimentConfig, _check_keys, _coerce, _schema,
                     config_from_dict)
from .evolution import ORIGINS, Generation, Population
from .tasks import BLOCK_SIZE

SNAPSHOT_FORMAT = 9


@dataclass
class Snapshot:
    """A run's whole state after ``epoch`` epochs; a run advances one in place.

    A ccl run's archive lives in ``archive.jsonl`` beside its snapshots, one line per
    generation; ``archive_digest`` chains its first ``epoch`` lines (see ``_chain``), and
    ``pop.archive`` holds the generations they encode.
    """

    config: ExperimentConfig
    epoch: int
    episodes_total: int
    env_steps_total: int
    pop: Population | None
    policy_q: np.ndarray
    archive_digest: str | None = None


# Shared by writer and reader: the meta line's counters are Snapshot's int fields. The keys of
# a generation line, by kind, are the ones _generation_line writes; every column but epoch_born
# is binary: exact little-endian bytes (see _binary).
_COUNTS = tuple(name for name, tp in _schema(Snapshot).items() if tp is int)
_ACTIVE_KEYS = ("kind", "epoch", "genome", "genome_row", "epoch_born", "origin")
_GENERATION_KEYS = {"active": _ACTIVE_KEYS,
                    "archive": (*_ACTIVE_KEYS, "r_index", "r", "f_index", "f")}
_FLOAT, _INDEX, _CODE = np.dtype("<f8"), np.dtype("<u4"), np.dtype("<u1")
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
    ``write_snapshot(p, load_snapshot(p))`` writes the bytes of a ``p`` it wrote again. It
    refuses the active generations the reader refuses (see ``_check_active``), and measured
    active records and retired records that no generation has archived yet: no line holds them.
    """
    pop = snapshot.pop
    if pop is not None and pop.retired:
        raise ValueError(f"the population holds {len(pop.retired)} retired records that are not "
                         "archived yet; a snapshot is taken after evolve_generation")
    active = None if pop is None else Generation.of(pop.active)
    _check_active(snapshot.config, active, ValueError)
    for name in ("r", "f") if active is not None else ():
        if (listed := np.flatnonzero(~np.isnan(getattr(active, name)))).size:
            raise ValueError(f"active {name} lists record {listed[0]}; a snapshot is taken after "
                             "evolve_generation, so no active record is measured")
    with _replacing(path) as handle:
        counts = {name: getattr(snapshot, name) for name in _COUNTS}
        digest = {} if pop is None else {"archive_digest": snapshot.archive_digest}
        handle.write(_ENCODE({"kind": "meta", "format": SNAPSHOT_FORMAT, **counts, **digest,
                              "config": snapshot.config.identity_fingerprint()}) + "\n")
        if active is not None:
            handle.write(_ENCODE(_generation_line("active", pop.epoch, active)) + "\n")
        handle.write(_ENCODE(_policy_line(snapshot.policy_q)) + "\n")


def _check_active(config: ExperimentConfig, active: Generation | None, error: type) -> None:
    """The writer's and reader's one rule, a fault raised as ``error``: an active generation is
    there exactly when the mode keeps a population, with population_size records."""
    if (active is None) == (keeps := MODES[config.mode]):
        raise error(f"a {config.mode} snapshot {'needs an' if keeps else 'holds no'} active line")
    if active is not None and len(active) != config.evolution.population_size:
        raise error(f"active line holds {len(active)} records; every snapshot of the stored config "
                    f"holds {config.evolution.population_size}")


def _binary(values: np.ndarray, dtype: np.dtype, where: str) -> str:
    """``values`` as one column: their exact bytes as ``dtype``, base64. A non-finite float is
    refused, so no run writes a file the reader rejects."""
    if dtype.kind == "f" and not np.isfinite(values).all():
        raise ValueError(f"{where} holds a non-finite value; a snapshot stores finite numbers")
    return base64.b64encode(np.ascontiguousarray(values, dtype=dtype).tobytes()).decode("ascii")


def _sparse(where: str, keys: tuple[str, str], column: np.ndarray, listed: np.ndarray
            ) -> dict[str, str]:
    """A float column as the two binary columns ``keys``: the positions where ``listed`` is
    non-zero, rising, and the column's values there; ``_read_sparse`` fills every other
    position back in. The policy lists its non-zero entries and a generation its non-NaN
    ``r`` and ``f``: the Q table and both measurement columns share this one codec."""
    index_key, value_key = keys
    index = np.flatnonzero(listed)
    return {index_key: _binary(index, _INDEX, f"{where} {index_key}"),
            value_key: _binary(column[index], _FLOAT, f"{where} {value_key}")}


def _policy_line(q: np.ndarray) -> dict[str, Any]:
    """The table's size, the flat positions of its non-zero entries, tested on the bit pattern
    so that a -0.0 is kept, and their values; each table has this one encoding."""
    flat = np.ascontiguousarray(q, dtype=_FLOAT).reshape(-1)
    return {"kind": "policy", "size": flat.size,
            **_sparse("policy", ("index", "q"), flat, flat.view("<u8"))}


def _generation_line(kind: str, epoch: int, generation: Generation) -> dict[str, Any]:
    """A generation's columns (see ``Generation``) as a line; each generation has this one
    encoding. Only an archive line holds ``r`` and ``f``: no active record is measured."""
    measured = {} if kind == "active" else {
        **_sparse(kind, ("r_index", "r"), generation.r, ~np.isnan(generation.r)),
        **_sparse(kind, ("f_index", "f"), generation.f, ~np.isnan(generation.f))}
    return {"kind": kind, "epoch": epoch,
            "genome": _binary(generation.genome, _FLOAT, f"{kind} genome"),
            "genome_row": _binary(generation.genome_row, _INDEX, f"{kind} genome_row"),
            **measured,
            "epoch_born": generation.epoch_born.tolist(),
            "origin": _binary(generation.origin, _CODE, f"{kind} origin")}


def _archive_line(epoch: int, generation: Generation) -> str:
    return _ENCODE(_generation_line("archive", epoch, generation)) + "\n"


def _start_archive(path: Path, archive: dict[int, Generation]) -> None:
    """Write ``archive`` as a run's whole ``archive.jsonl``, which may be the file it was read
    from; the reader loads only the writer's one encoding, so that gives the bytes it read."""
    with _replacing(path) as handle:
        handle.writelines(_archive_line(epoch, generation) for epoch, generation in archive.items())


def _append_archive(path: Path, digest: str, epoch: int, generation: Generation) -> str:
    """Append the generation that just closed to ``archive.jsonl``; returns the new digest."""
    line = _archive_line(epoch, generation)
    with open(path, "a", encoding="utf-8", newline="\n") as handle:
        handle.write(line)
    return _chain(digest, line)


def load_snapshot(path: str | Path) -> Snapshot:
    """``read_snapshot``, with the archive of a snapshot that keeps a population taken from the
    first ``epoch`` lines of the ``archive.jsonl`` beside it, which must match its digest;
    later lines are ignored, and an epoch-0 snapshot needs no file."""
    snap = read_snapshot(path)
    if snap.pop is not None:
        snap.pop.archive = _read_archive(Path(path).with_name(ARCHIVE_NAME), snap)
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


def read_snapshot(path: str | Path) -> Snapshot:
    """A snapshot's own lines, without its archive (``pop.archive`` stays empty), checked
    against its stored config; any fault is a ConfigError. Every value is checked against its
    field's type, as a config value is."""
    where = f"snapshot {path}"
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = handle.readlines()
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8
        raise ConfigError(f"cannot read {where}: {exc}") from exc
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
        pop_mode = MODES[config.mode]
        _check_keys(meta, {"kind", "format", "config", *_COUNTS,
                           *(["archive_digest"] if pop_mode else [])}, "meta line")
        counts = {name: _coerce(meta[name], int, f"meta {name}") for name in _COUNTS}
        for name, count in counts.items():
            if count < 0:
                raise ConfigError(f"meta {name} is {count}; a count is at least 0")
        digest = _coerce(meta["archive_digest"], str, "meta archive_digest") if pop_mode else None
    kinds = [line.get("kind") for line in lines]
    if kinds != ["meta", *(["active"] if pop_mode else []), "policy"]:
        raise ConfigError(f"{where}: lines run {', '.join(map(str, kinds))}; a {config.mode} "
                          f"snapshot needs meta, {'active, ' if pop_mode else ''}policy")
    with _at_line(where, len(lines)):
        q = _read_policy(lines[-1], config.env.q_shape)
    with _at_line(where, 2):
        active = _read_generation(lines[1], config, counts["epoch"]) if pop_mode else None
        _check_active(config, active, ConfigError)
    pop = None if active is None else Population(active.records(), epoch=counts["epoch"])
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


def _read_sparse(line: dict[str, Any], where: str, keys: tuple[str, str], size: int,
                 extent: str, fill: float) -> np.ndarray:
    """The column of ``size`` values that ``_sparse`` listed, ``fill`` at every position it
    did not list. Only the writer's one encoding loads: as many positions as values, the
    positions rising strictly below ``size``, every value finite and none with the bits of
    ``fill``. ``extent`` says what holds the ``size`` positions."""
    index_key, value_key = keys
    index = _read_column(line[index_key], _INDEX, f"{where} {index_key}")
    values = _read_column(line[value_key], _FLOAT, f"{where} {value_key}")
    if index.size != values.size:
        raise ConfigError(f"{where} {index_key} holds {index.size} positions, {where} "
                          f"{value_key} {values.size} values")
    _check_finite(values, f"{where} {value_key}")
    if (filled := np.flatnonzero(values.view("<u8") == _FLOAT.type(fill).view("<u8"))).size:
        raise ConfigError(f"{where} {value_key}[{filled[0]}] is a listed {fill}; only values "
                          f"other than {fill} are listed")
    if (index[1:] <= index[:-1]).any():
        raise ConfigError(f"{where} {index_key} does not rise strictly")
    if index.size and index[-1] >= size:
        raise ConfigError(f"{where} {index_key} {index[-1]} is out of range: {extent}")
    column = np.full(size, fill)
    column[index] = values
    return column


def _read_policy(line: dict[str, Any], shape: tuple[int, ...]) -> np.ndarray:
    """The Q table from its listed entries: a table of the config's size, each listed value
    non-zero, so that every table has one encoding."""
    _check_keys(line, {"kind", "size", "index", "q"}, "policy line")
    size = math.prod(shape)
    if _coerce(line["size"], int, "policy size") != size:
        raise ConfigError(f"policy holds a table of {line['size']} values; the shape {shape} "
                          f"needs {size}")
    return _read_sparse(line, "policy", ("index", "q"), size,
                        f"the shape {shape} holds {size} values", 0.0).reshape(shape)


def _read_genomes(line: dict[str, Any], kind: str, genome_row: np.ndarray, n_agents: int
                  ) -> np.ndarray:
    """The genome column's rows as ``(rows, n_agents, 4)``, refused unless in the writer's form:
    whole finite genomes of the config's agent count, numbered in order of first use by
    ``genome_row``, each used and none with the bits of another."""
    width = n_agents * BLOCK_SIZE
    genome = _read_column(line["genome"], _FLOAT, f"{kind} genome")
    if genome.size % width:
        raise ConfigError(f"{kind} genome holds {genome.size} values, not whole genomes of "
                          f"{n_agents} agents ({width} values each)")
    rows = genome.reshape(-1, width)
    _check_finite(rows, f"{kind} genome")
    used = genome_row.astype(np.int64)
    if (outside := np.flatnonzero(used >= len(rows))).size:
        raise ConfigError(f"{kind} genome_row[{outside[0]}] is row {used[outside[0]]}; the "
                          f"genome column holds {len(rows)} rows")
    # In order of first use, each record uses a row already used or the next one.
    highest = np.maximum.accumulate(np.concatenate(([-1], used)))
    if (early := np.flatnonzero(used > highest[:-1] + 1)).size:
        i = early[0]
        raise ConfigError(f"{kind} genome_row[{i}] uses row {used[i]} before row "
                          f"{highest[i] + 1}; rows are numbered in order of first use")
    if highest[-1] + 1 != len(rows):
        raise ConfigError(f"{kind} genome holds {len(rows)} rows; genome_row uses "
                          f"{highest[-1] + 1}")
    raw, stride = genome.tobytes(), width * _FLOAT.itemsize
    first: dict[bytes, int] = {}
    for row, start in enumerate(range(0, len(raw), stride)):
        if (earlier := first.setdefault(raw[start:start + stride], row)) != row:
            raise ConfigError(f"{kind} genome row {row} repeats row {earlier}; each distinct "
                              "genome is stored once")
    return genome.reshape(-1, n_agents, BLOCK_SIZE)


def _read_generation(line: dict[str, Any], config: ExperimentConfig, expected_epoch: int
                     ) -> Generation:
    """A generation's columns, checked as the README lists; only the writer's one encoding of
    them loads, so that writing them back gives the line's bytes again."""
    kind = line["kind"]
    _check_keys(line, _GENERATION_KEYS[kind], f"{kind} line")
    if _coerce(line["epoch"], int, f"{kind} epoch") != expected_epoch:
        raise ConfigError(f"{kind} epoch {line['epoch']}, expected {expected_epoch}")
    genome_row = _read_column(line["genome_row"], _INDEX, f"{kind} genome_row")
    count = genome_row.size
    epoch_born = _coerce(line["epoch_born"], tuple[int, ...], f"{kind} epoch_born")
    try:
        born = np.array(epoch_born, dtype=np.int64)
    except OverflowError:
        raise ConfigError(f"{kind} epoch_born holds an integer outside 64 bits") from None
    origin = _read_column(line["origin"], _CODE, f"{kind} origin")
    for name, size in (("epoch_born", len(epoch_born)), ("origin", origin.size)):
        if size != count:
            raise ConfigError(f"{kind} {name} holds {size} values; genome_row lists {count} "
                              "records")
    if (unknown := np.flatnonzero(origin >= len(ORIGINS))).size:
        raise ConfigError(f"{kind} origin[{unknown[0]}] is code {origin[unknown[0]]}, not one "
                          f"of 0 to {len(ORIGINS) - 1} ({', '.join(ORIGINS)})")
    extent = f"the generation holds {count} records"
    r, f = (_read_sparse(line, kind, (name + "_index", name), count, extent, math.nan)
            if kind == "archive" else np.full(count, math.nan) for name in ("r", "f"))
    return Generation(_read_genomes(line, kind, genome_row, config.env.n_agents), genome_row,
                      r, f, born, origin)


def _read_archive(path: Path, snap: Snapshot) -> dict[int, Generation]:
    """Generations 0 to ``snap.epoch - 1`` from the first lines of ``path``, checked against
    the snapshot's digest first, so another run's archive is refused whatever it holds; at
    epoch 0, none, so a set-up that failed before it wrote ``path`` resumes."""
    lines: list[str] = []
    try:
        if snap.epoch:
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
    return archive
