"""Experiment orchestration: the co-evolution loop, the vanilla baseline, ablations."""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import time
from collections import Counter
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from functools import reduce
from itertools import islice
from pathlib import Path
from typing import Any, TextIO

import numpy as np

from .config import ABLATION_AXES, ConfigError, ExperimentConfig, _coerce, _schema, config_from_dict
from .evolution import (OP_COUNTS, ORIGIN_CROSS, ORIGIN_INIT, ORIGIN_MUTATE, Population,
                        TaskRecord, advance_toward, assign_population_fitness, delete_bad_tasks,
                        evolve_generation, init_population, soft_select)
from .fitness import PrototypeSet
from .streams import DOMAIN_EVOLVE, DOMAIN_INIT, DOMAIN_SELECT, DOMAIN_TRAIN, stream
from .tasks import TaskGenome
from .trainer import PolicyTable, evaluate_target, train_on_tasks

SNAPSHOT_FORMAT = 5
TIMINGS_COLUMNS = ("epoch", "wall_clock_seconds")


@dataclass(frozen=True)
class EpochMetrics:
    """One metrics row per epoch.

    ``wall_clock_seconds`` goes to a sidecar timings file instead of the
    canonical metrics CSV so equal runs produce byte-identical metrics.
    """

    epoch: int
    target_success: float
    batch_mean_r: float
    active_mean_f: float
    batch_new: int
    batch_old: int
    episodes_total: int
    env_steps_total: int
    wall_clock_seconds: float

    def csv_row(self) -> list[str]:
        return [str(getattr(self, name)) for name in METRICS_COLUMNS]


METRICS_COLUMNS = tuple(f.name for f in fields(EpochMetrics) if f.name != "wall_clock_seconds")


@dataclass
class RunResult:
    config: ExperimentConfig
    final_target_success: float
    metrics: list[EpochMetrics]
    run_dir: Path
    metrics_path: Path
    timings_path: Path
    snapshot_path: Path | None
    evolution_ops: dict[str, int]


def _prepare_run_dir(config: ExperimentConfig, run_dir: Path | None) -> Path:
    out = run_dir if run_dir is not None else config.resolved_output_dir()
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write_probe"
        probe.write_text("", encoding="utf-8")
        probe.unlink()
    except OSError as exc:
        raise ConfigError(f"output directory {out} is not writable: {exc}") from exc
    return out


@dataclass
class Snapshot:
    """A run's whole state after ``epoch`` epochs; a run advances one in place.

    A ccl run's archive lives in ``archive.jsonl`` beside its snapshots, one line per
    generation; ``archive_digest`` chains its first ``epoch`` lines (see ``_chain``).
    """

    config: ExperimentConfig
    epoch: int
    episodes_total: int
    env_steps_total: int
    pop: Population | None
    policy_q: np.ndarray
    archive_digest: str | None = None


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
    columns["genome"] = [genome.as_vector().tolist() for genome in columns["genome"]]
    return {"kind": kind, "epoch": epoch, **columns}


def _archive_line(epoch: int, records: list[TaskRecord]) -> str:
    return _ENCODE(_generation_line("archive", epoch, records)) + "\n"


def _start_archive(path: Path, archive: dict[int, list[TaskRecord]]) -> str:
    """Write ``archive`` as a run's whole ``archive.jsonl``, which may be the file it was
    read from, and return its digest."""
    lines = [_archive_line(epoch, archive[epoch]) for epoch in sorted(archive)]
    with _replacing(path) as handle:
        handle.writelines(lines)
    return reduce(_chain, lines, EMPTY_ARCHIVE_DIGEST)


def _append_archive(path: Path, digest: str, epoch: int, records: list[TaskRecord]) -> str:
    """Append the generation that just closed to ``archive.jsonl``; returns the new digest."""
    line = _archive_line(epoch, records)
    with open(path, "a", encoding="utf-8", newline="\n") as handle:
        handle.write(line)
    return _chain(digest, line)


def load_snapshot(path: str | Path) -> Snapshot:
    """Read a snapshot and check it against its own stored config; any fault is a ConfigError.

    A ccl snapshot takes its archive from the first ``epoch`` lines of the ``archive.jsonl``
    beside it, which must match its digest; later lines are ignored.
    """
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            snap = _read_snapshot([json.loads(line) for line in handle])
        if snap.pop is not None:
            snap.pop.archive = _read_archive(path.with_name(ARCHIVE_NAME), snap)
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
    columns["genome"] = [TaskGenome.from_vector(genome, config.env.n_agents)
                         for genome in columns["genome"]]
    return (_coerce(line["epoch"], int, f"{kind} epoch"),
            [TaskRecord(*values) for values in zip(*columns.values(), strict=True)])


def _read_archive(path: Path, snap: Snapshot) -> dict[int, list[TaskRecord]]:
    """Generations 0 to ``snap.epoch - 1`` from the first lines of ``path``, checked against
    the snapshot's digest first, so another run's archive is refused whatever it holds."""
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
    return archive


class _MetricsWriter:
    """metrics.csv and timings.csv; a resume keeps an existing file's rows up to its epoch."""

    def __init__(self, metrics_path: Path, timings_path: Path, resume_epoch: int | None):
        self.metrics_path = metrics_path
        self.timings_path = timings_path
        files = ((metrics_path, METRICS_COLUMNS), (timings_path, TIMINGS_COLUMNS))
        # Both files are read before either is cut, so a rejected resume changes neither.
        kept = {path: _end_of_epoch(path, header, resume_epoch) for path, header in files
                if resume_epoch is not None and path.exists()}
        for path, header in files:
            if path in kept:
                os.truncate(path, kept[path])
            else:
                with open(path, "w", encoding="utf-8", newline="") as handle:
                    csv.writer(handle).writerow(header)

    def append(self, row: EpochMetrics) -> None:
        with open(self.metrics_path, "a", encoding="utf-8", newline="") as handle:
            csv.writer(handle).writerow(row.csv_row())
        with open(self.timings_path, "a", encoding="utf-8", newline="") as handle:
            csv.writer(handle).writerow((str(row.epoch), f"{row.wall_clock_seconds:.3f}"))


def _end_of_epoch(path: Path, header: tuple[str, ...], epoch: int) -> int:
    """Offset just past a CSV's last complete row of epoch <= ``epoch``; rows run in epoch order."""
    with open(path, "rb") as handle:
        first = handle.readline()
        if first.rstrip(b"\r\n") != ",".join(header).encode():
            raise ConfigError(f"cannot resume into {path}: it does not start with its header row")
        end = len(first)
        for line in handle:
            if not line.endswith(b"\n"):
                break
            head = line.split(b",", 1)[0]
            if not head.isdigit():
                raise ConfigError(f"cannot resume into {path}: the row {line!r} has no "
                                  "integer epoch")
            if int(head) > epoch:
                break
            end += len(line)
    return end


def _check_resume(config: ExperimentConfig, snapshot: Snapshot) -> None:
    if snapshot.config.identity_fingerprint() != config.identity_fingerprint():
        raise ConfigError("resume snapshot was produced under a different configuration; "
                          "seed, environment, evolution, fitness and learner settings must match")
    if config.epochs < snapshot.epoch:
        raise ConfigError(f"config asks for {config.epochs} epochs but the snapshot is already "
                          f"at epoch {snapshot.epoch}")


def run_experiment(config: ExperimentConfig, run_dir: Path | None = None) -> RunResult:
    """Run one experiment to completion and leave metrics, timings and snapshots on disk."""
    out_dir = _prepare_run_dir(config, run_dir)
    ops_before = Counter(OP_COUNTS)
    seed = config.master_seed
    env_cfg = config.env
    evo = config.evolution
    target = config.target_genome()
    snapshot_path: Path | None = None

    if config.resume_from is not None:
        snap = load_snapshot(config.resume_from)
        _check_resume(config, snap)
    else:
        pop = (init_population(config.domain(), evo.population_size, stream(seed, DOMAIN_INIT))
               if config.mode == "ccl" else None)
        snap = Snapshot(config, 0, 0, 0, pop, np.zeros(env_cfg.q_shape))
    policy = PolicyTable(q=snap.policy_q, learning_rate=config.learner.learning_rate,
                         discount=config.learner.discount, epsilon=config.learner.epsilon)
    resume_epoch = snap.epoch if config.resume_from is not None else None
    writer = _MetricsWriter(out_dir / "metrics.csv", out_dir / "timings.csv", resume_epoch)
    # Written whole once (empty for a fresh run), after the metrics files are checked so a
    # rejected resume leaves it as it was; from here on the run only appends to it.
    archive_path = out_dir / ARCHIVE_NAME
    if snap.pop is not None:
        snap.archive_digest = _start_archive(archive_path, snap.pop.archive)
    if resume_epoch is None:
        snapshot_path = out_dir / f"snapshot_epoch{0:05d}.jsonl"
        write_snapshot(snapshot_path, snap)

    metrics: list[EpochMetrics] = []
    final_rate = 0.0
    for epoch in range(snap.epoch + 1, config.epochs + 1):
        tic = time.perf_counter()
        policy.epsilon = config.learner.epsilon_at(epoch)
        genomes = [target] * evo.batch_size
        batch_new = batch_old = 0
        active_mean_f = math.nan
        if snap.pop is not None:  # ccl
            batch = soft_select(snap.pop, evo, stream(seed, DOMAIN_SELECT, epoch - 1))
            active_ids = {id(rec) for rec in snap.pop.active}
            batch_new = sum(id(rec) in active_ids for rec in batch)
            batch_old = len(batch) - batch_new
            genomes = [rec.genome for rec in batch]
        outcomes = train_on_tasks(
            genomes, policy, config.episodes_per_task, env_cfg,
            lambda task_idx, episode, _e=epoch: stream(seed, DOMAIN_TRAIN, _e, task_idx, episode))
        snap.episodes_total += sum(out.episodes for out in outcomes)
        snap.env_steps_total += sum(out.env_steps for out in outcomes)
        batch_mean_r = float(np.mean([out.success_rate for out in outcomes]))

        if snap.pop is not None:
            for rec, out in zip(batch, outcomes):
                rec.r = out.success_rate
                rec.f = config.fitness.evaluate(out.success_rate)
            delete_bad_tasks(snap.pop, evo.deletion_band)
            prototypes = PrototypeSet(
                vectors=np.stack([rec.genome.as_vector() for rec in batch]),
                fitnesses=np.array([rec.f for rec in batch], dtype=float))
            assign_population_fitness(snap.pop.active, prototypes, evo.knn_k)
            if snap.pop.active:
                active_mean_f = float(np.mean([rec.f for rec in snap.pop.active]))
            snap.pop = evolve_generation(snap.pop, evo, stream(seed, DOMAIN_EVOLVE, epoch))
            snap.pop = advance_toward(snap.pop, target, batch_mean_r)
            closed = snap.pop.epoch - 1
            snap.archive_digest = _append_archive(archive_path, snap.archive_digest, closed,
                                                  snap.pop.archive[closed])

        final_rate = evaluate_target(policy, target, env_cfg)
        row = EpochMetrics(epoch=epoch, target_success=final_rate, batch_mean_r=batch_mean_r,
                           active_mean_f=active_mean_f, batch_new=batch_new, batch_old=batch_old,
                           episodes_total=snap.episodes_total,
                           env_steps_total=snap.env_steps_total,
                           wall_clock_seconds=time.perf_counter() - tic)
        metrics.append(row)
        writer.append(row)

        snap.epoch = epoch
        if epoch % config.snapshot_interval == 0 or epoch == config.epochs:
            snapshot_path = out_dir / f"snapshot_epoch{epoch:05d}.jsonl"
            write_snapshot(snapshot_path, snap)

    ops_delta = {name: count - ops_before.get(name, 0)
                 for name, count in OP_COUNTS.items() if count != ops_before.get(name, 0)}
    return RunResult(config=config, final_target_success=final_rate, metrics=metrics,
                     run_dir=out_dir, metrics_path=writer.metrics_path,
                     timings_path=writer.timings_path, snapshot_path=snapshot_path,
                     evolution_ops=ops_delta)


def evaluate_snapshot(snapshot_path: str | Path) -> float:
    """Greedy target success of a stored policy, using the snapshot's own config."""
    snap = load_snapshot(snapshot_path)
    config = snap.config
    policy = PolicyTable(q=snap.policy_q, learning_rate=config.learner.learning_rate,
                         discount=config.learner.discount, epsilon=0.0)
    return evaluate_target(policy, config.target_genome(), config.env)


@dataclass
class AblationReport:
    axis: str
    results: dict[str, RunResult]
    report_path: Path

    def final_rates(self) -> dict[str, float]:
        return {name: result.final_target_success for name, result in self.results.items()}


def ablation_variants(config: ExperimentConfig, axis: str) -> dict[str, ExperimentConfig]:
    """Matched-seed variants differing only on the chosen axis."""
    if axis not in ABLATION_AXES:
        raise ConfigError(f"axis must be one of {ABLATION_AXES}, got {axis!r}")
    if config.mode != "ccl":
        raise ConfigError("ablations compare curriculum runs; set mode to 'ccl'")
    if axis == "fitness-shape":
        return {
            "sigmoid": replace(config, fitness=replace(config.fitness, mode="sigmoid")),
            "linear": replace(config, fitness=replace(config.fitness, mode="linear")),
        }
    return {
        "adaptive": replace(config, evolution=replace(config.evolution, adaptive_mutation=True)),
        "fixed": replace(config, evolution=replace(config.evolution, adaptive_mutation=False)),
        "none": replace(config, evolution=replace(config.evolution, adaptive_mutation=False,
                                                  mutation_scale=0.0)),
    }


def run_ablation(config: ExperimentConfig, axis: str, out_dir: Path | None = None) -> AblationReport:
    """Run every variant on the axis and write one side-by-side report CSV."""
    base = out_dir if out_dir is not None else config.resolved_output_dir()
    variants = ablation_variants(config, axis)
    results: dict[str, RunResult] = {}
    for name, variant in variants.items():
        results[name] = run_experiment(variant, run_dir=Path(base) / f"ablation-{axis}" / name)
    report_path = Path(base) / f"ablation-{axis}" / "report.csv"
    with open(report_path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(("variant",) + METRICS_COLUMNS)
        for name, result in results.items():
            for row in result.metrics:
                writer.writerow((name,) + tuple(row.csv_row()))
    return AblationReport(axis=axis, results=results, report_path=report_path)
