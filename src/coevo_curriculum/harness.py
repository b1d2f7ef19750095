"""Experiment orchestration: the co-evolution loop, the vanilla baseline, ablations."""

from __future__ import annotations

import csv
import math
import os
import re
import time
from collections import Counter
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .config import ABLATION_AXES, MODES, ConfigError, ExperimentConfig
from .evolution import (advance_toward, assign_population_fitness, delete_bad_tasks,
                        evolve_generation, init_population, soft_select)
from .fitness import PrototypeSet
from .snapshots import (ARCHIVE_NAME, EMPTY_ARCHIVE_DIGEST, Snapshot, _COUNTS, _append_archive,
                        _start_archive, load_snapshot, read_snapshot, write_snapshot)
from .streams import DOMAIN_EVOLVE, DOMAIN_INIT, DOMAIN_SELECT, DOMAIN_TRAIN, stream
from .trainer import evaluate_target, train_on_tasks

TIMINGS_COLUMNS = ("epoch", "wall_clock_seconds")
_SNAPSHOT_EPOCH = re.compile(r"snapshot_epoch(\d+)\.jsonl")
# The evolution operators a ccl epoch applies, once each, as RunResult.evolution_ops counts them.
EPOCH_OPERATORS = ("soft_select", "delete_bad_tasks", "assign_population_fitness",
                   "evolve_generation", "advance_toward")


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
    snapshot_path: Path
    evolution_ops: dict[str, int]  # the evolution operators this run applied, by name


def _prepare_run_dir(config: ExperimentConfig, run_dir: Path | None) -> Path:
    """The run's output directory, created if missing. A fresh run refuses a directory that
    holds another run's files, and a resume one that holds a snapshot past the resume's last
    epoch, before either touches anything; only a resume continues there."""
    out = run_dir if run_dir is not None else config.resolved_output_dir()
    if config.resume_from is None and out.is_dir():
        found = sorted(path.name for path in out.iterdir()
                       if path.name in ("metrics.csv", ARCHIVE_NAME)
                       or path.match("snapshot_epoch*.jsonl"))
        if found:
            raise ConfigError(f"output directory {out} already holds another run's files "
                              f"({', '.join(found)}); choose a new directory or resume")
    elif out.is_dir():
        # A resume rewrites the archive and metrics rows past its snapshot, so a snapshot
        # past its last epoch would be left pointing at lines that are gone.
        newest, name = max(((int(match[1]), path.name) for path in out.iterdir()
                            if (match := _SNAPSHOT_EPOCH.fullmatch(path.name))), default=(0, ""))
        if newest > config.epochs:
            raise ConfigError(f"output directory {out} holds {name}, past epoch {config.epochs} "
                              f"where this resume ends, which would leave it unreadable; resume "
                              f"to epoch {newest} or later (--epochs) or into a new directory "
                              f"(--output-dir)")
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write_probe"
        probe.write_text("", encoding="utf-8")
        probe.unlink()
    except OSError as exc:
        raise ConfigError(f"output directory {out} is not writable: {exc}") from exc
    return out


class _MetricsWriter:
    """metrics.csv and timings.csv; a resume keeps an existing file's rows up to its epoch."""

    def __init__(self, metrics_path: Path, timings_path: Path, resume: Snapshot | None):
        self.metrics_path = metrics_path
        self.timings_path = timings_path
        files = ((metrics_path, METRICS_COLUMNS), (timings_path, TIMINGS_COLUMNS))
        # Both files are read before either is cut, so a rejected resume changes neither.
        kept = {path: _end_of_epoch(path, header, resume) for path, header in files
                if resume is not None and path.exists()}
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


def _end_of_epoch(path: Path, header: tuple[str, ...], snap: Snapshot) -> int:
    """Offset just past a CSV's last complete row of epoch <= the snapshot's; rows run in epoch
    order. Kept rows must end with the row of the snapshot's epoch, with its counts, so a
    resume never splices rows of another run; a file with no kept row is continued."""
    with open(path, "rb") as handle:
        first = handle.readline()
        if first.rstrip(b"\r\n") != ",".join(header).encode():
            raise ConfigError(f"cannot resume into {path}: it does not start with its header row")
        end = len(first)
        last = None
        for line in handle:
            if not line.endswith(b"\n"):
                break
            head = line.split(b",", 1)[0]
            if not head.isdigit():
                raise ConfigError(f"cannot resume into {path}: the row {line!r} has no "
                                  "integer epoch")
            if int(head) > snap.epoch:
                break
            end += len(line)
            last = line
    if last is not None:
        row = dict(zip(header, last.rstrip(b"\r\n").decode("utf-8", "replace").split(",")))
        for name in _COUNTS:  # the snapshot's epoch and totals
            if name in row and row[name] != str(getattr(snap, name)):
                raise ConfigError(f"cannot resume into {path}: its last row up to epoch "
                                  f"{snap.epoch} has {name} {row[name]}, the snapshot "
                                  f"{getattr(snap, name)}; it holds another run's rows")
    return end


def _check_resume(config: ExperimentConfig, snapshot: Snapshot) -> None:
    stored, given = snapshot.config.identity_fingerprint(), config.identity_fingerprint()
    for section, values in stored.items():
        for key, value in values.items():
            if given[section][key] != value:
                raise ConfigError(f"resume snapshot was produced under a different configuration: "
                                  f"{section}.{key}: {value!r} in the snapshot, "
                                  f"{given[section][key]!r} here")
    if config.epochs < snapshot.epoch:
        raise ConfigError(f"config asks for {config.epochs} epochs but the snapshot is already "
                          f"at epoch {snapshot.epoch}")


# A curriculum's calls: start() writes the files it keeps, once, before the first epoch;
# batch(epoch) -> ((B, n_agents, 4) blocks, batch_new, batch_old),
# observe(epoch, blocks, rates) -> active_mean_f; ``ops`` counts the operators it applied. Each
# operator is looked up as a global of this module, where the tracer and the tests patch it.
class _TargetCurriculum:
    """A mode with no population (``vanilla``): every epoch trains on batch_size target copies."""

    def __init__(self, config: ExperimentConfig, snap: Snapshot, archive_path: Path):
        target = config.target_genome().blocks
        self.blocks = np.broadcast_to(target, (config.evolution.batch_size,) + target.shape)
        self.ops: Counter[str] = Counter()

    def start(self) -> None:
        pass

    def batch(self, epoch: int) -> tuple[np.ndarray, int, int]:
        return self.blocks, 0, 0

    def observe(self, epoch: int, blocks: np.ndarray, rates: list[float]) -> float:
        return math.nan


class _PopulationCurriculum:
    """A population mode (``ccl``): soft-selects each batch from a co-evolving task population
    held in ``snap.pop``, and appends each closed generation to ``archive.jsonl``."""

    def __init__(self, config: ExperimentConfig, snap: Snapshot, archive_path: Path):
        self.config, self.snap, self.archive_path = config, snap, archive_path
        self.target = config.target_genome()
        self.ops: Counter[str] = Counter()
        if snap.pop is None:  # a fresh run
            snap.pop = init_population(config.domain(), config.evolution.population_size,
                                       stream(config.master_seed, DOMAIN_INIT))
            snap.archive_digest = EMPTY_ARCHIVE_DIGEST
            self.ops["init_population"] += 1

    def start(self) -> None:
        # Written whole once (a resume's loaded generations re-encoded), then only appended.
        _start_archive(self.archive_path, self.snap.pop.archive)

    def batch(self, epoch: int) -> tuple[np.ndarray, int, int]:
        self.selected = soft_select(self.snap.pop, self.config.evolution,
                                    stream(self.config.master_seed, DOMAIN_SELECT, epoch - 1))
        self.active_ids = {id(rec) for rec in self.snap.pop.active}
        batch_new = sum(id(rec) in self.active_ids for rec in self.selected)
        return (np.stack([rec.genome.blocks for rec in self.selected]), batch_new,
                len(self.selected) - batch_new)

    def observe(self, epoch: int, blocks: np.ndarray, rates: list[float]) -> float:
        snap, evo, seed = self.snap, self.config.evolution, self.config.master_seed
        fitnesses = [self.config.fitness.evaluate(rate) for rate in rates]
        for rec, rate, fitness in zip(self.selected, rates, fitnesses):
            if id(rec) in self.active_ids:  # an archived record keeps its archive.jsonl values
                rec.r, rec.f = rate, fitness
        delete_bad_tasks(snap.pop, evo.deletion_band)
        prototypes = PrototypeSet(vectors=blocks.reshape(len(blocks), -1),
                                  fitnesses=np.array(fitnesses, dtype=float))
        assign_population_fitness(snap.pop.active, prototypes, evo.knn_k)
        active_mean_f = (float(np.mean([rec.f for rec in snap.pop.active])) if snap.pop.active
                         else math.nan)
        snap.pop = evolve_generation(snap.pop, evo, stream(seed, DOMAIN_EVOLVE, epoch))
        snap.pop = advance_toward(snap.pop, self.target, float(np.mean(rates)))
        self.ops.update(EPOCH_OPERATORS)
        closed = snap.pop.epoch - 1
        snap.archive_digest = _append_archive(self.archive_path, snap.archive_digest, closed,
                                              snap.pop.archive[closed])
        return active_mean_f


CURRICULA = {True: _PopulationCurriculum, False: _TargetCurriculum}  # by MODES[mode]


def run_experiment(config: ExperimentConfig, run_dir: Path | None = None) -> RunResult:
    """Run one experiment to completion and leave metrics, timings and snapshots on disk."""
    # A resume's snapshot is loaded and checked first, so a refused one creates no directory.
    resume = None
    if config.resume_from is not None:
        resume = load_snapshot(config.resume_from)
        _check_resume(config, resume)
    out_dir = _prepare_run_dir(config, run_dir)
    seed = config.master_seed
    env_cfg = config.env
    target = config.target_genome()

    snap = (resume if resume is not None
            else Snapshot(config, 0, 0, 0, None, np.zeros(env_cfg.q_shape)))
    curriculum = CURRICULA[MODES[config.mode]](config, snap, out_dir / ARCHIVE_NAME)
    snapshot_path = (Path(config.resume_from) if resume is not None
                     else out_dir / f"snapshot_epoch{0:05d}.jsonl")
    if resume is None:
        # A fresh run's first file, so a set-up that fails leaves either no file a fresh run
        # refuses or a snapshot to resume from.
        write_snapshot(snapshot_path, snap)
    writer = _MetricsWriter(out_dir / "metrics.csv", out_dir / "timings.csv", resume)
    # Started after the metrics files are checked, so a refused resume leaves its archive as it was.
    curriculum.start()

    metrics: list[EpochMetrics] = []
    for epoch in range(snap.epoch + 1, config.epochs + 1):
        tic = time.perf_counter()
        blocks, batch_new, batch_old = curriculum.batch(epoch)
        successes, env_steps = train_on_tasks(
            blocks, snap.policy_q, config.learner, config.learner.epsilon_at(epoch),
            config.episodes_per_task, env_cfg, stream(seed, DOMAIN_TRAIN, epoch))
        snap.episodes_total += len(blocks) * config.episodes_per_task
        snap.env_steps_total += int(env_steps.sum())
        rates = (successes / config.episodes_per_task).tolist()
        active_mean_f = curriculum.observe(epoch, blocks, rates)

        target_success = evaluate_target(snap.policy_q, target, env_cfg)
        row = EpochMetrics(epoch=epoch, target_success=target_success,
                           batch_mean_r=float(np.mean(rates)), active_mean_f=active_mean_f,
                           batch_new=batch_new, batch_old=batch_old,
                           episodes_total=snap.episodes_total,
                           env_steps_total=snap.env_steps_total,
                           wall_clock_seconds=time.perf_counter() - tic)
        metrics.append(row)
        writer.append(row)

        snap.epoch = epoch
        if epoch % config.snapshot_interval == 0 or epoch == config.epochs:
            snapshot_path = out_dir / f"snapshot_epoch{epoch:05d}.jsonl"
            write_snapshot(snapshot_path, snap)

    # A run with no epoch left to run reports the policy it loaded or started from.
    final_rate = (metrics[-1].target_success if metrics
                  else evaluate_target(snap.policy_q, target, env_cfg))
    return RunResult(config=config, final_target_success=final_rate, metrics=metrics,
                     run_dir=out_dir, metrics_path=writer.metrics_path,
                     timings_path=writer.timings_path, snapshot_path=snapshot_path,
                     evolution_ops=curriculum.ops)


def evaluate_snapshot(snapshot_path: str | Path) -> float:
    """Greedy target success of a stored policy under the snapshot's own config; no archive."""
    snap = read_snapshot(snapshot_path)
    return evaluate_target(snap.policy_q, snap.config.target_genome(), snap.config.env)


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
    if not MODES[config.mode]:
        raise ConfigError(f"ablations compare task populations; mode {config.mode!r} keeps none")
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
