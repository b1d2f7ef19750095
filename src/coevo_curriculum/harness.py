"""Experiment orchestration: the co-evolution loop, the vanilla baseline, ablations."""

from __future__ import annotations

import csv
import json
import math
import os
import time
from collections import Counter
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Any, Iterable

import numpy as np

from .config import ABLATION_AXES, ConfigError, ExperimentConfig, config_from_dict
from .evolution import (OP_COUNTS, Population, TaskRecord, advance_toward,
                        assign_population_fitness, delete_bad_tasks, evolve_generation,
                        init_population, soft_select)
from .fitness import PrototypeSet
from .gridworld import N_ACTIONS
from .streams import DOMAIN_EVOLVE, DOMAIN_INIT, DOMAIN_SELECT, DOMAIN_TRAIN, stream
from .tasks import TaskGenome
from .trainer import PolicyTable, evaluate_target, train_on_tasks

SNAPSHOT_FORMAT = 3
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


def write_snapshot(path: Path, config: ExperimentConfig, epoch: int, episodes_total: int,
                   env_steps_total: int, pop: Population | None, policy: PolicyTable) -> None:
    """Line-delimited JSON: one meta line, one line per task record, one per agent table.

    Written to ``<path>.tmp`` and renamed onto ``path``, so a failed write leaves no partial file.
    """
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as handle:
            meta = {"kind": "meta", "format": SNAPSHOT_FORMAT, "epoch": epoch,
                    "episodes_total": episodes_total, "env_steps_total": env_steps_total,
                    "config": config.to_dict()}
            handle.write(json.dumps(meta) + "\n")
            if pop is not None:
                for rec in pop.active:
                    handle.write(json.dumps(_task_line(rec, "active", pop.epoch)) + "\n")
                for gen_epoch in sorted(pop.archive):
                    for rec in pop.archive[gen_epoch]:
                        handle.write(json.dumps(_task_line(rec, "archive", gen_epoch)) + "\n")
            for agent in range(policy.n_agents):
                line = {"kind": "policy", "agent": agent,
                        "n_states": int(policy.q.shape[1]), "n_actions": int(policy.q.shape[2]),
                        "q": policy.q[agent].reshape(-1).tolist()}
                handle.write(json.dumps(line) + "\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _task_line(rec: TaskRecord, where: str, epoch: int) -> dict[str, Any]:
    return {"kind": "task", "where": where, "epoch": epoch, "epoch_born": rec.epoch_born,
            "origin": rec.origin, "genome": rec.genome.as_vector().tolist(),
            "r": rec.r, "f": rec.f}


@dataclass
class Snapshot:
    config_dict: dict[str, Any]
    epoch: int
    episodes_total: int
    env_steps_total: int
    pop: Population | None
    policy_q: np.ndarray


def load_snapshot(path: str | Path) -> Snapshot:
    """Read a snapshot; a missing, malformed or other-format file raises ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return _read_snapshot(handle, path)
    except OSError as exc:
        raise ConfigError(f"cannot read snapshot {path}: {exc}") from exc
    except (ValueError, KeyError, TypeError) as exc:  # ValueError covers bad JSON and shapes
        raise ConfigError(f"snapshot {path} is malformed: {exc}") from exc


def _read_snapshot(lines: Iterable[str], path: str | Path) -> Snapshot:
    meta = None
    active: list[TaskRecord] = []
    archive: dict[int, list[TaskRecord]] = {}
    policy_rows: dict[int, np.ndarray] = {}
    n_actions = 0
    for line in lines:
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        kind = record.get("kind")
        if kind == "meta":
            meta = record
            if meta.get("format") != SNAPSHOT_FORMAT:
                raise ConfigError(f"snapshot {path} has format {meta.get('format', 'missing')}, "
                                  f"expected {SNAPSHOT_FORMAT}")
        elif kind == "task":
            n_agents = len(record["genome"]) // 4
            rec = TaskRecord(TaskGenome.from_vector(record["genome"], n_agents),
                             r=record["r"], f=record["f"],
                             epoch_born=record["epoch_born"], origin=record["origin"])
            if record["where"] == "active":
                active.append(rec)
            else:
                archive.setdefault(int(record["epoch"]), []).append(rec)
        elif kind == "policy":
            n_actions = int(record["n_actions"])
            policy_rows[int(record["agent"])] = np.asarray(record["q"], dtype=float)
    if meta is None or not policy_rows:
        raise ConfigError(f"snapshot {path} is missing its meta or policy lines")
    table = np.stack([policy_rows[a].reshape(-1, n_actions) for a in sorted(policy_rows)])
    pop = None
    if active:
        pop = Population(active=active, archive=archive, epoch=int(meta["epoch"]))
    return Snapshot(config_dict=meta["config"], epoch=int(meta["epoch"]),
                    episodes_total=int(meta["episodes_total"]),
                    env_steps_total=int(meta["env_steps_total"]), pop=pop, policy_q=table)


class _MetricsWriter:
    """metrics.csv and timings.csv; a resume keeps an existing file's rows up to its epoch."""

    def __init__(self, metrics_path: Path, timings_path: Path, resume_epoch: int | None):
        self.metrics_path = metrics_path
        self.timings_path = timings_path
        for path, header in ((metrics_path, METRICS_COLUMNS), (timings_path, TIMINGS_COLUMNS)):
            if resume_epoch is not None and path.exists():
                _cut_after_epoch(path, resume_epoch)
            else:
                with open(path, "w", encoding="utf-8", newline="") as handle:
                    csv.writer(handle).writerow(header)

    def append(self, row: EpochMetrics) -> None:
        with open(self.metrics_path, "a", encoding="utf-8", newline="") as handle:
            csv.writer(handle).writerow(row.csv_row())
        with open(self.timings_path, "a", encoding="utf-8", newline="") as handle:
            csv.writer(handle).writerow((str(row.epoch), f"{row.wall_clock_seconds:.3f}"))


def _cut_after_epoch(path: Path, epoch: int) -> None:
    """Cut a CSV after its last complete row of epoch <= ``epoch``; rows run in epoch order."""
    with open(path, "r+b") as handle:
        end = len(handle.readline())
        for line in handle:
            if not line.endswith(b"\n") or int(line.split(b",", 1)[0]) > epoch:
                break
            end += len(line)
        handle.truncate(end)


def _check_resume(config: ExperimentConfig, snapshot: Snapshot) -> None:
    stored = config_from_dict(snapshot.config_dict)
    if stored.identity_fingerprint() != config.identity_fingerprint():
        raise ConfigError("resume snapshot was produced under a different configuration; "
                          "seed, environment, evolution, fitness and learner settings must match")
    _check_policy_shape(snapshot, config)
    if config.epochs < snapshot.epoch:
        raise ConfigError(f"config asks for {config.epochs} epochs but the snapshot is already "
                          f"at epoch {snapshot.epoch}")


def _check_policy_shape(snapshot: Snapshot, config: ExperimentConfig) -> None:
    expected = (config.env.n_agents, config.env.n_states, N_ACTIONS)
    if snapshot.policy_q.shape != expected:
        raise ConfigError(f"snapshot policy table has shape {snapshot.policy_q.shape}; "
                          f"the configuration needs {expected}")


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
        policy = PolicyTable(q=snap.policy_q.copy(), learning_rate=config.learner.learning_rate,
                             discount=config.learner.discount, epsilon=config.learner.epsilon)
        pop = snap.pop
        if config.mode == "ccl" and pop is None:
            raise ConfigError("snapshot holds no population; it cannot resume a ccl run")
        start_epoch = snap.epoch
        episodes_total = snap.episodes_total
        env_steps_total = snap.env_steps_total
        resume_epoch: int | None = snap.epoch
    else:
        policy = PolicyTable.zeros(env_cfg.n_agents, env_cfg.n_states, config.learner)
        pop = None
        if config.mode == "ccl":
            pop = init_population(config.domain(), evo.population_size, stream(seed, DOMAIN_INIT))
        start_epoch = 0
        episodes_total = 0
        env_steps_total = 0
        resume_epoch = None
        snapshot_path = out_dir / f"snapshot_epoch{0:05d}.jsonl"
        write_snapshot(snapshot_path, config, 0, 0, 0, pop, policy)
    writer = _MetricsWriter(out_dir / "metrics.csv", out_dir / "timings.csv", resume_epoch)

    if config.mode == "ccl":
        assert pop is not None
        batch = soft_select(pop, evo, stream(seed, DOMAIN_SELECT, start_epoch))
        batch_new, batch_old = _batch_composition(batch, pop)
    else:
        batch = []
        batch_new, batch_old = 0, 0

    metrics: list[EpochMetrics] = []
    final_rate = 0.0
    for epoch in range(start_epoch + 1, config.epochs + 1):
        tic = time.perf_counter()
        policy.epsilon = config.learner.epsilon_at(epoch)
        if config.mode == "ccl":
            genomes = [rec.genome for rec in batch]
        else:
            genomes = [target] * evo.batch_size
        outcomes = train_on_tasks(
            genomes, policy, config.episodes_per_task, env_cfg,
            lambda task_idx, episode, _e=epoch: stream(seed, DOMAIN_TRAIN, _e, task_idx, episode))
        episodes_total += sum(out.episodes for out in outcomes)
        env_steps_total += sum(out.env_steps for out in outcomes)
        batch_mean_r = float(np.mean([out.success_rate for out in outcomes]))

        if config.mode == "ccl":
            assert pop is not None
            for rec, out in zip(batch, outcomes):
                rec.r = out.success_rate
                rec.f = config.fitness.evaluate(out.success_rate)
            active_ids = {id(rec) for rec in pop.active}
            measured_active = [rec for rec in batch if id(rec) in active_ids]
            _, removed = delete_bad_tasks(measured_active, evo.deletion_band)
            pop.move_to_archive(removed)
            prototypes = PrototypeSet(
                vectors=np.stack([rec.genome.as_vector() for rec in batch]),
                fitnesses=np.array([rec.f for rec in batch], dtype=float))
            assign_population_fitness(pop.active, prototypes, evo.knn_k)
            active_mean_f = (float(np.mean([rec.f for rec in pop.active]))
                             if pop.active else math.nan)
            pop = evolve_generation(pop, evo, stream(seed, DOMAIN_EVOLVE, epoch))
            pop = advance_toward(pop, target, batch_mean_r)
            batch = soft_select(pop, evo, stream(seed, DOMAIN_SELECT, epoch))
            next_new, next_old = _batch_composition(batch, pop)
        else:
            active_mean_f = math.nan
            next_new, next_old = 0, 0

        final_rate = evaluate_target(policy, target, env_cfg)
        row = EpochMetrics(epoch=epoch, target_success=final_rate, batch_mean_r=batch_mean_r,
                           active_mean_f=active_mean_f, batch_new=batch_new, batch_old=batch_old,
                           episodes_total=episodes_total, env_steps_total=env_steps_total,
                           wall_clock_seconds=time.perf_counter() - tic)
        metrics.append(row)
        writer.append(row)
        batch_new, batch_old = next_new, next_old

        if epoch % config.snapshot_interval == 0 or epoch == config.epochs:
            snapshot_path = out_dir / f"snapshot_epoch{epoch:05d}.jsonl"
            write_snapshot(snapshot_path, config, epoch, episodes_total, env_steps_total,
                           pop, policy)

    ops_delta = {name: count - ops_before.get(name, 0)
                 for name, count in OP_COUNTS.items() if count != ops_before.get(name, 0)}
    return RunResult(config=config, final_target_success=final_rate, metrics=metrics,
                     run_dir=out_dir, metrics_path=writer.metrics_path,
                     timings_path=writer.timings_path, snapshot_path=snapshot_path,
                     evolution_ops=ops_delta)


def _batch_composition(batch: list[TaskRecord], pop: Population) -> tuple[int, int]:
    active_ids = {id(rec) for rec in pop.active}
    new = sum(1 for rec in batch if id(rec) in active_ids)
    return new, len(batch) - new


def evaluate_snapshot(snapshot_path: str | Path) -> float:
    """Greedy target success of a stored policy, using the snapshot's own config."""
    snap = load_snapshot(snapshot_path)
    config = config_from_dict(snap.config_dict)
    _check_policy_shape(snap, config)
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
