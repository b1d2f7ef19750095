"""One experiment in a fresh process: set up, run, check the outputs, report as JSON.

    python3 bench/experiment.py --config CFG.json --run-dir DIR --out RESULT.json
                                [--resume-at EPOCH] [--trace] [--spans SPANS.npz]

Set-up is what every user run pays before its first epoch: importing the
package, ``load_config`` and ``run_experiment`` with ``epochs=0``. The run is
``run_experiment`` to the config's epoch count; with ``--resume-at`` it stops
at that epoch and resumes in place from the snapshot the first leg reports.
The run directory is deleted once its outputs are checked and measured.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import shutil
import sys
import traceback
from pathlib import Path
from time import perf_counter

import outputs
from tracing import RUN_SPAN, SETUP_SPAN, SpanTable, Tracer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def import_package():
    sys.path.insert(0, str(SRC))
    import coevo_curriculum

    if not Path(coevo_curriculum.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"coevo_curriculum was imported from {coevo_curriculum.__file__}, "
                          f"not from {SRC}")
    return coevo_curriculum


def _timings(path: Path) -> list[float]:
    _, rows = outputs.parse_rows(path.read_text(encoding="utf-8"))
    return [float(row["wall_clock_seconds"]) for row in rows if "wall_clock_seconds" in row]


def layer_metrics(spans: SpanTable, runs: list[int], env_steps: int) -> dict:
    """Per-layer numbers of the measured run (setup spans excluded)."""
    metrics: dict[str, float] = {}

    def put(metric: str, span: str, value) -> None:
        if span not in spans.absent:
            metrics[metric] = value()

    for metric, span in (
            ("trainer.train_s", "trainer.train"), ("trainer.rollout_s", "trainer.rollout"),
            ("trainer.act_s", "trainer.act"), ("trainer.update_s", "trainer.update"),
            ("trainer.clone_s", "trainer.clone"), ("trainer.eval_s", "trainer.eval"),
            ("gridworld.step_s", "gridworld.step"), ("gridworld.reset_s", "gridworld.reset"),
            ("streams.stream_s", "streams.stream"), ("tasks.discretize_s", "tasks.discretize"),
            ("evolution.evolve_generation_s", "evolution.evolve_generation"),
            ("evolution.soft_select_s", "evolution.soft_select"),
            ("evolution.assign_population_fitness_s", "evolution.assign_population_fitness"),
            ("evolution.delete_bad_tasks_s", "evolution.delete_bad_tasks"),
            ("fitness.knn_estimate_s", "fitness.knn_estimate"),
            ("harness.write_snapshot_s", "harness.write_snapshot"),
            ("harness.load_snapshot_s", "harness.load_snapshot")):
        put(metric, span, lambda span=span: spans.seconds(span, runs))
    for metric, span in (
            ("trainer.act_calls", "trainer.act"), ("trainer.update_calls", "trainer.update"),
            ("gridworld.step_calls", "gridworld.step"), ("gridworld.reset_calls", "gridworld.reset"),
            ("streams.stream_calls", "streams.stream"),
            ("tasks.discretize_calls", "tasks.discretize"),
            ("fitness.knn_estimate_calls", "fitness.knn_estimate"),
            ("fitness.evaluate_calls", "fitness.evaluate"),
            ("harness.write_snapshot_calls", "harness.write_snapshot")):
        put(metric, span, lambda span=span: spans.calls(span, runs))

    put("trainer.replay_s", "trainer.train", lambda: spans.self_seconds(
        "trainer.train", runs, children=("trainer.rollout", "trainer.clone")))
    put("trainer.us_per_env_step", "trainer.train",
        lambda: spans.seconds("trainer.train", runs) * 1e6 / max(env_steps, 1))
    put("trainer.clone_bytes", "trainer.clone", lambda: spans.count("trainer.clone_bytes", runs))
    put("harness.snapshot_bytes", "harness.write_snapshot",
        lambda: spans.count("harness.snapshot_bytes", runs))
    calls = spans.calls("evolution.crossover_step", runs)
    put("evolution.zero_step_ratio", "evolution.crossover_step",
        lambda: spans.count("evolution.zero_steps", runs) / calls if calls else 0.0)
    metrics["harness.wall_s"] = spans.seconds(RUN_SPAN, runs)
    metrics["harness.self_s"] = spans.self_seconds(RUN_SPAN, runs)
    metrics["config.load_config_s"] = spans.seconds("config.load_config", [0])
    return metrics


def run(args: argparse.Namespace) -> dict:
    started = perf_counter()
    package = import_package()
    import numpy as np
    from coevo_curriculum.config import apply_overrides, load_config
    from coevo_curriculum.harness import load_snapshot

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    span = tracer.span if tracer is not None else lambda name: contextlib.nullcontext()

    run_dir = Path(args.run_dir)
    shutil.rmtree(run_dir, ignore_errors=True)
    with span(SETUP_SPAN):
        with span("config.load_config"):
            config = load_config(args.config)
        package.run_experiment(apply_overrides(config, epochs=0), run_dir=run_dir / "setup")
    setup_s = perf_counter() - started

    out_dir = run_dir / "run"
    legs = [config] if not args.resume_at else [apply_overrides(config, epochs=args.resume_at), None]
    results, wall_s, epoch_s = [], 0.0, []
    for index, leg in enumerate(legs):
        if leg is None:
            leg = apply_overrides(config, resume_from=str(results[-1].snapshot_path))
        if tracer is not None:
            tracer.run_id = index + 1
        tic = perf_counter()
        with span(RUN_SPAN):
            result = package.run_experiment(leg, run_dir=out_dir)
        wall_s += perf_counter() - tic
        results.append(result)
        epoch_s += _timings(Path(result.timings_path))
    if tracer is not None:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    final = results[-1]
    metrics_bytes = Path(final.metrics_path).read_bytes()
    epochs = config.epochs
    accepted = [list(range(1, epochs + 1))]
    if args.resume_at:
        accepted.append(list(range(args.resume_at + 1, epochs + 1)))
    problems = outputs.check_metrics(
        metrics_bytes.decode("utf-8"), epochs=accepted,
        batch_size=config.evolution.batch_size, episodes_per_task=config.episodes_per_task,
        max_steps=config.env.max_steps, ccl=config.mode == "ccl")
    snap = load_snapshot(final.snapshot_path)
    if not np.isfinite(snap.policy_q).all():
        problems.append("final Q table is not finite")
    if not 0.0 <= final.final_target_success <= 1.0:
        problems.append(f"final target success {final.final_target_success} outside [0, 1]")
    last = final.metrics[-1]
    epoch_rows = [row for result in results for row in result.metrics]
    record = {
        "setup_s": setup_s, "wall_s": wall_s, "env_steps": last.env_steps_total,
        "episodes": last.episodes_total, "peak_rss_mb": peak_rss_mb,
        "output_bytes": outputs.dir_bytes(out_dir), "target_success": final.final_target_success,
        "metrics_sha256": outputs.sha256(metrics_bytes),
        "metrics_csv": metrics_bytes.decode("utf-8"), "problems": problems, "traced": bool(tracer),
    }
    shutil.rmtree(run_dir, ignore_errors=True)
    if tracer is None:
        return record

    spans = SpanTable(tracer)
    runs = list(range(1, len(legs) + 1))
    layers = layer_metrics(spans, runs, last.env_steps_total)
    layers["trainer.episodes"] = last.episodes_total
    layers["trainer.success_ratio"] = sum(row.batch_mean_r for row in epoch_rows) / len(epoch_rows)
    ops = [getattr(result, "evolution_ops", None) for result in results]
    if all(isinstance(counts, dict) for counts in ops):
        layers["evolution.ops_total"] = sum(sum(counts.values()) for counts in ops)
    archive = snap.pop.archive if snap.pop is not None else {}
    layers["evolution.archive_records"] = sum(len(bucket) for bucket in archive.values())
    if epoch_s:
        layers["harness.epoch_s_p50"] = float(np.median(epoch_s))
        layers["harness.epoch_s_max"] = max(epoch_s)
    record["layers"] = layers
    record["absent"] = sorted(spans.absent)
    if args.spans:
        tracer.save(args.spans)
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--resume-at", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    try:
        record = run(args)
        status = 0
    except Exception:  # the parent counts the experiment as failed and keeps going
        record = {"error": traceback.format_exc()}
        status = 1
    Path(args.out).write_text(json.dumps(record), encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main())
