"""Repository benchmark: time whole experiment runs, one fresh process at a time.

    python3 bench/run_bench.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Runs experiments of one workload, each in its own process and one after
another (closed loop, one client): at least ``MIN_REPEATS``, then more while
the next one is expected to end within ``--seconds``. The seed becomes
``master_seed``. Every experiment's outputs are checked; a failed check
counts the experiment as failed. The last stdout line is the JSON result; the
full record, with the machine note and each experiment's ``metrics.csv``
SHA-256, is appended to ``--out``. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import outputs

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".bench_work"
MIN_REPEATS = 3
EXPERIMENT_TIMEOUT_S = 170

# Overrides against the package defaults. No key the roadmap plans to delete
# (workers, eval_episodes, collisions_allowed) is set here.
WORKLOADS = {
    # The team reward never fires within the budget, so every episode runs the
    # full step cap: a pure per-step cost of trainer and gridworld.
    "vanilla-target": {
        "config": {"experiment": {"mode": "vanilla", "epochs": 8}},
        "resume_at": 0,
    },
    # The README run: short episodes, so per-episode costs (streams, reset,
    # policy clones) and evolution/fitness every epoch weigh in.
    "ccl-default": {
        "config": {"experiment": {"mode": "ccl", "epochs": 18},
                   "env": {"grid_width": 12, "n_agents": 2, "max_steps": 40},
                   "evolution": {"population_size": 64, "batch_size": 16,
                                 "new_fraction": 0.7}},
        "resume_at": 0,
    },
    # A snapshot every epoch over a growing archive, then a resume in place:
    # snapshot I/O dominates and trainer is a minority.
    "ccl-checkpoint-resume": {
        "config": {"experiment": {"mode": "ccl", "epochs": 36, "episodes_per_task": 2,
                                  "snapshot_interval": 1},
                   "evolution": {"population_size": 256, "batch_size": 64}},
        "resume_at": 18,
    },
}

# Metric names, units and directions live in BENCHMARK.json; a result holds
# exactly the metrics it names for the mode.
SPEC = ROOT / "BENCHMARK.json"


def machine_note() -> dict:
    import numpy

    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model, "python": platform.python_version(),
            "numpy": numpy.__version__}


def spawn(work: Path, label: str, config_path: Path, resume_at: int, traced: bool) -> dict:
    """Run one experiment process and return its record (``error`` set on failure)."""
    out = work / f"{label}.json"
    cmd = [sys.executable, str(Path(__file__).with_name("experiment.py")),
           "--config", str(config_path), "--run-dir", str(work / label), "--out", str(out),
           "--resume-at", str(resume_at)]
    if traced:
        cmd += ["--trace", "--spans", str(work / f"{label}-spans.npz")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=EXPERIMENT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {EXPERIMENT_TIMEOUT_S} s"}
    try:
        record = json.loads(out.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        record = {"error": f"exit {proc.returncode}, no result: {proc.stderr[-2000:]}"}
    if proc.returncode != 0 and "error" not in record:
        record["error"] = f"exit {proc.returncode}"
    return record


def cross_check(records: list[dict], reference: dict | None) -> list[int]:
    """Checks across the experiments of one run; returns resume rows lost per record."""
    hashes = Counter(rec["metrics_sha256"] for rec in records if "metrics_sha256" in rec)
    usual = hashes.most_common(1)[0][0] if hashes else None
    lost = []
    for rec in records:
        if "error" in rec:
            lost.append(0)
            continue
        if rec["metrics_sha256"] != usual:
            rec["problems"].append("metrics.csv differs from the other repeats of this seed")
        if reference is None:
            lost.append(0)
        elif "error" in reference or reference["problems"]:
            rec["problems"].append("the uninterrupted reference run failed")
            lost.append(0)
        else:
            problems, rows_lost = outputs.check_against_reference(
                rec["metrics_csv"], reference["metrics_csv"])
            rec["problems"] += problems
            lost.append(rows_lost)
    return lost


def median(values):
    return statistics.median(values) if values else None


def summarize(records: list[dict], lost: list[int], trace: bool) -> tuple[int, dict]:
    failed = sum(1 for rec in records if "error" in rec or rec["problems"])
    done = [rec for rec in records if "error" not in rec]
    untraced = [rec for rec in done if not rec["traced"]]
    success = [rec["target_success"] for rec in done]
    values: dict[str, float | None] = {}
    if not trace:
        # Complements, so that neither reads 0 at a commit where the target is
        # never reached and no run fails.
        values["target_miss_rate"] = 1.0 - statistics.fmean(success) if success else None
        values["run_ok_rate"] = 1.0 - failed / len(records)
        if untraced:
            # Run time is the mean over the run's experiments, not their
            # median: this host's speed switches between two levels for seconds
            # at a time, and the median of a bimodal sample jumps between them.
            wall = sum(rec["wall_s"] for rec in untraced)
            values["wall_s"] = wall / len(untraced)
            values["env_steps_per_s"] = sum(rec["env_steps"] for rec in untraced) / wall
            for name in ("setup_s", "peak_rss_mb", "output_bytes"):
                values[name] = median([rec[name] for rec in untraced])
    else:
        traced = [rec for rec in done if rec["traced"]]
        names = sorted({name for rec in traced for name in rec["layers"]})
        values = {name: median([rec["layers"][name] for rec in traced if name in rec["layers"]])
                  for name in names}
        values["harness.resume_rows_lost"] = max(lost) if lost else None
        traced_wall = median([rec["wall_s"] for rec in traced])
        plain_wall = median([rec["wall_s"] for rec in untraced])
        if traced_wall is not None and plain_wall is not None:
            values["bench.trace_overhead_s"] = traced_wall - plain_wall
        values["run.target_success"] = statistics.fmean(success) if success else None
        values["run.error_rate"] = failed / len(records)
    section = "per_layer" if trace else "end_to_end"
    spec = json.loads(SPEC.read_text(encoding="utf-8"))[section]
    metrics = {metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
               for metric in spec if values.get(metric["name"]) is not None}
    return failed, metrics


def measure(workload: str, seed: int, seconds: float, trace: bool,
            workloads: dict = WORKLOADS, work_root: Path = WORK) -> tuple[dict, list[dict]]:
    """Run one workload for ``seconds``; returns the result line and every experiment record."""
    spec = workloads[workload]
    work = work_root / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = json.loads(json.dumps(spec["config"]))
    config.setdefault("experiment", {})["master_seed"] = seed
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")

    begin = perf_counter()
    reference = None
    if spec["resume_at"]:
        # The uninterrupted run the resumed rows must equal. It spends part of
        # the run's time but none of its measurements. Snapshot cadence is not
        # part of a run's identity, so it writes only its last snapshot.
        config["experiment"]["snapshot_interval"] = config["experiment"]["epochs"]
        reference_path = work / "reference-config.json"
        reference_path.write_text(json.dumps(config), encoding="utf-8")
        reference = spawn(work, "reference", reference_path, 0, traced=False)
    records: list[dict] = []
    longest = 0.0
    while len(records) < MIN_REPEATS or perf_counter() - begin + longest <= seconds:
        tic = perf_counter()
        # A traced run alternates traced and untraced experiments so that the
        # tracing overhead is measured on the same seed and machine state.
        traced = trace and len(records) % 2 == 0
        records.append(spawn(work, f"exp{len(records)}", config_path, spec["resume_at"], traced))
        longest = max(longest, perf_counter() - tic)
    lost = cross_check(records, reference)
    failed, metrics = summarize(records, lost, trace)
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed,
              "metrics": metrics}
    return result, records


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(WORK / "results.jsonl"),
                        help="file the full run record is appended to")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "coevo_curriculum" / "__init__.py").is_file():
        print(f"error: package source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result, records = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    if not any("error" not in rec for rec in records):
        print(f"error: no experiment completed: {records[0].get('error')}", file=sys.stderr)
        return 1
    for rec in records:
        rec.pop("metrics_csv", None)
    full = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "machine": machine_note(), "result": result,
            "experiments": records}
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(full) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
