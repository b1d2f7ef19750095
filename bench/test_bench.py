"""Fast checks of the benchmark itself on tiny configs.

    python3 -m pytest -q bench/test_bench.py

They are not part of the repository's test suite (``testpaths`` is ``tests``).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import compare
import outputs
import run_bench
from tracing import TARGETS, Tracer

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY = {"env": {"grid_width": 4, "n_agents": 2, "max_steps": 8},
        "evolution": {"population_size": 8, "batch_size": 4, "knn_k": 2}}
TINY_WORKLOADS = {
    "tiny-vanilla": {"config": {**TINY, "experiment": {"mode": "vanilla", "epochs": 2,
                                                       "episodes_per_task": 2}},
                     "resume_at": 0},
    "tiny-resume": {"config": {**TINY, "experiment": {"mode": "ccl", "epochs": 4,
                                                      "episodes_per_task": 2,
                                                      "snapshot_interval": 1}},
                    "resume_at": 2},
}

GOOD = """epoch,target_success,batch_mean_r,active_mean_f,batch_new,batch_old,episodes_total,env_steps_total
1,0.0,0.5,0.3,4,0,8,40
2,1.0,0.25,0.3,3,1,16,90
"""
LIMITS = dict(epochs=[[1, 2]], batch_size=4, episodes_per_task=2, max_steps=8, ccl=True)


def _units(section: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in SPEC[section]}


@pytest.mark.parametrize("workload", sorted(TINY_WORKLOADS))
@pytest.mark.parametrize("trace,section", [(False, "end_to_end"), (True, "per_layer")])
def test_every_named_metric_is_emitted_with_its_unit(tmp_path, workload, trace, section):
    result, records = run_bench.measure(workload, 3, 0, trace, TINY_WORKLOADS, tmp_path)
    assert result["correct"], [rec.get("error") or rec["problems"] for rec in records]
    assert result["attempted"] == len(records) >= run_bench.MIN_REPEATS
    emitted = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert emitted == _units(section)
    assert all(isinstance(entry["value"], (int, float)) for entry in result["metrics"].values())


def test_tiny_resume_reports_lost_rows_and_vanilla_does_no_evolution(tmp_path):
    result, _ = run_bench.measure("tiny-resume", 5, 0, True, TINY_WORKLOADS, tmp_path)
    assert result["metrics"]["harness.resume_rows_lost"]["value"] == 2
    assert result["metrics"]["harness.load_snapshot_s"]["value"] > 0
    result, _ = run_bench.measure("tiny-vanilla", 5, 0, True, TINY_WORKLOADS, tmp_path)
    for name, entry in result["metrics"].items():
        if name.startswith(("evolution.", "fitness.")):
            assert entry["value"] == 0, name


def _resolve(module_name: str, path: str):
    owner = sys.modules[module_name]
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def test_tracer_restores_every_patched_attribute():
    sys.path.insert(0, str(ROOT / "src"))
    import coevo_curriculum  # noqa: F401  (loads every traced module)

    before = {(module, path): vars(owner)[attr]
              for module, path, _ in TARGETS for owner, attr in [_resolve(module, path)]}
    tracer = Tracer()
    tracer.install(TARGETS + (("coevo_curriculum.harness", "no_such_function", "x.gone"),))
    try:
        for (module, path), original in before.items():
            owner, attr = _resolve(module, path)
            assert vars(owner)[attr] is not original, path
    finally:
        tracer.uninstall()
    assert tracer.absent == ["x.gone"]
    for (module, path), original in before.items():
        owner, attr = _resolve(module, path)
        assert vars(owner)[attr] is original, path


@pytest.mark.parametrize("corrupt", [
    lambda text: text.replace("2,1.0,0.25,0.3,3,1,16,90", "2,1.0,0.25,0.3,3,1,17,90"),
    lambda text: text.replace(",16,90", ",16,200"),
    lambda text: text.replace(",3,1,16", ",3,2,16"),
    lambda text: text.replace("2,1.0,", "2,1.5,"),
    lambda text: text.rsplit("2,", 1)[0],
    lambda text: text.replace("2,1.0,0.25", "2,x,0.25"),
    lambda text: "garbage\n",
])
def test_corrupted_metrics_csv_counts_as_failure(corrupt):
    assert outputs.check_metrics(GOOD, **LIMITS) == []
    bad = corrupt(GOOD)
    assert outputs.check_metrics(bad, **LIMITS)
    records = [{"metrics_sha256": outputs.sha256(text.encode()), "metrics_csv": text,
                "problems": outputs.check_metrics(text, **LIMITS), "traced": False,
                "wall_s": 1.0, "env_steps": 90, "setup_s": 0.1, "peak_rss_mb": 1.0,
                "output_bytes": 1, "target_success": 0.0}
               for text in (GOOD, GOOD, bad)]
    lost = run_bench.cross_check(records, None)
    failed, metrics = run_bench.summarize(records, lost, trace=False)
    assert failed == 1
    assert metrics["run_ok_rate"]["value"] == pytest.approx(2 / 3)


def test_resumed_rows_are_checked_against_the_reference():
    resumed = GOOD.split("\n", 2)[0] + "\n" + GOOD.split("\n")[2] + "\n"
    assert outputs.check_against_reference(resumed, GOOD) == ([], 1)
    changed = resumed.replace(",16,90", ",16,91")
    problems, lost = outputs.check_against_reference(changed, GOOD)
    assert problems and lost == 1


@pytest.mark.parametrize("change,expected", [
    ([0.8] * 10, "improved"),
    ([1.02, 0.99, 1.01, 0.98, 1.0, 1.03, 0.97, 1.0, 1.01, 0.99], "no worse"),
    ([1.3] * 10, "regressed"),
    ([0.5, 1.5] * 5, "unresolved"),
])
def test_compare_verdicts_follow_the_pair_rule(change, expected):
    parent = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
    assert compare.verdict(parent, change, "lower", 0.1)[0] == expected
