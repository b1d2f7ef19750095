"""Trajectory gate: the files of short ccl and vanilla workloads at seed 1, pinned by SHA-256.

A change that alters any trajectory, on purpose or not, fails here. A deliberate
re-baseline updates ``EXPECTED`` (and ``NUMPY_VERSION`` if it moved) in the same
change and says so in CHANGES.md. The first three workloads restate the configs of
``bench/run_bench.py``, shortened so tier-1 stays fast; the checkpoint workload
stops halfway and resumes in place, as the benchmark does. The last two breed
where those three do not: four agents under fixed-scale mutation, and one agent
under linear fitness with a zero mutation scale.
"""

import hashlib

import numpy as np
import pytest

from coevo_curriculum.config import config_from_dict
from coevo_curriculum.harness import run_experiment

# numpy does not promise the same Generator streams across versions.
NUMPY_VERSION = "2.4.6"

WORKLOADS = {
    "vanilla-target": {"experiment": {"mode": "vanilla", "epochs": 2}},
    "ccl-default": {"experiment": {"mode": "ccl", "epochs": 12},
                    "env": {"grid_width": 12, "n_agents": 2, "max_steps": 40},
                    "evolution": {"population_size": 64, "batch_size": 16,
                                  "new_fraction": 0.7}},
    "ccl-checkpoint-resume": {"experiment": {"mode": "ccl", "epochs": 10, "episodes_per_task": 2,
                                             "snapshot_interval": 1},
                              "evolution": {"population_size": 256, "batch_size": 64}},
    "ccl-four-agents-fixed-mutation": {
        "experiment": {"mode": "ccl", "epochs": 6, "episodes_per_task": 2},
        "env": {"grid_width": 6, "n_agents": 4, "max_steps": 12},
        "evolution": {"population_size": 32, "batch_size": 8, "knn_k": 2,
                      "adaptive_mutation": False}},
    "ccl-one-agent-linear-still-mutation": {
        "experiment": {"mode": "ccl", "epochs": 8, "episodes_per_task": 4},
        "env": {"grid_width": 8, "n_agents": 1, "max_steps": 20},
        "fitness": {"mode": "linear"},
        "evolution": {"population_size": 32, "batch_size": 8, "knn_k": 2,
                      "mutation_scale": 0.0}},
}
RESUME_AT = {"ccl-checkpoint-resume": 5}

EXPECTED = {
    "vanilla-target": {
        "metrics.csv": "7fbdb08c15cbd82f21cc03ef3a866738a41f3714148e39e8b54fc67fd27dca2b",
        "snapshot_epoch00002.jsonl":
            "0112f0fc3cfc5156b9b8a63ea15d3b5cfda89ea31da155a222773bd5a91487a1",
    },
    "ccl-default": {
        "metrics.csv": "fe571f1259158d378eef21592669b5bad635fcd2c8eec56115243432835dbd38",
        "snapshot_epoch00012.jsonl":
            "29be89d7a90c204f97999081579827aadb49317b6709b4ffd1057d37783bb7b2",
        "archive.jsonl": "757b311bffbc38195aea50fe8df9133eb35ad5dee87c929bfa2d2c75a3d1190c",
    },
    "ccl-checkpoint-resume": {
        "metrics.csv": "84bd2b47be5a700798e9a703d12a8dda73a9fd3ae72804c1d1da9016b0f40421",
        "snapshot_epoch00010.jsonl":
            "747ce999ec76c2d88b315f089541a505216fa4cc4b911cdeeb499f0bde56ad42",
        "archive.jsonl": "73af3a2557a3deedf2c1a6ab8d62e8ae3757a4cb874fb3e6e6926b6acc013c6c",
    },
    "ccl-four-agents-fixed-mutation": {
        "metrics.csv": "5d822340c3871cf10725abd29a4f570a9d6d08a989f538e5a240ebe3304d4ffa",
        "snapshot_epoch00006.jsonl":
            "afaca10c0fd48d896f7d812208004495416810b699bf36d30eedf0c3f7c7dd22",
        "archive.jsonl": "9723c5b1392ec5492d090de0276790b9ab262d762e898fb546484f74329f7f37",
    },
    "ccl-one-agent-linear-still-mutation": {
        "metrics.csv": "23edbd9c50e0bd0b0243a1583b9f24571c34abbca026858fc7633a5aa1a7ede1",
        "snapshot_epoch00008.jsonl":
            "5a8666cbce2c76712cf8b82c4814b36e3d5b847cf144890a7b14d517c0dbdb87",
        "archive.jsonl": "2d419f447a63c4ec3c24784e63e43c9b7443f8d8000f6ef6ec9dc50b5e5c0ac9",
    },
}


def _config(name, epochs=None, resume_from=None):
    data = {section: dict(values) for section, values in WORKLOADS[name].items()}
    data["experiment"]["master_seed"] = 1
    if epochs is not None:
        data["experiment"]["epochs"] = epochs
    if resume_from is not None:
        data["experiment"]["resume_from"] = str(resume_from)
    return config_from_dict(data)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_files_keep_their_bytes(name, tmp_path):
    assert np.__version__ == NUMPY_VERSION, (
        f"the pinned hashes were computed with numpy {NUMPY_VERSION}, this is numpy "
        f"{np.__version__}; install numpy {NUMPY_VERSION} or re-baseline on purpose")
    if name in RESUME_AT:
        first = run_experiment(_config(name, epochs=RESUME_AT[name]), run_dir=tmp_path)
        result = run_experiment(_config(name, resume_from=first.snapshot_path), run_dir=tmp_path)
    else:
        result = run_experiment(_config(name), run_dir=tmp_path)
    files = (result.metrics_path, result.snapshot_path, tmp_path / "archive.jsonl")
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in files if path.exists()}
    assert digests == EXPECTED[name]
