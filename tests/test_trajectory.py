"""Trajectory gate: the files of the benchmark's three workloads at seed 1, pinned by SHA-256.

A change that alters any trajectory, on purpose or not, fails here. A deliberate
re-baseline updates ``EXPECTED`` (and ``NUMPY_VERSION`` if it moved) in the same
change and says so in CHANGES.md. The workloads restate the configs of
``bench/run_bench.py``, shortened so tier-1 stays fast; the checkpoint workload
stops halfway and resumes in place, as the benchmark does.
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
}
RESUME_AT = {"ccl-checkpoint-resume": 5}

EXPECTED = {
    "vanilla-target": {
        "metrics.csv": "7fbdb08c15cbd82f21cc03ef3a866738a41f3714148e39e8b54fc67fd27dca2b",
        "snapshot_epoch00002.jsonl":
            "3a9d9eb029f2150a11779e1a33bf8be5d88d232aad58df34e02a7bf09cf17102",
    },
    "ccl-default": {
        "metrics.csv": "74b5d5bfd373e2ff411d390368d686ed717a9c0c9b745acd2e34cf5c8b397e61",
        "snapshot_epoch00012.jsonl":
            "ac2d6e793d9236b79fa0dffa9c9aad07e65948a8da0ec17dee87eb001a7cf172",
        "archive.jsonl": "03a95149eb02b17cbe06f342946b5659b444414ae3968654f08ae24d59f13b19",
    },
    "ccl-checkpoint-resume": {
        "metrics.csv": "7c8c82b1f63a445f2dd218df694577f4815b129212df78935f2225a7a11b1735",
        "snapshot_epoch00010.jsonl":
            "423db21298f03bcea4bd9c9eb0432ad034c4af631a6f237ac00251a9ebb3d192",
        "archive.jsonl": "68582eb237268ddef85326002f947e21736d9f75c0c82bfc0aaeac546363b060",
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
