"""Every crash point of a small run, in a child process: a resume in place recovers the files.

For each k, a child process runs a small ccl or vanilla run and ends itself with
``os._exit`` at its k-th file write, either before the write or after flushing half of
it, as a killed process would: no ``finally`` block and no buffered write runs. The
parent then resumes in place from the newest snapshot that loads (or, when none does,
starts the run again in that directory) and requires every file but ``timings.csv`` to
be the uninterrupted run's, with no ``.tmp`` file left. A crash ends the process; it does
not cut the power, so what the operating system had not yet written to disk is not tested.

    PYTHONPATH=src python -m pytest -q crashtests

It is not part of tier-1: it starts about a hundred processes.
"""

import builtins
import os
import subprocess
import sys
from pathlib import Path

import pytest

from coevo_curriculum.config import ConfigError, config_from_dict
from coevo_curriculum.harness import _SNAPSHOT_EPOCH, load_snapshot, run_experiment

SRC = Path(__file__).resolve().parents[1] / "src"
CRASHED = 17  # the child's exit status at its crash point
CONFIGS = {mode: {"experiment": {"mode": mode, "epochs": 5, "episodes_per_task": 2,
                                 "master_seed": 11, "snapshot_interval": 2},
                  "env": {"grid_width": 5, "n_agents": 2, "max_steps": 12},
                  "evolution": {"population_size": 8, "batch_size": 4, "knn_k": 2}}
           for mode in ("ccl", "vanilla")}


def _config(mode, **experiment):
    data = {section: dict(values) for section, values in CONFIGS[mode].items()}
    data["experiment"].update(experiment)
    return config_from_dict(data)


class _Crashing:
    """A file opened for writing whose ``write`` calls are counted across all such files; the
    ``crash_at``-th one ends the process, before it writes or after writing half."""

    writes = 0

    def __init__(self, handle, crash_at, half):
        self._handle, self._crash_at, self._half = handle, crash_at, half

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._handle.__exit__(*exc)

    def __getattr__(self, name):
        return getattr(self._handle, name)

    def write(self, text):
        _Crashing.writes += 1
        if _Crashing.writes == self._crash_at:
            if self._half:
                self._handle.write(text[:len(text) // 2])
                self._handle.flush()
            os._exit(CRASHED)
        return self._handle.write(text)

    def writelines(self, lines):
        for line in lines:
            self.write(line)


def _child(run_mode, run_dir, crash_at, how):
    """Run ``run_mode``'s small run into ``run_dir``, crashing at write ``crash_at`` (0: never),
    and print how many writes the run made."""
    real_open = builtins.open

    def crashing_open(file, mode="r", *args, **kwargs):
        handle = real_open(file, mode, *args, **kwargs)
        return _Crashing(handle, crash_at, how == "half") if set(mode) & set("wax+") else handle

    builtins.open = crashing_open
    try:
        run_experiment(_config(run_mode), run_dir=Path(run_dir))
    finally:
        builtins.open = real_open
    print(_Crashing.writes)


def _run_child(mode, run_dir, crash_at, how):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC),
                                                                    os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, __file__, mode, str(run_dir), str(crash_at), how],
                          capture_output=True, text=True, env=env, timeout=120)


def _recover(mode, run_dir):
    """Resume in place from the newest snapshot in ``run_dir`` that loads, or run again there."""
    snapshots = sorted((int(match[1]), path) for path in run_dir.iterdir()
                       if (match := _SNAPSHOT_EPOCH.fullmatch(path.name)))
    for _, path in reversed(snapshots):
        try:
            load_snapshot(path)
        except ConfigError:
            continue
        return run_experiment(_config(mode, resume_from=str(path)), run_dir=run_dir)
    return run_experiment(_config(mode), run_dir=run_dir)


def _files(run_dir):
    return {path.name: path.read_bytes() for path in run_dir.iterdir()
            if path.name != "timings.csv"}


@pytest.mark.parametrize("mode", sorted(CONFIGS))
def test_a_resume_in_place_recovers_from_every_crash_point(tmp_path, mode):
    expected = _files(run_experiment(_config(mode), run_dir=tmp_path / "full").run_dir)
    counted = _run_child(mode, tmp_path / "counted", 0, "never")
    assert counted.returncode == 0, counted.stderr
    assert _files(tmp_path / "counted") == expected  # counting alone changes no byte
    writes = int(counted.stdout.split()[-1])
    assert writes > 10
    for crash_at in range(1, writes + 1):
        for how in ("before", "half"):
            run_dir = tmp_path / f"{crash_at}-{how}"
            crashed = _run_child(mode, run_dir, crash_at, how)
            assert crashed.returncode == CRASHED, (crash_at, how, crashed.stderr)
            _recover(mode, run_dir)
            assert not list(run_dir.glob("*.tmp")), (crash_at, how)
            assert _files(run_dir) == expected, (crash_at, how)
            assert (run_dir / "timings.csv").exists()


if __name__ == "__main__":
    _child(sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4])
