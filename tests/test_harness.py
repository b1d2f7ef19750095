"""Config schema, run loop artifacts, snapshot resume, ablations, CLI."""

import base64
import copy
import csv
import hashlib
import json
import math
import re
import sys
import textwrap
from dataclasses import replace
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

from coevo_curriculum.cli import console, main
from coevo_curriculum.config import (ABLATION_AXES, DEFAULT_OUTPUT_DIR, MODES, OUTPUT_DIR_ENV,
                                     ConfigError, ExperimentConfig, apply_overrides,
                                     config_from_dict, default_config, load_config)
from coevo_curriculum.evolution import Generation, Population, TaskRecord, delete_bad_tasks
from coevo_curriculum.harness import (METRICS_COLUMNS, ablation_variants, evaluate_snapshot,
                                      load_snapshot, run_ablation, run_experiment,
                                      write_snapshot)
from coevo_curriculum.snapshots import EMPTY_ARCHIVE_DIGEST, Snapshot, _archive_line, _chain
from coevo_curriculum.streams import DOMAIN_SELECT, stream
from coevo_curriculum.tasks import TaskGenome
from test_trajectory import WORKLOADS
from test_trajectory import _config as _workload_config


def _small_dict(**experiment):
    base = {
        "experiment": {"mode": "ccl", "epochs": 4, "episodes_per_task": 2,
                       "master_seed": 11, "snapshot_interval": 2},
        "env": {"grid_width": 5, "n_agents": 2, "max_steps": 12},
        "evolution": {"population_size": 8, "batch_size": 4, "knn_k": 2},
    }
    base["experiment"].update(experiment)
    return base


def _small_config(**experiment):
    return config_from_dict(_small_dict(**experiment))


def _read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


# ---------------------------------------------------------------- config

def test_default_config_values():
    cfg = default_config()
    assert cfg.mode == "ccl"
    assert cfg.epochs == 30
    assert cfg.episodes_per_task == 10
    assert cfg.env.grid_width == 12 and cfg.env.n_agents == 2 and cfg.env.max_steps == 40
    assert cfg.evolution.population_size == 64 and cfg.evolution.batch_size == 16
    assert cfg.evolution.new_fraction == 0.7 and cfg.evolution.knn_k == 4
    assert cfg.evolution.deletion_band == (0.02, 0.98)
    assert cfg.fitness.mode == "sigmoid" and cfg.fitness.gain == 2.0
    assert cfg.learner.learning_rate == 0.1 and cfg.learner.discount == 0.95


def test_config_dict_round_trip():
    data = {
        "experiment": {"mode": "vanilla", "epochs": 7, "episodes_per_task": 3, "master_seed": 5,
                       "target": [[0.1, 0.2, 0.9, 0.8], [0.9, 0.8, 0.1, 0.2],
                                  [0.5, 0.0, 0.5, 1.0]],
                       "init_distance_threshold": 0.25, "snapshot_interval": 2,
                       "output_dir": "out", "resume_from": "in.jsonl"},
        "env": {"grid_width": 6, "n_agents": 3, "max_steps": 9},
        "evolution": {"population_size": 10, "batch_size": 6, "new_fraction": 0.5, "knn_k": 3,
                      "mutation_scale": 0.2, "deletion_band": [0.1, 0.9],
                      "adaptive_mutation": False},
        "fitness": {"gain": 3.0, "mode": "linear"},
        "learner": {"learning_rate": 0.3, "discount": 0.9, "epsilon": 0.4,
                    "epsilon_decay": 0.99, "epsilon_floor": 0.05},
    }
    defaults = default_config().to_dict()
    assert sum(len(section) for section in defaults.values()) == 26
    for section, values in defaults.items():
        assert set(data[section]) == set(values)
        for key, value in values.items():
            assert data[section][key] != value, f"{section}.{key} is left at its default"
    cfg = config_from_dict(data)
    assert cfg.to_dict() == data
    assert config_from_dict(cfg.to_dict()) == cfg
    assert cfg.target == ((0.1, 0.2, 0.9, 0.8), (0.9, 0.8, 0.1, 0.2), (0.5, 0.0, 0.5, 1.0))
    assert cfg.evolution.deletion_band == (0.1, 0.9)


def test_load_config_reads_json(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(_small_dict(master_seed=99)), encoding="utf-8")
    cfg = load_config(path)
    assert cfg.master_seed == 99
    assert cfg.env.grid_width == 5


def test_load_config_missing_file_and_bad_json(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(bad)
    bad.write_bytes(b'{"experiment": {"epochs": 1\xff}}')
    with pytest.raises(ConfigError, match="UTF-8"):
        load_config(bad)


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown key"):
        config_from_dict({"experimnt": {}})
    for section, key in (("experiment", "n_epochs"), ("env", "width"),
                         ("evolution", "pop_size"), ("fitness", "shape"),
                         ("learner", "alpha")):
        data = _small_dict()
        data.setdefault(section, {})[key] = 1
        with pytest.raises(ConfigError, match="unknown key"):
            config_from_dict(data)


def test_config_rejects_type_mismatches():
    for section, key, value in (("experiment", "epochs", "4"),
                                ("experiment", "epochs", True),
                                ("env", "grid_width", 5.5),
                                ("experiment", "target", [0.0, 0.0, 1.0, 1.0]),
                                ("experiment", "init_distance_threshold", "0.1"),
                                ("evolution", "adaptive_mutation", 1),
                                ("evolution", "new_fraction", "0.7"),
                                ("evolution", "deletion_band", [0.1]),
                                ("fitness", "mode", 3),
                                ("learner", "learning_rate", None),
                                ("fitness", "gain", math.nan),
                                ("evolution", "mutation_scale", math.inf),
                                ("learner", "learning_rate", 10**400)):
        data = _small_dict()
        data.setdefault(section, {})[key] = value
        with pytest.raises(ConfigError):
            config_from_dict(data)


def test_the_largest_finite_gain_is_accepted_and_the_next_float_refused(tmp_path, capsys):
    largest = 2 * math.log(sys.float_info.max)
    # Refused in both modes: the fitness-shape ablation runs a linear config as sigmoid.
    for mode in ("sigmoid", "linear"):
        data = _small_dict()
        data["fitness"] = {"gain": largest, "mode": mode}
        sigmoid = replace(config_from_dict(data).fitness, mode="sigmoid")
        assert [sigmoid.evaluate(rate) for rate in (0.0, 0.5, 1.0)] == \
            [5.562684646268137e-309, 0.5, 5.562684646268137e-309]
        data["fitness"]["gain"] = math.nextafter(largest, math.inf)
        with pytest.raises(ConfigError, match="gain must be positive and at most"):
            config_from_dict(data)
        config = tmp_path / f"{mode}.json"
        config.write_text(json.dumps(data), encoding="utf-8")
        out = tmp_path / f"out-{mode}"
        assert main(["run", "--config", str(config), "--output-dir", str(out)]) == 2
        assert "gain must be positive and at most" in capsys.readouterr().err
        assert not out.exists()


def test_config_errors_name_the_first_bad_element(tmp_path):
    for key, value, message in (
            ("target", [[0.0, 0.0, 1.0, 1.0], [0.5, 0.5, True, 0.5]],
             r"experiment.target\[1\]\[2\] must be a number"),
            ("target", [[0.0, 0.0, 1.0, 1.0], [0.5, math.nan, "x", 0.5]],
             r"experiment.target\[1\]\[1\] must be finite"),
            ("target", [[0.0, 0.0, 1.0, 1.0], 0.5], r"experiment.target\[1\] must be a list")):
        data = _small_dict(**{key: value})
        with pytest.raises(ConfigError, match=message):
            config_from_dict(data)
    data = _small_dict()
    data["evolution"]["deletion_band"] = [0.1, "0.9"]
    with pytest.raises(ConfigError, match=r"evolution.deletion_band\[1\] must be a number"):
        config_from_dict(data)
    # The snapshot's binary columns name the first bad element as a config check does.
    good = run_experiment(_small_config(epochs=0), run_dir=tmp_path / "run").snapshot_path
    meta, active, policy = [json.loads(line) for line in good.read_text().splitlines()]
    genomes = _floats(active["genome"]).reshape(-1, 8)  # one row per distinct genome of 2 agents
    for case, bad in enumerate((math.nan, math.inf, -math.inf)):
        q = np.ones(5)
        q[3] = bad
        listed = dict(policy, index=_b64(range(5), "<u4"), q=_b64(q))
        with pytest.raises(ConfigError, match=r"policy q\[3\] must be finite$"):
            load_snapshot(_write_jsonl(tmp_path / "q.jsonl", [meta, active, listed]))
        edited = genomes.copy()
        edited[1, 2] = bad
        with pytest.raises(ConfigError, match=r"active genome\[1\]\[2\] must be finite$"):
            load_snapshot(_write_jsonl(tmp_path / "genome.jsonl",
                                       [meta, dict(active, genome=_b64(edited)), policy]))
        archived = _archived(active, genome=_b64(edited))
        with pytest.raises(ConfigError, match=r"archive genome\[1\]\[2\] must be finite$"):
            load_snapshot(_write_archived(tmp_path / f"archived-{case}", meta, active, policy,
                                          [archived]))


def test_config_validates_experiment_fields():
    with pytest.raises(ConfigError):
        _small_config(mode="offline")
    with pytest.raises(ConfigError):
        _small_config(epochs=-1)
    with pytest.raises(ConfigError):
        _small_config(episodes_per_task=0)
    with pytest.raises(ConfigError):
        _small_config(snapshot_interval=0)


def test_config_validates_target():
    with pytest.raises(ConfigError, match="agent count"):
        _small_config(target=[[0.0, 0.0, 1.0, 1.0]])
    with pytest.raises(ConfigError, match="target"):
        _small_config(target=[[0.0, 0.0, 1.0, 1.5], [1.0, 1.0, 0.0, 0.0]])
    with pytest.raises(ConfigError, match="4 components"):
        _small_config(target=[[0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    cfg = _small_config(target=[[0.0, 0.0, 1.0, 1.0], [1.0, 1.0, 0.0, 0.0]])
    assert np.allclose(cfg.target_genome().blocks[0], [0.0, 0.0, 1.0, 1.0])


def test_default_target_is_the_opposite_corner_task():
    genome = _small_config().target_genome()
    assert np.array_equal(genome.blocks,
                          [[0.0, 0.0, 1.0, 1.0], [1.0, 1.0, 0.0, 0.0]])


def test_config_propagates_section_validation():
    data = _small_dict()
    data["evolution"]["population_size"] = 7  # odd
    with pytest.raises(ConfigError):
        config_from_dict(data)


def test_apply_overrides_wins_over_file_values():
    cfg = _small_config()
    out = apply_overrides(cfg, seed=7, mode="vanilla", output_dir="elsewhere", epochs=2)
    assert (out.master_seed, out.mode, out.output_dir, out.epochs) == (7, "vanilla", "elsewhere", 2)
    assert apply_overrides(cfg) is cfg


def test_identity_fingerprint_ignores_operational_knobs():
    cfg = _small_config()
    other = replace(cfg, epochs=99, snapshot_interval=5, output_dir="x", resume_from="y")
    assert cfg.identity_fingerprint() == other.identity_fingerprint()
    assert cfg.identity_fingerprint() != replace(cfg, master_seed=12).identity_fingerprint()


def test_output_dir_resolution(monkeypatch):
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
    assert _small_config().resolved_output_dir() == Path(DEFAULT_OUTPUT_DIR)
    monkeypatch.setenv(OUTPUT_DIR_ENV, "env-runs")
    assert _small_config().resolved_output_dir() == Path("env-runs")
    assert _small_config(output_dir="direct").resolved_output_dir() == Path("direct")


# ---------------------------------------------------------------- run loop

def test_ccl_run_writes_metrics_and_snapshots(tmp_path):
    cfg = _small_config()
    result = run_experiment(cfg, run_dir=tmp_path)
    assert len(result.metrics) == 4
    rows = _read_rows(result.metrics_path)
    assert tuple(rows[0]) == METRICS_COLUMNS
    assert len(rows) == 5
    episodes = [int(row[6]) for row in rows[1:]]
    steps = [int(row[7]) for row in rows[1:]]
    assert episodes == [8, 16, 24, 32]  # batch_size * episodes_per_task per epoch
    assert all(b > a for a, b in zip(steps, steps[1:]))
    for row in result.metrics:
        assert row.batch_new + row.batch_old == 4
        assert 0.0 <= row.batch_mean_r <= 1.0
        assert 0.0 < row.active_mean_f <= 0.5
        assert row.wall_clock_seconds >= 0.0
    assert result.metrics[0].batch_old == 0  # first batch predates any archive
    for epoch in (0, 2, 4):
        assert (tmp_path / f"snapshot_epoch{epoch:05d}.jsonl").exists()
    timing_rows = _read_rows(result.timings_path)
    assert timing_rows[0] == ["epoch", "wall_clock_seconds"]
    assert len(timing_rows) == 5
    assert result.evolution_ops == {"init_population": 1, "soft_select": 4,
                                    "delete_bad_tasks": 4, "assign_population_fitness": 4,
                                    "evolve_generation": 4, "advance_toward": 4}


def test_each_epoch_selects_its_batch_with_the_previous_epochs_key(tmp_path, monkeypatch):
    import coevo_curriculum.harness as harness

    keys = []

    def recording_stream(master_seed, *key):
        if key[0] == DOMAIN_SELECT:
            keys.append(key)
        return stream(master_seed, *key)

    monkeypatch.setattr(harness, "stream", recording_stream)
    run_experiment(_small_config(epochs=4, snapshot_interval=2), run_dir=tmp_path)
    assert keys == [(DOMAIN_SELECT, epoch) for epoch in range(4)]
    keys.clear()
    run_experiment(_small_config(epochs=6, resume_from=str(tmp_path / "snapshot_epoch00002.jsonl")),
                   run_dir=tmp_path / "resumed")
    assert keys == [(DOMAIN_SELECT, epoch) for epoch in range(2, 6)]


def test_each_run_counts_only_its_own_evolution_operators(tmp_path, monkeypatch):
    import coevo_curriculum.harness as harness

    alone = run_experiment(_small_config(), run_dir=tmp_path / "alone")
    evaluate = harness.evaluate_target
    inner = []

    def evaluate_with_a_run_inside(*args):
        if not inner:  # once, inside the outer run's epoch 1
            inner.append(None)
            inner[0] = run_experiment(_small_config(), run_dir=tmp_path / "inner")
        return evaluate(*args)

    monkeypatch.setattr(harness, "evaluate_target", evaluate_with_a_run_inside)
    outer = run_experiment(_small_config(), run_dir=tmp_path / "outer")
    assert inner[0].evolution_ops == alone.evolution_ops
    assert outer.evolution_ops == alone.evolution_ops
    assert _files(outer.run_dir) == _files(inner[0].run_dir) == _files(alone.run_dir)


def test_vanilla_run_never_touches_evolution(tmp_path, monkeypatch):
    import coevo_curriculum.harness as harness

    def refuse(*args, **kwargs):
        raise AssertionError("a vanilla run applied an evolution operator")

    operators = [name for name, value in vars(harness).items()
                 if getattr(value, "__module__", None) == "coevo_curriculum.evolution"
                 and callable(value)]
    assert "soft_select" in operators and "init_population" in operators
    for name in operators:
        monkeypatch.setattr(harness, name, refuse)
    cfg = _small_config(mode="vanilla")
    result = run_experiment(cfg, run_dir=tmp_path)
    assert result.evolution_ops == {}
    rows = _read_rows(result.metrics_path)
    for row in rows[1:]:
        assert row[3] == "nan"
        assert row[4] == "0" and row[5] == "0"
    assert [int(row[6]) for row in rows[1:]] == [8, 16, 24, 32]  # same budget as ccl
    assert not (result.run_dir / "archive.jsonl").exists()  # no population, so no archive


# The names each epoch calls, as the tracer and these tests patch them: harness globals.
CCL_EPOCH = ["soft_select", "train_on_tasks", "delete_bad_tasks", "assign_population_fitness",
             "evolve_generation", "advance_toward", "_append_archive", "evaluate_target"]
VANILLA_EPOCH = ["train_on_tasks", "evaluate_target"]


@pytest.mark.parametrize("mode, fresh, resumed, epoch_calls", [
    # A fresh run writes its epoch-0 snapshot before any other file.
    ("ccl", ["init_population", "write_snapshot", "_start_archive"],
     ["load_snapshot", "_start_archive"], CCL_EPOCH),
    ("vanilla", ["write_snapshot"], ["load_snapshot"], VANILLA_EPOCH)])
def test_each_epoch_calls_its_operators_in_order_through_harness_names(
        tmp_path, monkeypatch, mode, fresh, resumed, epoch_calls):
    import coevo_curriculum.harness as harness

    calls = []

    def recording(name, real):
        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return call

    for name in {"load_snapshot", "write_snapshot", "init_population", "_start_archive",
                 *CCL_EPOCH}:
        monkeypatch.setattr(harness, name, recording(name, getattr(harness, name)))
    half = run_experiment(_small_config(mode=mode, epochs=2, snapshot_interval=2),
                          run_dir=tmp_path / "half")
    assert calls == fresh + epoch_calls * 2 + ["write_snapshot"]
    calls.clear()
    run_experiment(_small_config(mode=mode, epochs=3, resume_from=str(half.snapshot_path)),
                   run_dir=tmp_path / "resumed")
    assert calls == resumed + epoch_calls + ["write_snapshot"]


def test_zero_epoch_run_leaves_header_and_initial_snapshot(tmp_path):
    cfg = _small_config(epochs=0)
    result = run_experiment(cfg, run_dir=tmp_path)
    assert result.metrics == []
    assert result.final_target_success == 0.0
    rows = _read_rows(result.metrics_path)
    assert len(rows) == 1
    snap = load_snapshot(tmp_path / "snapshot_epoch00000.jsonl")
    assert snap.epoch == 0 and snap.episodes_total == 0
    assert len(snap.pop.active) == 8
    assert snap.pop.archive == {}
    assert snap.policy_q.shape == (2, 9 ** 2, 5)
    assert not snap.policy_q.any()


def test_metrics_are_byte_identical_across_runs(tmp_path):
    cfg = _small_config()
    first = run_experiment(cfg, run_dir=tmp_path / "a")
    second = run_experiment(cfg, run_dir=tmp_path / "b")
    assert first.metrics_path.read_bytes() == second.metrics_path.read_bytes()


def test_snapshot_round_trip_preserves_population(tmp_path):
    cfg = _small_config()
    run_experiment(cfg, run_dir=tmp_path)
    snap = load_snapshot(tmp_path / "snapshot_epoch00004.jsonl")
    assert snap.epoch == 4
    assert len(snap.pop.active) == 8
    assert sum(map(len, snap.pop.archive.values())) == 4 * 8
    assert sorted(snap.pop.archive) == [0, 1, 2, 3]
    # The archive loads as columns: no record object stands for an archived task.
    assert all(isinstance(gen, Generation) and not gen.handed
               for gen in snap.pop.archive.values())
    for rec in snap.pop.active:
        assert rec.genome.in_domain
        assert rec.origin in ("init", "cross", "mutate")
    for gen in snap.pop.archive.values():
        for rec in gen.records():
            assert rec.f is not None
    assert snap.episodes_total == 32


def _assert_same_records(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.genome.blocks.tobytes() == b.genome.blocks.tobytes()
        assert (a.r, a.f, a.epoch_born, a.origin) == (b.r, b.f, b.epoch_born, b.origin)


def test_snapshot_round_trip_is_exact(tmp_path, monkeypatch):
    import coevo_curriculum.harness as harness

    written = []
    closed = {}  # archived generations as they stood when they closed
    real_write = harness.write_snapshot
    real_append = harness._append_archive

    def capturing_write(path, snapshot):
        written.append((path, copy.deepcopy(snapshot.pop), snapshot.policy_q.copy()))
        real_write(path, snapshot)

    def capturing_append(path, digest, epoch, records):
        closed[epoch] = copy.deepcopy(records)
        return real_append(path, digest, epoch, records)

    monkeypatch.setattr(harness, "write_snapshot", capturing_write)
    monkeypatch.setattr(harness, "_append_archive", capturing_append)
    run_experiment(_small_config(epochs=5), run_dir=tmp_path)
    assert [path.name for path, _, _ in written] == [
        f"snapshot_epoch{epoch:05d}.jsonl" for epoch in (0, 2, 4, 5)]
    assert list(closed) == [0, 1, 2, 3, 4]
    assert all(rec.f is None for rec in written[0][1].active)
    last = written[-1][1]
    assert {rec.origin for rec in last.active} >= {"cross", "mutate"}
    assert any(rec.r is not None for gen in closed.values() for rec in gen.records())
    for path, pop, q in written:
        snap = load_snapshot(path)
        assert snap.pop.epoch == pop.epoch
        _assert_same_records(snap.pop.active, pop.active)
        assert list(snap.pop.archive) == list(pop.archive)
        for epoch in pop.archive:
            _assert_same_records(snap.pop.archive[epoch].records(), closed[epoch].records())
            # Later epochs measure archived records again; the archive in memory still holds
            # what its line in archive.jsonl holds.
            _assert_same_records(pop.archive[epoch].records(), snap.pop.archive[epoch].records())
        assert snap.policy_q.dtype == q.dtype and snap.policy_q.shape == q.shape
        assert snap.policy_q.tobytes() == q.tobytes()


def test_write_snapshot_reproduces_every_loaded_snapshot(tmp_path):
    for mode in ("ccl", "vanilla"):
        run_dir = tmp_path / mode
        run_experiment(_small_config(mode=mode, epochs=5), run_dir=run_dir)
        paths = sorted(run_dir.glob("snapshot_epoch*.jsonl"))
        assert [path.name for path in paths] == [
            f"snapshot_epoch{epoch:05d}.jsonl" for epoch in (0, 2, 4, 5)]
        for path in paths:
            again = tmp_path / "again.jsonl"
            write_snapshot(again, load_snapshot(path))
            assert again.read_bytes() == path.read_bytes()
    unreadable = load_snapshot(paths[-1])
    for bad in (math.nan, math.inf):
        unreadable.policy_q[0, 0, 0] = bad
        with pytest.raises(ValueError, match="policy q holds a non-finite value"):
            write_snapshot(tmp_path / "nan.jsonl", unreadable)
        assert not list(tmp_path.glob("nan.jsonl*"))
    # A measurement is a finite number or None, and the active line lists none.
    unmeasurable = load_snapshot(tmp_path / "ccl" / "snapshot_epoch00005.jsonl")
    for bad, message in ((math.nan, "a record's r is NaN"), (math.inf, "active r lists record 0")):
        unmeasurable.pop.active[0].r = bad
        with pytest.raises(ValueError, match=message):
            write_snapshot(tmp_path / "nan.jsonl", unmeasurable)
        assert not list(tmp_path.glob("nan.jsonl*"))
    # An archive line lists measurements, each a finite number.
    infinite = Generation.of([TaskRecord(unmeasurable.pop.active[1].genome, math.inf, 0.5)])
    with pytest.raises(ValueError, match="archive r holds a non-finite value"):
        _archive_line(0, infinite)


def _b64(values, dtype="<f8"):
    """A binary snapshot column, encoded as the README specifies."""
    return base64.b64encode(np.asarray(values, dtype=dtype).tobytes()).decode("ascii")


def _floats(column):
    return np.frombuffer(base64.b64decode(column, validate=True), dtype="<f8")


def _optional(name, values):
    """A generation's ``r`` or ``f`` column as the README specifies: the positions of its
    non-null values and those values."""
    index = [i for i, value in enumerate(values) if value is not None]
    return {f"{name}_index": _b64(index, "<u4"), name: _b64([values[i] for i in index])}


def _archived(active, **columns):
    """The active line ``active`` as the archive line of epoch 0, with an archive line's empty
    ``r`` and ``f`` columns, then ``columns`` set."""
    return {**active, "kind": "archive", "epoch": 0, "r_index": "", "r": "", "f_index": "",
            "f": "", **columns}


def _write_jsonl(path, lines):
    path.write_text("\n".join(json.dumps(line) for line in lines), encoding="utf-8")
    return path


def _archive_digest(raw_lines):
    """The chained digest the README specifies for the first lines of archive.jsonl."""
    digest = hashlib.sha256().hexdigest()
    for line in raw_lines:
        digest = hashlib.sha256(digest.encode() + line).hexdigest()
    return digest


def _write_archived(directory, meta, active, policy, archive):
    """A ccl snapshot of epoch len(archive) beside an archive.jsonl holding ``archive``, whose
    lines are JSON values or, as given, strings."""
    directory.mkdir()
    raw = [((line if isinstance(line, str) else json.dumps(line)) + "\n").encode()
           for line in archive]
    (directory / "archive.jsonl").write_bytes(b"".join(raw))
    meta = dict(meta, epoch=len(raw), archive_digest=_archive_digest(raw))
    return _write_jsonl(directory / "snapshot.jsonl", [meta, dict(active, epoch=len(raw)), policy])


def _resume_from(snapshot, out):
    """Exit status of the CLI's resume from ``snapshot`` into ``out`` with the small config: a
    resume reads the archive beside the snapshot, which ``eval`` leaves alone."""
    return main(["run", "--config", str(_write_config(out.parent)), "--resume", str(snapshot),
                 "--output-dir", str(out)])


def test_load_snapshot_rejects_garbage(tmp_path):
    missing = tmp_path / "none.jsonl"
    with pytest.raises(ConfigError):
        load_snapshot(missing)
    broken = tmp_path / "broken.jsonl"
    broken.write_text('{"kind": "meta"\n', encoding="utf-8")
    with pytest.raises(ConfigError):
        load_snapshot(broken)
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_snapshot(empty)
    good = run_experiment(_small_config(epochs=0), run_dir=tmp_path / "run").snapshot_path
    lines = [json.loads(line) for line in good.read_text(encoding="utf-8").splitlines()]
    assert [line["kind"] for line in lines] == ["meta", "active", "policy"]
    meta, active, policy = lines
    for found, edit in (("99", lambda meta: meta.update(format=99)),
                        ("8", lambda meta: meta.update(format=8)),
                        ("7", lambda meta: meta.update(format=7)),
                        ("6", lambda meta: meta.update(format=6)),
                        ("5", lambda meta: meta.update(format=5)),
                        ("4", lambda meta: meta.update(format=4)),
                        ("3", lambda meta: meta.update(format=3)),
                        ("2", lambda meta: meta.update(format=2)),
                        ("1", lambda meta: meta.update(format=1)),
                        ("missing", lambda meta: meta.pop("format"))):
        other = dict(meta)
        edit(other)
        with pytest.raises(ConfigError, match=f"format {found}, expected 9"):
            load_snapshot(_write_jsonl(tmp_path / f"format-{found}.jsonl",
                                       [other, active, policy]))
    n = len(active["epoch_born"])
    vanilla_meta = dict(meta, config=dict(meta["config"],
                                          experiment=dict(meta["config"]["experiment"],
                                                          mode="vanilla")))
    vanilla_meta.pop("archive_digest")  # a vanilla meta line holds none
    for name, bad, match in (
            ("ragged-policy", [meta, active, dict(policy, size=7)], "shape"),
            ("list-line", [meta, [1, 2], policy], "not a JSON object"),
            ("null-line", [meta, active, None], "not a JSON object"),
            ("no-generations", [meta, policy], "ccl snapshot needs"),
            ("vanilla-with-generations", [vanilla_meta, active, policy], "vanilla snapshot needs"),
            ("policy-first", [meta, policy, active], "ccl snapshot needs"),
            ("no-meta", [active, policy], "format missing"),
            ("archive-line", [meta, active, dict(active, kind="archive"), policy],
             "ccl snapshot needs"),
            ("ragged-columns", [meta, dict(active, epoch_born=active["epoch_born"][1:]), policy],
             f"active epoch_born holds {n - 1} values; genome_row lists {n} records"),
            ("ragged-origin", [meta, dict(active, origin=_b64([0] * (n + 1), "<u1")), policy],
             f"active origin holds {n + 1} values; genome_row lists {n} records"),
            ("later-active", [meta, dict(active, epoch=1), policy],
             "line 2: active epoch 1, expected 0"),
            ("no-digest", [{k: v for k, v in meta.items() if k != "archive_digest"}, active,
                           policy], "malformed"),
            ("bad-config", [dict(meta, config={"env": {"width": 5}}), active, policy],
             "unknown key")):
        with pytest.raises(ConfigError, match=match):
            load_snapshot(_write_jsonl(tmp_path / f"{name}.jsonl", bad))
    for name, columns, match in (
            ("float-epoch-born", {"epoch_born": [0.5] * n}, "epoch_born"),
            ("string-epoch-born", {"epoch_born": ["0"] * n}, "epoch_born"),
            ("bool-epoch-born", {"epoch_born": [False] * n}, "epoch_born"),
            ("named-origin", {"origin": ["init"] * n}, "active origin must be a base64 string"),
            ("unknown-origin", {"origin": _b64([0] * (n - 1) + [3], "<u1")},
             rf"active origin\[{n - 1}\] is code 3, not one of 0 to 2 \(init, cross, mutate\)"),
            ("bool-generation-epoch", {"epoch": True}, "active epoch must be an integer"),
            ("string-generation-epoch", {"epoch": "0"}, "active epoch must be an integer")):
        bad = [meta, dict(active, **columns), policy]
        with pytest.raises(ConfigError, match=match):
            load_snapshot(_write_jsonl(tmp_path / f"{name}.jsonl", bad))
    archived = _archived(active)
    for name, archive, match in (
            ("archive-r", [dict(archived, r=["x"] * n)], "archive r must be a base64 string"),
            ("json-f", [dict(archived, f=[None] * n)], "archive f must be a base64 string"),
            ("nan-f", [dict(archived, **_optional("f", [math.nan] * n))],
             r"archive f\[0\] must be finite"),
            ("nan-archive-r", [dict(archived, **_optional("r", [math.nan] * n))],
             r"archive r\[0\] must be finite"),
            ("repeated-epoch", [archived] * 2,
             "archive.jsonl line 2: archive epoch 0, expected 1"),
            ("active-in-archive", [dict(active, epoch=0)],
             "archive.jsonl line 1: not an archive line")):
        with pytest.raises(ConfigError, match=match):
            load_snapshot(_write_archived(tmp_path / name, meta, active, policy, archive))
    two = [archived, dict(archived, epoch=1)]
    assert list(load_snapshot(_write_archived(tmp_path / "archived", meta, active, policy,
                                              two)).pop.archive) == [0, 1]
    for name, bad, match in (
            ("fractional-epoch", [dict(meta, epoch=1.9), active, policy],
             "meta epoch must be an integer"),
            ("string-episodes", [dict(meta, episodes_total="8"), active, policy],
             "meta episodes_total must be an integer"),
            ("bool-env-steps", [dict(meta, env_steps_total=True), active, policy],
             "meta env_steps_total must be an integer"),
            ("bool-policy-size", [meta, active, dict(policy, size=True)],
             "policy size must be an integer"),
            ("no-policy-size", [meta, active, {k: v for k, v in policy.items() if k != "size"}],
             "malformed")):
        with pytest.raises(ConfigError, match=match):
            load_snapshot(_write_jsonl(tmp_path / f"{name}.jsonl", bad))
    # Active records hold no r and no f: the snapshot is taken after evolve_generation.
    crossed = dict(active, origin=_b64([1] * n, "<u1"))
    loaded = load_snapshot(_write_archived(tmp_path / "crossed", meta, crossed, policy, []))
    assert [(rec.r, rec.f, rec.origin) for rec in loaded.pop.active] == [(None, None, "cross")] * n


def test_snapshot_lines_refuse_keys_their_kind_does_not_define(tmp_path, capsys):
    good = run_experiment(_small_config(epochs=0), run_dir=tmp_path / "run").snapshot_path
    meta, active, policy = [json.loads(line)
                            for line in good.read_text(encoding="utf-8").splitlines()]
    vanilla_meta = dict(meta, config=dict(meta["config"],
                                          experiment=dict(meta["config"]["experiment"],
                                                          mode="vanilla")))
    archived = _archived(active)
    for name, lines, archive, message in (
            ("meta", [dict(meta, extra=1), active, policy], [], "meta line: extra"),
            ("active", [meta, dict(active, extra=1), policy], [], "active line: extra"),
            ("policy", [meta, active, dict(policy, extra=1)], [], "policy line: extra"),
            ("archive", [meta, active, policy], [dict(archived, extra=1)],
             "archive line: extra"),
            ("vanilla-digest", [vanilla_meta, policy], None, "meta line: archive_digest")):
        if archive is None:
            path = _write_jsonl(tmp_path / f"{name}.jsonl", lines)
        else:
            path = _write_archived(tmp_path / name, *lines, archive)
        assert _resume_from(path, tmp_path / f"resumed-{name}") == 2, name
        assert f"unknown key(s) in {message}" in capsys.readouterr().err, name
        if name != "archive":  # eval reads the snapshot's own lines and no archive
            assert main(["eval", "--snapshot", str(path)]) == 2, name
            assert f"unknown key(s) in {message}" in capsys.readouterr().err, name
    vanilla_meta.pop("archive_digest")
    loaded = load_snapshot(_write_jsonl(tmp_path / "vanilla.jsonl", [vanilla_meta, policy]))
    assert loaded.pop is None and loaded.archive_digest is None


def test_every_fault_in_a_snapshot_or_archive_line_names_its_file_and_line(tmp_path, capsys):
    good = run_experiment(_small_config(epochs=0), run_dir=tmp_path / "run").snapshot_path
    meta, active, policy = [json.loads(line) for line in good.read_text().splitlines()]
    archived = _archived(active)
    n = len(archived["epoch_born"])
    genomes = _floats(archived["genome"]).reshape(n, 8)  # epoch 0: n distinct genomes
    rows = list(range(n))

    def second(**columns):
        return dict(archived, epoch=1, **columns)

    # A line in any form but the writer's one: each distinct genome once, rows in order of
    # first use, known codes only.
    noncanonical = (
        ("repeated-row", second(genome=_b64(np.vstack([genomes[:1], genomes[:1], genomes[2:]]))),
         "archive genome row 1 repeats row 0; each distinct genome is stored once"),
        ("unused-row", second(genome=_b64(np.vstack([genomes, genomes[:1] / 2]))),
         f"archive genome holds {n + 1} rows; genome_row uses {n}"),
        ("unused-last-row", second(genome_row=_b64([0] + rows[:-1], "<u4")),
         f"archive genome holds {n} rows; genome_row uses {n - 1}"),
        ("rows-out-of-order", second(genome_row=_b64([1, 0] + rows[2:], "<u4")),
         "archive genome_row[0] uses row 1 before row 0; rows are numbered in order of first use"),
        ("row-out-of-range", second(genome_row=_b64(rows[:-1] + [n], "<u4")),
         f"archive genome_row[{n - 1}] is row {n}; the genome column holds {n} rows"),
        ("unknown-origin", second(origin=_b64([3] * n, "<u1")),
         "archive origin[0] is code 3, not one of 0 to 2 (init, cross, mutate)"),
        ("inf-genome", second(genome=_b64(np.where(np.arange(n * 8).reshape(n, 8) == 11,
                                                   math.inf, genomes))),
         "archive genome[1][3] must be finite"))
    # The r and f columns, which only an archive line holds: sparse positions rising strictly
    # within the generation, finite values.
    measured = (
        ("r-index-out-of-range", second(**_optional("r", [None] * n + [0.5])),
         f"archive r_index {n} is out of range: the generation holds {n} records"),
        ("f-index-falling", second(f_index=_b64([3, 1], "<u4"), f=_b64([0.5, 0.25])),
         "archive f_index does not rise strictly"),
        ("f-index-repeated", second(f_index=_b64([2, 2], "<u4"), f=_b64([0.5, 0.25])),
         "archive f_index does not rise strictly"),
        ("r-index-longer", second(r_index=_b64([0, 1], "<u4"), r=_b64([0.5])),
         "archive r_index holds 2 positions, archive r 1 values"),
        ("nan-r", second(**_optional("r", [0.5, math.nan] + [None] * (n - 2))),
         "archive r[1] must be finite"),
        ("inf-f", second(**_optional("f", [-math.inf] * n)), "archive f[0] must be finite"))
    # Each fault sits in the second line of a two-line archive whose digest is the snapshot's,
    # so the content checks run.
    for name, line, message in noncanonical + measured + (
            ("wrong-type", second(epoch_born=["1"] * n),
             "archive epoch_born[0] must be an integer"),
            ("unknown-key", second(extra=1), "unknown key(s) in archive line: extra"),
            ("short-genome", second(genome=_b64(genomes.reshape(-1)[:-1])),
             f"archive genome holds {n * 8 - 1} values, not whole genomes of 2 agents"),
            ("not-json", '{"kind": "archive",', "is malformed: Expecting")):
        path = _write_archived(tmp_path / name, meta, active, policy, [archived, line])
        assert _resume_from(path, tmp_path / f"resumed-{name}") == 2, name
        err = capsys.readouterr().err
        where = f"error: {path.with_name('archive.jsonl')} line 2"
        assert err.startswith(where) and message in err, (name, err)
    # The same faults in a snapshot's active line name the snapshot and its line 2.
    for name, line, message in noncanonical:
        line = {key: line[key] for key in active}  # an active line's keys
        path = _write_jsonl(tmp_path / f"active-{name}.jsonl",
                            [meta, dict(line, kind="active", epoch=0), policy])
        assert main(["eval", "--snapshot", str(path)]) == 2, name
        err = capsys.readouterr().err
        where = f"error: snapshot {path} line 2: "
        assert err.startswith(where) and message.replace("archive", "active") in err, (name, err)
    meta, active, policy = [json.dumps(line) for line in (meta, active, policy)]
    for name, lines, message in (
            ("not-json", [meta, '{"kind": "active",', policy], "line 2 is malformed: Expecting"),
            ("not-an-object", [meta, active, "[1, 2]"], "line 3: not a JSON object"),
            ("null", [meta, "null", policy], "line 2: not a JSON object"),
            ("empty", [], "holds no lines")):
        path = tmp_path / f"{name}.jsonl"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        assert main(["eval", "--snapshot", str(path)]) == 2, name
        assert capsys.readouterr().err.startswith(f"error: snapshot {path} {message}"), name


def test_binary_columns_round_trip_bit_for_bit(tmp_path):
    vanilla = run_experiment(_small_config(mode="vanilla", epochs=0), run_dir=tmp_path / "v")
    snap = load_snapshot(vanilla.snapshot_path)
    shape = snap.policy_q.shape
    tiny = np.nextafter(0.0, 1.0)
    rng = np.random.default_rng(0)
    sparse = np.zeros(math.prod(shape))
    sparse[[0, 7, 8, 300, sparse.size - 1]] = [tiny, -tiny, 1.7e308, -1.7e308, -0.0]
    tables = {"sparse": sparse.reshape(shape), "zero": np.zeros(shape),
              "dense": rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape),
              "negative-zero": np.full(shape, -0.0)}
    for name, q in tables.items():
        path = tmp_path / f"{name}.jsonl"
        write_snapshot(path, replace(snap, policy_q=q))
        loaded = load_snapshot(path).policy_q
        assert loaded.shape == shape and loaded.dtype == np.float64
        assert np.array_equal(loaded.view("<u8"), q.view("<u8")), name
        policy = json.loads(path.read_text().splitlines()[-1])
        listed = np.frombuffer(base64.b64decode(policy["index"]), dtype="<u4")
        assert listed.tolist() == np.flatnonzero(q.view("<u8")).tolist(), name
        again = tmp_path / "again.jsonl"
        write_snapshot(again, load_snapshot(path))
        assert again.read_bytes() == path.read_bytes(), name
    assert json.loads((tmp_path / "zero.jsonl").read_text().splitlines()[-1]) == {
        "kind": "policy", "size": math.prod(shape), "index": "", "q": ""}
    # An archived generation with no record, beside an active one of the config's size.
    ccl = run_experiment(_small_config(epochs=0), run_dir=tmp_path / "c").snapshot_path
    meta, active, policy = [json.loads(line) for line in ccl.read_text().splitlines()]
    empty = _archived(active, genome="", genome_row="", epoch_born=[], origin="")
    path = _write_archived(tmp_path / "empty", meta, active, policy, [empty])
    loaded = load_snapshot(path)
    assert len(loaded.pop.active) == 8 and list(loaded.pop.archive) == [0]
    assert len(loaded.pop.archive[0]) == 0
    write_snapshot(tmp_path / "empty" / "again.jsonl", loaded)
    assert (tmp_path / "empty" / "again.jsonl").read_text().splitlines() == \
        path.read_text().splitlines()


@pytest.mark.parametrize("n_agents", [1, 4])
def test_generation_lines_round_trip_byte_for_byte(tmp_path, n_agents):
    data = _small_dict()
    data["env"]["n_agents"] = n_agents
    config = config_from_dict(data)
    rng = np.random.default_rng(n_agents)
    parent = TaskGenome(rng.random((n_agents, 4)))
    twin = TaskGenome(parent.blocks)  # another object with the parent's bits
    positive = TaskGenome(np.zeros((n_agents, 4)))
    negative = TaskGenome(np.where(np.arange(n_agents * 4).reshape(n_agents, 4) == 2, -0.0, 0.0))
    other = TaskGenome(rng.random((n_agents, 4)))
    generations = {
        # Clones and a zero-step child repeat the parent's row; -0.0 and +0.0 are two rows.
        0: [TaskRecord(parent, 0.5, 0.25, 0, "init"), TaskRecord(positive, None, -0.0, 0, "cross"),
            TaskRecord(negative, None, 1.0, 0, "mutate"), TaskRecord(parent, None, 0.25, 0, "init"),
            TaskRecord(twin, -0.0, 0.5, 1, "cross")],
        # r all null, f all set.
        1: [TaskRecord(other, None, 0.75, 1, "mutate"), TaskRecord(parent, None, 0.0, 1, "init"),
            TaskRecord(other, None, 1e-300, 2, "cross")],
        2: [],
    }
    lines = [_archive_line(epoch, Generation.of(records)) for epoch, records in generations.items()]
    rows = [np.frombuffer(base64.b64decode(json.loads(line)["genome_row"]), "<u4").tolist()
            for line in lines]
    assert rows == [[0, 1, 2, 0, 0], [0, 1, 0], []]
    r_index, f_index = ([json.loads(line)[key] for line in lines] for key in ("r_index", "f_index"))
    assert r_index == [_b64([0, 4], "<u4"), "", ""]
    assert f_index == [_b64(range(5), "<u4"), _b64(range(3), "<u4"), ""]
    (tmp_path / "archive.jsonl").write_text("".join(lines), encoding="utf-8")
    digest = EMPTY_ARCHIVE_DIGEST
    for line in lines:
        digest = _chain(digest, line)
    path = tmp_path / "snapshot.jsonl"
    # An active generation of the config's 8 records, copies with no r and no f as
    # evolve_generation leaves them, with the rows of the archived ones.
    active = [rec.clone() for rec in generations[0] + generations[1]]
    write_snapshot(path, Snapshot(config, 3, 0, 0, Population(active, epoch=3),
                                  np.zeros(config.env.q_shape), archive_digest=digest))
    loaded = load_snapshot(path)
    _assert_same_records(loaded.pop.active, active)
    assert list(loaded.pop.archive) == [0, 1, 2]
    for epoch, records in generations.items():
        got = loaded.pop.archive[epoch].records()
        _assert_same_records(got, records)
        for a, b in zip(got, records):  # -0.0 stays itself, in r and f too
            assert [math.copysign(1.0, x) for x in (a.r or 1.0, a.f)] == \
                [math.copysign(1.0, x) for x in (b.r or 1.0, b.f)]
        assert _archive_line(epoch, loaded.pop.archive[epoch]) == lines[epoch]
        assert _archive_line(epoch, Generation.of(got)) == lines[epoch]
    # Records that share a row load as one stored genome, as clones share one in memory.
    first = loaded.pop.archive[0]
    assert first.genome.shape == (3, n_agents, 4) and first.genome_row.tolist() == [0, 1, 2, 0, 0]
    again = tmp_path / "again.jsonl"
    write_snapshot(again, loaded)
    assert again.read_bytes() == path.read_bytes()


def _readme_decoder():
    """``read_generation`` from the README's Python that decodes a generation line."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    code, = [textwrap.dedent(block) for block in re.findall(r"```python\n(.*?)```", readme, re.S)
             if "def read_generation" in block]
    namespace = {}
    exec(code, namespace)
    return namespace["read_generation"]


def test_the_readme_decoder_reads_what_load_snapshot_reads(tmp_path):
    read_generation = _readme_decoder()
    path = run_experiment(_small_config(epochs=4), run_dir=tmp_path).snapshot_path
    snap = load_snapshot(path)
    lines = [json.loads(line) for line in (tmp_path / "archive.jsonl").read_text().splitlines()]
    lines.append(json.loads(path.read_text().splitlines()[1]))
    generations = [snap.pop.archive[epoch].records() for epoch in range(4)] + [snap.pop.active]
    shared = 0
    for line, records in zip(lines, generations, strict=True):
        got = read_generation(line, 2)
        shared += len(records) - len(_floats(line["genome"])) // 8
        assert got["genome"].tobytes() == b"".join(rec.genome.blocks.tobytes() for rec in records)
        for name in ("r", "f"):
            assert [None if math.isnan(value) else value for value in got[name].tolist()] == \
                [getattr(rec, name) for rec in records]
        assert got["epoch_born"].tolist() == [rec.epoch_born for rec in records]
        assert got["origin"].tolist() == [rec.origin for rec in records]
    assert shared > 0  # some records share a genome row
    assert any(rec.r is not None for gen in generations for rec in gen)


def test_binary_columns_refuse_every_malformed_value(tmp_path):
    good = run_experiment(_small_config(epochs=0), run_dir=tmp_path / "run").snapshot_path
    meta, active, policy = [json.loads(line) for line in good.read_text().splitlines()]
    n = len(active["epoch_born"])
    genomes = _floats(active["genome"])  # epoch 0: n distinct genomes of 2 agents

    def listed(index, q):
        return dict(policy, index=_b64(index, "<u4"), q=_b64(q))

    size = math.prod(_small_config().env.q_shape)
    # A value that is no column at all, in each column: not a string, or not strict base64.
    cases, measured = [], []  # measured: the r and f columns, which only an archive line holds
    for case, (bad, message) in enumerate((
            (True, "must be a base64 string"), (None, "must be a base64 string"),
            (1.5, "must be a base64 string"), (10**400, "must be a base64 string"),
            ([0.5] * 4, "must be a base64 string"), ([["0.0"] * 8] * n, "must be a base64 string"),
            ("0.5", "is not base64"), ("AAAA*AAA", "is not base64"),
            ("AAA", "is not base64"), ("AAAA\u00e9AAA", "is not base64"))):
        cases += [(f"index-{case}", active, dict(policy, index=bad), f"policy index {message}"),
                  (f"q-{case}", active, dict(policy, q=bad), f"policy q {message}")]
        cases += [(f"{column}-{case}", dict(active, **{column: bad}), policy,
                   f"active {column} {message}") for column in ("genome", "genome_row", "origin")]
        measured += [(f"{column}-{case}", _archived(active, **{column: bad}),
                      f"archive {column} {message}") for column in ("r_index", "r", "f_index", "f")]
    for name, active_line, policy_line, match in cases + [
            ("newline", dict(active, genome=active["genome"][:4] + "\n" + active["genome"][4:]),
             policy, "active genome is not base64"),
            ("partial-q", active, dict(policy, index=_b64([1], "<u4"), q=_b64([1.0])[:-4] + "AA=="),
             "policy q holds 7 bytes, not whole 8-byte values"),
            ("partial-index", active, dict(policy, index=_b64([1], "<u2"), q=_b64([1.0])),
             "policy index holds 2 bytes, not whole 4-byte values"),
            ("partial-genome", dict(active, genome=_b64(genomes[:-1], "<f4")), policy,
             rf"active genome holds {(n * 8 - 1) * 4} bytes, not whole 8-byte values"),
            ("partial-genome-row", dict(active, genome_row=_b64(range(n - 1), "<u2")), policy,
             rf"active genome_row holds {n * 2 - 2} bytes, not whole 4-byte values"),
            ("out-of-range", active, listed([3, size], [1.0, 2.0]),
             rf"policy index {size} is out of range: the shape \(2, 81, 5\) holds {size}"),
            ("falling-index", active, listed([5, 3], [1.0, 2.0]),
             "policy index does not rise strictly"),
            ("repeated-index", active, listed([3, 3], [1.0, 2.0]),
             "policy index does not rise strictly"),
            ("more-positions", active, listed([1, 2], [1.0]),
             "policy index holds 2 positions, policy q 1 values"),
            ("more-values", active, listed([1], [1.0, 2.0]),
             "policy index holds 1 positions, policy q 2 values"),
            ("listed-zero", active, listed([1, 2], [1.0, 0.0]),
             r"policy q\[1\] is a listed 0\.0; only values other than 0\.0 are listed"),
            ("nan-q", active, listed([1], [math.nan]), r"policy q\[0\] must be finite"),
            ("inf-q", active, listed([1, 4], [1.0, -math.inf]), r"policy q\[1\] must be finite"),
            ("nan-last-q", active, listed(range(size), [1.0] * (size - 1) + [math.nan]),
             rf"policy q\[{size - 1}\] must be finite"),
            ("inf-first-genome", dict(active, genome=_b64(np.where(np.arange(genomes.size) == 0,
                                                                   math.inf, genomes))), policy,
             r"active genome\[0\]\[0\] must be finite"),
            ("nan-genome", dict(active, genome=_b64(np.where(np.arange(genomes.size) == 13,
                                                             math.nan, genomes))), policy,
             r"active genome\[1\]\[5\] must be finite"),
            ("short-genome", dict(active, genome=_b64(genomes[:-1])), policy,
             rf"active genome holds {n * 8 - 1} values, not whole genomes of 2 agents \(8 values "
             r"each\)"),
            ("three-agent-genomes", dict(active, genome=_b64(np.hstack(
                [genomes.reshape(n, 8), genomes.reshape(n, 8)[:, :4]]))), policy,
             rf"active genome holds {n * 12 // 8} rows; genome_row uses {n}"),
            ("one-agent-genomes", dict(active, genome=_b64(genomes.reshape(n, 8)[:, :4])), policy,
             rf"active genome_row\[{n // 2}\] is row {n // 2}; the genome column holds {n // 2}"),
            ("ragged-genomes", dict(active, genome_row=_b64(range(n - 1), "<u4"),
                                    epoch_born=active["epoch_born"][1:],
                                    origin=_b64([0] * (n - 1), "<u1")), policy,
             rf"active genome holds {n} rows; genome_row uses {n - 1}")]:
        with pytest.raises(ConfigError, match=match):
            load_snapshot(_write_jsonl(tmp_path / f"{name}.jsonl",
                                       [meta, active_line, policy_line]))
        if active_line is not active:  # an archived generation's columns are checked the same way
            measured.append((name, _archived(active_line), match.replace("active", "archive")))
    measured.append(("partial-r", _archived(active, r_index=_b64([1], "<u4"), r=_b64([0.5], "<f4")),
                     "archive r holds 4 bytes, not whole 8-byte values"))
    for name, archived, match in measured:
        with pytest.raises(ConfigError, match=match):
            load_snapshot(_write_archived(tmp_path / f"archived-{name}", meta, active, policy,
                                          [archived]))
    # -0.0 is not a zero on the bit pattern, so it is listed and loads as itself.
    loaded = load_snapshot(_write_archived(tmp_path / "negative-zero", meta, active,
                                           listed([2], [-0.0]), []))
    assert loaded.policy_q.reshape(-1).view("<u8")[2] == np.array(-0.0).view("<u8")


def test_eval_refuses_a_format_6_snapshot(tmp_path, capsys):
    # Format 6 stored every record's genome, in record order, and r, f and origin as JSON
    # lists; its policy line is format 8's.
    path = run_experiment(_small_config(epochs=0), run_dir=tmp_path / "run").snapshot_path
    meta, active, policy = [json.loads(line) for line in path.read_text().splitlines()]
    records = load_snapshot(path).pop.active
    old_active = {"kind": "active", "epoch": 0,
                  "genome": _b64(np.stack([rec.genome.blocks for rec in records])),
                  "r": [rec.r for rec in records], "f": [rec.f for rec in records],
                  "epoch_born": [rec.epoch_born for rec in records],
                  "origin": [rec.origin for rec in records]}
    old = _write_jsonl(tmp_path / "run" / "format-6.jsonl",
                       [dict(meta, format=6), old_active, policy])
    assert main(["eval", "--snapshot", str(old)]) == 2
    assert capsys.readouterr().err == f"error: snapshot {old} line 1: format 6, expected 9\n"
    with pytest.raises(ConfigError, match="format 6, expected 9"):
        run_experiment(_small_config(epochs=2, resume_from=str(old)), run_dir=tmp_path / "run")


def test_evaluate_snapshot_scores_the_stored_policy(tmp_path):
    run_experiment(_small_config(), run_dir=tmp_path)
    rate = evaluate_snapshot(tmp_path / "snapshot_epoch00000.jsonl")
    assert rate == 0.0  # untrained table cannot reach opposite corners greedily
    final = evaluate_snapshot(tmp_path / "snapshot_epoch00004.jsonl")
    assert final in (0.0, 1.0)


# ---------------------------------------------------------------- resume

def test_resume_continues_byte_identically(tmp_path):
    full_cfg = _small_config(epochs=6)
    full = run_experiment(full_cfg, run_dir=tmp_path / "full")
    half = run_experiment(_small_config(epochs=3, snapshot_interval=3),
                          run_dir=tmp_path / "half")
    resumed_cfg = _small_config(
        epochs=6, resume_from=str(half.snapshot_path))
    resumed = run_experiment(resumed_cfg, run_dir=tmp_path / "resumed")

    full_rows = full.metrics_path.read_text(encoding="utf-8").splitlines()
    resumed_rows = resumed.metrics_path.read_text(encoding="utf-8").splitlines()
    assert resumed_rows[0] == full_rows[0]
    assert resumed_rows[1:] == full_rows[4:]  # epochs 4..6 match exactly
    assert resumed.snapshot_path.read_bytes() == (
        tmp_path / "full" / "snapshot_epoch00006.jsonl").read_bytes()


def test_resume_in_place_keeps_the_run_history(tmp_path):
    full = run_experiment(_small_config(epochs=6), run_dir=tmp_path / "full")
    run_dir = tmp_path / "run"
    run_experiment(_small_config(epochs=4, snapshot_interval=2), run_dir=run_dir)
    resumed = run_experiment(
        _small_config(epochs=6, resume_from=str(run_dir / "snapshot_epoch00002.jsonl")),
        run_dir=run_dir)
    assert resumed.metrics_path.read_bytes() == full.metrics_path.read_bytes()
    assert [row[0] for row in _read_rows(resumed.timings_path)] == [
        "epoch", "1", "2", "3", "4", "5", "6"]
    assert resumed.evolution_ops["soft_select"] == 4  # epochs 3 to 6
    snapshots = sorted(path.name for path in run_dir.glob("snapshot_epoch*.jsonl"))
    assert snapshots == sorted(path.name for path in (tmp_path / "full").glob("snapshot_*"))
    for name in snapshots + ["archive.jsonl"]:
        assert (run_dir / name).read_bytes() == (tmp_path / "full" / name).read_bytes()


def _files(run_dir):
    return {path.name: path.read_bytes() for path in run_dir.iterdir()
            if path.name != "timings.csv"}


def test_resumed_runs_write_the_files_of_an_uninterrupted_run(tmp_path):
    full = _files(run_experiment(_small_config(epochs=5, snapshot_interval=1),
                                 run_dir=tmp_path / "full").run_dir)
    assert len(full["archive.jsonl"].splitlines()) == 5
    # Into another directory: the resumed run writes the archive whole, then appends.
    run_experiment(_small_config(epochs=3, snapshot_interval=1), run_dir=tmp_path / "first")
    moved = _files(run_experiment(
        _small_config(epochs=5, snapshot_interval=1,
                      resume_from=str(tmp_path / "first" / "snapshot_epoch00002.jsonl")),
        run_dir=tmp_path / "moved").run_dir)
    assert sorted(moved) == ["archive.jsonl", "metrics.csv", "snapshot_epoch00003.jsonl",
                             "snapshot_epoch00004.jsonl", "snapshot_epoch00005.jsonl"]
    assert all(moved[name] == full[name] for name in moved if name != "metrics.csv")
    assert moved["metrics.csv"].splitlines()[1:] == full["metrics.csv"].splitlines()[3:]
    # In place in that directory, whose rows start at epoch 3; and into one with only headers.
    run_experiment(_small_config(epochs=5, snapshot_interval=1,
                                 resume_from=str(tmp_path / "moved" / "snapshot_epoch00004.jsonl")),
                   run_dir=tmp_path / "moved")
    assert _files(tmp_path / "moved") == moved
    run_experiment(_small_config(epochs=0), run_dir=tmp_path / "headers")
    run_experiment(_small_config(epochs=5, snapshot_interval=1,
                                 resume_from=str(tmp_path / "first" / "snapshot_epoch00002.jsonl")),
                   run_dir=tmp_path / "headers")
    assert (tmp_path / "headers" / "metrics.csv").read_bytes() == moved["metrics.csv"]
    # In place, after a crash while epoch 3 appended its generation: half a line, no row 3.
    run_dir = tmp_path / "crashed"
    run_experiment(_small_config(epochs=3, snapshot_interval=1), run_dir=run_dir)
    archive = run_dir / "archive.jsonl"
    *kept, last = archive.read_bytes().splitlines(keepends=True)
    archive.write_bytes(b"".join(kept) + last[:len(last) // 2])
    (run_dir / "snapshot_epoch00003.jsonl").unlink()
    for name in ("metrics.csv", "timings.csv"):
        rows = (run_dir / name).read_bytes().splitlines(keepends=True)
        (run_dir / name).write_bytes(b"".join(rows[:-1]))
    run_experiment(_small_config(epochs=5, snapshot_interval=1,
                                 resume_from=str(run_dir / "snapshot_epoch00002.jsonl")),
                   run_dir=run_dir)
    assert _files(run_dir) == full


@pytest.mark.parametrize("mode, past_snapshot", [("ccl", "_start_archive"),
                                                   ("vanilla", "_MetricsWriter")])
def test_a_failed_set_up_leaves_a_directory_to_run_again_or_resume(tmp_path, monkeypatch, mode,
                                                                    past_snapshot):
    import coevo_curriculum.harness as harness

    def fail(*args):
        raise OSError("no space left on device")

    config = _small_config(mode=mode, epochs=4, snapshot_interval=2)
    full = _files(run_experiment(config, run_dir=tmp_path / "full").run_dir)
    # Set-up fails at the epoch-0 snapshot, a fresh run's first file, and just past it.
    for name, run_dir in (("write_snapshot", tmp_path / "again"),
                          (past_snapshot, tmp_path / "in-place")):
        with monkeypatch.context() as patch:
            patch.setattr(harness, name, fail)
            with pytest.raises(OSError, match="no space left"):
                run_experiment(config, run_dir=run_dir)
    # At the snapshot it leaves no file, so a fresh run into the same directory starts over.
    assert list((tmp_path / "again").iterdir()) == []
    run_experiment(config, run_dir=tmp_path / "again")
    assert _files(tmp_path / "again") == full
    # A set-up that fails past it leaves that snapshot, and a resume in place goes on from it.
    first = tmp_path / "in-place" / "snapshot_epoch00000.jsonl"
    assert first.read_bytes() == full[first.name]
    run_experiment(_small_config(mode=mode, epochs=4, snapshot_interval=2,
                                 resume_from=str(first)), run_dir=tmp_path / "in-place")
    assert _files(tmp_path / "in-place") == full


def test_a_resume_writes_back_the_archive_lines_it_read(tmp_path):
    source = run_experiment(_small_config(epochs=4, snapshot_interval=1),
                            run_dir=tmp_path / "source").run_dir
    lines = (source / "archive.jsonl").read_bytes().splitlines(keepends=True)
    for epoch in (0, 2, 4):  # a resume at its snapshot's epoch runs no epoch of its own
        resume_from = str(source / f"snapshot_epoch{epoch:05d}.jsonl")
        run_dir = run_experiment(_small_config(epochs=epoch, resume_from=resume_from),
                                 run_dir=tmp_path / f"from-{epoch}").run_dir
        assert (run_dir / "archive.jsonl").read_bytes() == b"".join(lines[:epoch])


@pytest.mark.parametrize("name", sorted(name for name in WORKLOADS if name.startswith("ccl")))
def test_a_resume_into_a_new_directory_writes_the_uninterrupted_files(name, tmp_path, capsys):
    # Four agents, one agent and zero mutation scale, where many records share a genome row:
    # the generations a resume loaded are encoded again as the bytes it read, into a new
    # directory and in place.
    full = run_experiment(_workload_config(name), run_dir=tmp_path / "full")
    half = full.config.epochs // 2
    first = run_experiment(_workload_config(name, epochs=half), run_dir=tmp_path / "first")
    moved = run_experiment(_workload_config(name, resume_from=first.snapshot_path),
                           run_dir=tmp_path / "moved")
    assert moved.snapshot_path.name == full.snapshot_path.name
    assert moved.snapshot_path.read_bytes() == full.snapshot_path.read_bytes()
    lines = (moved.run_dir / "archive.jsonl").read_bytes().splitlines(keepends=True)
    assert b"".join(lines) == (full.run_dir / "archive.jsonl").read_bytes()
    rewritten = [line.decode("utf-8") for line in lines[:half]]
    assert reduce(_chain, rewritten, EMPTY_ARCHIVE_DIGEST) == \
        load_snapshot(first.snapshot_path).archive_digest
    resumed = run_experiment(_workload_config(name, resume_from=first.snapshot_path),
                             run_dir=first.run_dir)
    for path in (resumed.metrics_path, resumed.snapshot_path, resumed.run_dir / "archive.jsonl"):
        assert path.read_bytes() == (full.run_dir / path.name).read_bytes()
    assert main(["eval", "--snapshot", str(resumed.snapshot_path)]) == 0
    assert capsys.readouterr().out == f"target_success={resumed.final_target_success}\n"


def test_snapshots_hold_no_archive_and_each_epoch_appends_one_line(tmp_path, monkeypatch):
    import coevo_curriculum.harness as harness

    lines_at_write = []
    real_write = harness.write_snapshot

    def counting_write(path, snapshot):
        archive = path.parent / "archive.jsonl"
        lines_at_write.append(len(archive.read_bytes().splitlines()) if archive.exists()
                              else "absent")
        real_write(path, snapshot)

    monkeypatch.setattr(harness, "write_snapshot", counting_write)
    run_experiment(_small_config(epochs=6, snapshot_interval=1), run_dir=tmp_path)
    assert lines_at_write == ["absent", *range(1, 7)]  # the epoch-0 snapshot is written first
    archive = [json.loads(line) for line in (tmp_path / "archive.jsonl").read_text().splitlines()]
    assert [(line["kind"], line["epoch"]) for line in archive] == [
        ("archive", epoch) for epoch in range(6)]
    for epoch in range(7):
        path = tmp_path / f"snapshot_epoch{epoch:05d}.jsonl"
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [line["kind"] for line in lines] == ["meta", "active", "policy"]
        # No active record is measured, so the active line has no r or f column.
        assert list(lines[1]) == ["kind", "epoch", "genome", "genome_row", "epoch_born", "origin"]


def test_ccl_snapshot_loads_only_with_its_runs_archive(tmp_path, capsys):
    run_dir = tmp_path / "run"
    run_experiment(_small_config(epochs=4, snapshot_interval=2), run_dir=run_dir)
    snapshot = (run_dir / "snapshot_epoch00002.jsonl").read_bytes()
    lines = (run_dir / "archive.jsonl").read_bytes().splitlines(keepends=True)
    expected = load_snapshot(run_dir / "snapshot_epoch00002.jsonl")
    others = {epochs: (run_experiment(_small_config(epochs=epochs, master_seed=12),
                                      run_dir=tmp_path / f"seed12-{epochs}").run_dir
                       / "archive.jsonl").read_bytes() for epochs in (2, 4)}
    meta, *rest = [json.loads(line) for line in snapshot.splitlines()]

    def place(name, archive, digest=None):
        directory = tmp_path / name
        directory.mkdir()
        if archive is not None:
            (directory / "archive.jsonl").write_bytes(archive)
        path = directory / "snapshot.jsonl"
        if digest is None:
            path.write_bytes(snapshot)
        else:
            _write_jsonl(path, [dict(meta, archive_digest=digest)] + rest)
        return path

    swapped = [lines[1], lines[0]]
    typed = json.loads(lines[0])
    typed["epoch_born"] = [str(value) for value in typed["epoch_born"]]
    typed = [(json.dumps(typed) + "\n").encode(), lines[1]]
    for name, path, match in (
            ("missing", place("missing", None), "cannot read archive"),
            ("short", place("short", lines[0]), "1 complete lines; the snapshot needs 2"),
            ("torn", place("torn", lines[0] + lines[1][:-1]), "1 complete lines"),
            ("out-of-order", place("out-of-order", b"".join(swapped), _archive_digest(swapped)),
             "archive.jsonl line 1: archive epoch 1, expected 0"),
            ("foreign-same-length", place("foreign-same-length", others[2]), "digest mismatch"),
            ("foreign-longer", place("foreign-longer", others[4]), "digest mismatch"),
            ("wrong-type", place("wrong-type", b"".join(typed), _archive_digest(typed)),
             r"archive.jsonl line 1: archive epoch_born\[0\] must be an integer")):
        with pytest.raises(ConfigError, match=match):
            load_snapshot(path)
        assert main(["eval", "--snapshot", str(path)]) == 0, name  # eval reads no archive
        assert main(["run", "--config", str(_write_config(tmp_path, epochs=4)), "--resume",
                     str(path), "--output-dir", str(tmp_path / f"resumed-{name}")]) == 2, name
    assert capsys.readouterr().err.count("error:") == 7
    # Lines past the snapshot's prefix are not read: a torn trailing line still loads.
    for name, archive in (("longer", b"".join(lines)),
                          ("torn-tail", b"".join(lines[:3]) + lines[3][:len(lines[3]) // 2])):
        loaded = load_snapshot(place(name, archive))
        assert list(loaded.pop.archive) == [0, 1]
        for epoch in (0, 1):
            _assert_same_records(loaded.pop.archive[epoch].records(),
                                 expected.pop.archive[epoch].records())


def test_each_epoch_born_value_is_checked_at_the_last_index(tmp_path, capsys):
    data = _small_dict(epochs=1, snapshot_interval=1)
    data["evolution"]["population_size"] = 64
    run_dir = run_experiment(config_from_dict(data), run_dir=tmp_path / "run").run_dir
    meta, active, policy = [json.loads(line) for line in
                            (run_dir / "snapshot_epoch00001.jsonl").read_text().splitlines()]
    archived = json.loads((run_dir / "archive.jsonl").read_text())
    last = len(archived["epoch_born"]) - 1
    assert last >= 63
    for case, bad in enumerate((True, 1.0, "3", None)):
        line = dict(archived, epoch_born=archived["epoch_born"][:-1] + [bad])
        path = _write_archived(tmp_path / f"case-{case}", meta, active, policy, [line])
        assert _resume_from(path, tmp_path / f"resumed-{case}") == 2
        assert f"archive.jsonl line 1: archive epoch_born[{last}] must be an integer" in \
            capsys.readouterr().err
    # The column holds 64-bit integers.
    line = dict(archived, epoch_born=archived["epoch_born"][:-1] + [2 ** 63])
    path = _write_archived(tmp_path / "wide", meta, active, policy, [line])
    assert _resume_from(path, tmp_path / "resumed-wide") == 2
    assert "archive.jsonl line 1: archive epoch_born holds an integer outside 64 bits" in \
        capsys.readouterr().err


def test_snapshot_with_the_full_config_in_its_meta_line_still_loads(tmp_path):
    # A meta line whose config holds the operational keys too still loads (beside its
    # run's archive) as one without them.
    run_dir = tmp_path / "run"
    half = run_experiment(_small_config(epochs=3, snapshot_interval=3), run_dir=run_dir)
    meta, *rest = [json.loads(line) for line in half.snapshot_path.read_text().splitlines()]
    assert set(meta["config"]["experiment"]).isdisjoint(
        {"epochs", "snapshot_interval", "output_dir", "resume_from"})
    full_config = _small_config(epochs=3, snapshot_interval=3, output_dir=str(run_dir),
                                resume_from=str(tmp_path / "earlier.jsonl")).to_dict()
    old = _write_jsonl(run_dir / "old.jsonl", [dict(meta, config=full_config)] + rest)
    assert load_snapshot(old).config.identity_fingerprint() == meta["config"]
    assert evaluate_snapshot(old) == evaluate_snapshot(half.snapshot_path)
    for name, source in (("old", old), ("new", half.snapshot_path)):
        run_experiment(_small_config(epochs=6, resume_from=str(source)),
                       run_dir=tmp_path / f"from-{name}")
    files = {name: {path.name: path.read_bytes() for path in (tmp_path / name).iterdir()
                    if path.name != "timings.csv"} for name in ("from-old", "from-new")}
    assert files["from-old"] == files["from-new"]
    assert sorted(files["from-old"]) == [
        "archive.jsonl", "metrics.csv", "snapshot_epoch00004.jsonl", "snapshot_epoch00006.jsonl"]


def _contents(directory):
    return {path.name: path.read_bytes() for path in directory.iterdir()}


def test_a_fresh_run_refuses_a_directory_with_another_runs_files(tmp_path):
    run_dir = tmp_path / "run"
    first = run_experiment(_small_config(epochs=3, snapshot_interval=1), run_dir=run_dir)
    before = _contents(run_dir)
    with pytest.raises(ConfigError, match="already holds"):
        run_experiment(_small_config(epochs=2, master_seed=7), run_dir=run_dir)
    assert _contents(run_dir) == before
    # Each of these files alone marks the directory as another run's.
    for name in ("metrics.csv", "archive.jsonl", "snapshot_epoch00003.jsonl"):
        other = tmp_path / f"only-{name}"
        other.mkdir()
        (other / name).write_bytes(before[name])
        with pytest.raises(ConfigError, match=name):
            run_experiment(_small_config(epochs=1), run_dir=other)
        assert _contents(other) == {name: before[name]}
    # A new or empty directory takes a fresh run, and the refused run left the first
    # run's snapshot resumable in place.
    (tmp_path / "empty").mkdir()
    assert run_experiment(_small_config(epochs=1), run_dir=tmp_path / "empty").metrics
    assert run_experiment(_small_config(epochs=1), run_dir=tmp_path / "new").metrics
    resumed = run_experiment(_small_config(epochs=4, resume_from=str(first.snapshot_path)),
                             run_dir=run_dir)
    assert [row.epoch for row in resumed.metrics] == [4]


def test_resume_in_place_drops_a_row_cut_short(tmp_path):
    # a crash while writing epoch 11's row can leave "1", which reads as epoch 1
    full = run_experiment(_small_config(epochs=11), run_dir=tmp_path / "full")
    run_dir = tmp_path / "run"
    half = run_experiment(_small_config(epochs=10, snapshot_interval=10), run_dir=run_dir)
    for path in (half.metrics_path, half.timings_path):
        with open(path, "ab") as handle:
            handle.write(b"1")
    resumed = run_experiment(_small_config(epochs=11, resume_from=str(half.snapshot_path)),
                             run_dir=run_dir)
    assert resumed.metrics_path.read_bytes() == full.metrics_path.read_bytes()
    assert len(_read_rows(resumed.timings_path)) == 12


def test_resume_in_place_rejects_a_row_without_an_integer_epoch(tmp_path):
    for name in ("metrics.csv", "timings.csv"):
        run_dir = tmp_path / name
        run_experiment(_small_config(epochs=4, snapshot_interval=2), run_dir=run_dir)
        corrupt = run_dir / name
        lines = corrupt.read_bytes().splitlines(keepends=True)
        corrupt.write_bytes(b"".join(lines[:1] + [b"x" + lines[1][1:]] + lines[2:]))
        before = {path: path.read_bytes() for path in run_dir.glob("*.csv")}
        resume = _small_config(epochs=6, resume_from=str(run_dir / "snapshot_epoch00002.jsonl"))
        with pytest.raises(ConfigError, match=name):
            run_experiment(resume, run_dir=run_dir)
        assert {path: path.read_bytes() for path in run_dir.glob("*.csv")} == before


def test_resume_in_place_rejects_a_file_without_its_header_row(tmp_path):
    for name in ("metrics.csv", "timings.csv"):
        for label, keep in (("empty", lambda lines: []), ("headerless", lambda lines: lines[1:])):
            run_dir = tmp_path / f"{label}-{name}"
            run_experiment(_small_config(epochs=4, snapshot_interval=2), run_dir=run_dir)
            corrupt = run_dir / name
            corrupt.write_bytes(b"".join(keep(corrupt.read_bytes().splitlines(keepends=True))))
            before = {path: path.read_bytes() for path in run_dir.glob("*.csv")}
            snapshot = str(run_dir / "snapshot_epoch00002.jsonl")
            with pytest.raises(ConfigError, match=f"{name}.*header row"):
                run_experiment(_small_config(epochs=6, resume_from=snapshot), run_dir=run_dir)
            config = _write_config(tmp_path, epochs=6)
            assert main(["run", "--config", str(config), "--output-dir", str(run_dir),
                         "--resume", snapshot]) == 2
            assert {path: path.read_bytes() for path in run_dir.glob("*.csv")} == before


def test_a_snapshot_refuses_retired_records_that_no_generation_archived(tmp_path):
    # Retired records wait in pop.retired until evolve_generation archives them; no snapshot
    # line holds them, so a snapshot taken in between would drop them.
    snap = load_snapshot(run_experiment(_small_config(epochs=0), run_dir=tmp_path).snapshot_path)
    before = sorted(path.name for path in tmp_path.iterdir())
    snap.pop.active[0].r = 1.0
    delete_bad_tasks(snap.pop, (0.02, 0.98))
    assert len(snap.pop.retired) == 1
    with pytest.raises(ValueError, match="holds 1 retired records that are not archived yet"):
        write_snapshot(tmp_path / "snapshot_epoch00001.jsonl", snap)
    assert sorted(path.name for path in tmp_path.iterdir()) == before


def test_failed_snapshot_write_leaves_no_partial_file(tmp_path, monkeypatch):
    import coevo_curriculum.snapshots as snapshots

    half = run_experiment(_small_config(epochs=2, snapshot_interval=2), run_dir=tmp_path)
    before = sorted(path.name for path in tmp_path.iterdir())
    real_generation_line = snapshots._generation_line
    calls = []

    def failing_generation_line(kind, *args):
        calls.append(kind)
        if kind == "active":  # the first snapshot write after the resume, at epoch 4
            raise RuntimeError("disk full")
        return real_generation_line(kind, *args)

    monkeypatch.setattr(snapshots, "_generation_line", failing_generation_line)
    with pytest.raises(RuntimeError, match="disk full"):
        run_experiment(_small_config(epochs=4, snapshot_interval=2,
                                     resume_from=str(half.snapshot_path)), run_dir=tmp_path)
    # Generations 0-1 are encoded again and written back; append 2 and 3, then fail.
    assert calls == ["archive"] * 4 + ["active"]
    assert sorted(path.name for path in tmp_path.iterdir()) == before
    assert not (tmp_path / "snapshot_epoch00004.jsonl").exists()
    assert load_snapshot(half.snapshot_path).epoch == 2


def test_a_refused_resume_creates_no_output_directory(tmp_path, capsys):
    half = run_experiment(_small_config(epochs=2, snapshot_interval=2),
                          run_dir=tmp_path / "half")
    for name, snapshot, seed in (("missing", tmp_path / "missing.jsonl", "11"),
                                 ("mismatched", half.snapshot_path, "12")):
        out = tmp_path / "new" / name
        assert main(["run", "--config", str(_write_config(tmp_path, epochs=4)), "--seed", seed,
                     "--resume", str(snapshot), "--output-dir", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "new").exists()


def _column(line, key, dtype):
    return np.frombuffer(base64.b64decode(line[key], validate=True), dtype=dtype)


def _first_records(active, count, n_agents=2):
    """The active line ``active`` cut to its first ``count`` records, each column in the
    writer's form: the genome column keeps the rows those records use."""
    rows = _column(active, "genome_row", "<u4")[:count]
    used = int(rows.max()) + 1 if count else 0
    return dict(active, genome=_b64(_floats(active["genome"])[:used * n_agents * 4]),
                genome_row=_b64(rows, "<u4"), epoch_born=active["epoch_born"][:count],
                origin=_b64(_column(active, "origin", "<u1")[:count], "<u1"))


def _doctored_resume(tmp_path, edit):
    """Exit status of a CLI resume from the epoch-2 snapshot of a small ccl run whose active
    line ``edit`` rewrote as JSON, and the doctored snapshot's path; the resume must leave no
    output directory."""
    half = run_experiment(_small_config(epochs=2, snapshot_interval=2), run_dir=tmp_path / "half")
    lines = half.snapshot_path.read_text().splitlines()
    meta, active, policy = [json.loads(line) for line in lines]
    assert "r_index" not in active and "f_index" not in active  # evolve_generation measures none
    doctored = _write_jsonl(tmp_path / "half" / "doctored.jsonl", [meta, edit(active), policy])
    out = tmp_path / "new"
    code = main(["run", "--config", str(_write_config(tmp_path, epochs=4)),
                 "--resume", str(doctored), "--output-dir", str(out)])
    assert not out.exists()
    return code, doctored


def test_a_resume_from_an_active_line_of_another_size_exits_with_two(tmp_path, capsys):
    # Every snapshot a run writes holds population_size (8) active records.
    for count in (0, 2, 6):
        code, cut = _doctored_resume(tmp_path / str(count),
                                     lambda active: _first_records(active, count))
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: snapshot {cut} line 2: active line holds {count} records; every snapshot "
            "of the stored config holds 8\n")


def _assert_listed_resume_exits_with_two(tmp_path, capsys, name, listed):
    values = [listed.get(i) for i in range(8)]
    code, measured = _doctored_resume(tmp_path,
                                      lambda active: dict(active, **_optional(name, values)))
    assert code == 2
    # An active line has no r or f column: a listed one is a key its kind does not define.
    assert capsys.readouterr().err == (
        f"error: snapshot {measured} line 2: unknown key(s) in active line: {name}, {name}_index\n")


@pytest.mark.parametrize("listed", [{2: 0.5}, dict.fromkeys(range(8), 5.0)])
def test_a_resume_from_an_active_line_that_lists_r_exits_with_two(tmp_path, capsys, listed):
    # A snapshot is taken after evolve_generation, whose children and copies are unmeasured.
    _assert_listed_resume_exits_with_two(tmp_path, capsys, "r", listed)


@pytest.mark.parametrize("listed", [{5: 0.25}, dict.fromkeys(range(8), -3.0)])
def test_a_resume_from_an_active_line_that_lists_f_exits_with_two(tmp_path, capsys, listed):
    # A copy carries no fitness: every active record's f is assigned in the epoch it trains.
    _assert_listed_resume_exits_with_two(tmp_path, capsys, "f", listed)


def test_write_snapshot_refuses_every_active_generation_the_reader_refuses(tmp_path):
    ccl = load_snapshot(run_experiment(_small_config(epochs=2, snapshot_interval=2),
                                       run_dir=tmp_path / "ccl").snapshot_path)
    vanilla = load_snapshot(run_experiment(_small_config(mode="vanilla", epochs=0),
                                           run_dir=tmp_path / "vanilla").snapshot_path)

    def measured(name, value):
        active = [rec.clone() for rec in ccl.pop.active]
        setattr(active[3], name, value)
        return replace(ccl, pop=replace(ccl.pop, active=active))

    cases = [(replace(ccl, pop=None), "a ccl snapshot needs an active line"),
             (replace(vanilla, pop=ccl.pop), "a vanilla snapshot holds no active line"),
             *((replace(ccl, pop=replace(ccl.pop, active=ccl.pop.active[:count])),
                f"active line holds {count} records; every snapshot of the stored config "
                "holds 8") for count in (0, 2, 6)),
             (measured("r", 0.5), "active r lists record 3"),
             (measured("f", 0.5), "active f lists record 3")]
    for snap, message in cases:
        with pytest.raises(ValueError, match=message):
            write_snapshot(tmp_path / "refused.jsonl", snap)
        assert not list(tmp_path.glob("refused.jsonl*"))


def test_a_format_7_snapshot_exits_with_two(tmp_path, capsys):
    # Format 7 listed the active records' f, which a copy carried over from the epoch before;
    # format 8 held the r and f columns on the active line too, each empty.
    path = run_experiment(_small_config(epochs=2, snapshot_interval=2),
                          run_dir=tmp_path / "run").snapshot_path
    meta, active, policy = [json.loads(line) for line in path.read_text().splitlines()]
    empty = {"r_index": "", "r": "", "f_index": "", "f": ""}
    for found, old_active in ((7, {**active, **empty, **_optional("f", [0.5] * 8)}),
                              (8, {**active, **empty})):
        old = _write_jsonl(tmp_path / "run" / f"format-{found}.jsonl",
                           [dict(meta, format=found), old_active, policy])
        expected = f"error: snapshot {old} line 1: format {found}, expected 9\n"
        assert main(["eval", "--snapshot", str(old)]) == 2
        assert capsys.readouterr().err == expected
        out = tmp_path / f"new-{found}"
        assert main(["run", "--config", str(_write_config(tmp_path, epochs=4)), "--resume",
                     str(old), "--output-dir", str(out)]) == 2
        assert capsys.readouterr().err == expected
        assert not out.exists()


def test_eval_of_a_snapshot_copied_alone_prints_the_in_place_rate(tmp_path, capsys):
    run_dir = run_experiment(_small_config(epochs=4, snapshot_interval=2),
                             run_dir=tmp_path / "run").run_dir
    for name in ("snapshot_epoch00002.jsonl", "snapshot_epoch00004.jsonl"):
        alone = tmp_path / "alone" / name
        alone.parent.mkdir(exist_ok=True)
        alone.write_bytes((run_dir / name).read_bytes())
        with pytest.raises(ConfigError, match="cannot read archive"):
            load_snapshot(alone)  # a resume needs the archive
        assert main(["eval", "--snapshot", str(run_dir / name)]) == 0
        in_place = capsys.readouterr().out
        assert main(["eval", "--snapshot", str(alone)]) == 0
        assert capsys.readouterr().out == in_place
        assert in_place.startswith("target_success=")


@pytest.mark.parametrize("counter", ["epoch", "episodes_total", "env_steps_total"])
def test_a_resume_from_a_negative_meta_counter_exits_with_two(tmp_path, capsys, counter):
    for mode in MODES:
        half = run_experiment(_small_config(mode=mode, epochs=2, snapshot_interval=2),
                              run_dir=tmp_path / mode)
        lines = [json.loads(line) for line in half.snapshot_path.read_text().splitlines()]
        negative = _write_jsonl(tmp_path / mode / "negative.jsonl",
                                [dict(lines[0], **{counter: -1})] + lines[1:])
        out = tmp_path / "new" / mode
        assert main(["run", "--config", str(_write_config(tmp_path, mode=mode, epochs=4)),
                     "--resume", str(negative), "--output-dir", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: snapshot {negative} line 1: meta {counter} is -1; a count is at least 0\n")
        assert not (tmp_path / "new").exists()


def test_resume_rejects_mismatched_identity(tmp_path):
    half = run_experiment(_small_config(epochs=2, snapshot_interval=2),
                          run_dir=tmp_path / "half")
    wrong_seed = _small_config(epochs=4, master_seed=12,
                               resume_from=str(half.snapshot_path))
    with pytest.raises(ConfigError, match="different configuration"):
        run_experiment(wrong_seed, run_dir=tmp_path / "bad-seed")
    wrong_env = _small_dict(epochs=4, resume_from=str(half.snapshot_path))
    wrong_env["env"]["max_steps"] = 13
    with pytest.raises(ConfigError, match="different configuration"):
        run_experiment(config_from_dict(wrong_env), run_dir=tmp_path / "bad-env")
    # Rows of another run in the target directory: a resume would splice them.
    seed7 = run_experiment(_small_config(epochs=1, master_seed=7), run_dir=tmp_path / "seed7")
    seed12 = run_experiment(_small_config(epochs=2, master_seed=12), run_dir=tmp_path / "seed12")
    for other, match in ((seed7, "epoch 2 has epoch 1, the snapshot 2"),
                         (seed12, "env_steps_total")):
        resume = _small_config(epochs=4, resume_from=str(half.snapshot_path))
        before = {path: path.read_bytes() for path in other.run_dir.glob("*.csv")}
        with pytest.raises(ConfigError, match=match):
            run_experiment(resume, run_dir=other.run_dir)
        assert main(["run", "--config", str(_write_config(tmp_path, epochs=4)), "--resume",
                     str(half.snapshot_path), "--output-dir", str(other.run_dir)]) == 2
        assert {path: path.read_bytes() for path in other.run_dir.glob("*.csv")} == before
    # A policy of a smaller table (the first half or the first ten of this one's entries),
    # or of a larger one: entries past the end of this one.
    *lines, policy = [json.loads(line) for line in half.snapshot_path.read_text().splitlines()]
    size = math.prod(half.config.env.q_shape)
    table = load_snapshot(half.snapshot_path).policy_q.reshape(-1)
    policies = {}
    for name, q in (("one-agent", table[:size // 2]), ("few-states", table[:10])):
        index = np.flatnonzero(q.view("<u8"))
        policies[name] = dict(policy, size=q.size, index=_b64(index, "<u4"), q=_b64(q[index]))
    for name, index in (("one-past-the-end", [0, size]), ("far", [2**32 - 1])):
        policies[name] = dict(policy, index=_b64(index, "<u4"), q=_b64([1.0] * len(index)))
    for name, listed in policies.items():
        bad = _write_jsonl(tmp_path / f"{name}.jsonl", lines + [listed])
        with pytest.raises(ConfigError, match="shape"):
            run_experiment(_small_config(epochs=4, resume_from=str(bad)),
                           run_dir=tmp_path / f"bad-{name}")


@pytest.mark.parametrize("key, value, named", [
    ("mode", "vanilla", "experiment.mode: 'ccl' in the snapshot, 'vanilla' here"),
    ("master_seed", 12, "experiment.master_seed: 11 in the snapshot, 12 here"),
    ("episodes_per_task", 3, "experiment.episodes_per_task: 2 in the snapshot, 3 here")])
def test_a_refused_resume_names_the_setting_that_differs(tmp_path, capsys, key, value, named):
    half = run_experiment(_small_config(epochs=2, snapshot_interval=2),
                          run_dir=tmp_path / "half")
    with pytest.raises(ConfigError, match="different configuration") as refused:
        run_experiment(_small_config(epochs=4, resume_from=str(half.snapshot_path),
                                     **{key: value}), run_dir=tmp_path / "resumed")
    assert str(refused.value).endswith(named)
    assert main(["run", "--config", str(_write_config(tmp_path, epochs=4, **{key: value})),
                 "--resume", str(half.snapshot_path),
                 "--output-dir", str(tmp_path / "cli")]) == 2
    assert named in capsys.readouterr().err


def test_resume_rejects_backward_epoch_target(tmp_path):
    half = run_experiment(_small_config(epochs=4), run_dir=tmp_path / "half")
    shorter = _small_config(epochs=2, resume_from=str(half.snapshot_path))
    with pytest.raises(ConfigError, match="already"):
        run_experiment(shorter, run_dir=tmp_path / "shorter")


def test_resume_at_final_epoch_is_a_no_op(tmp_path):
    # A target every agent starts on, so the stored policy reaches it greedily.
    reached = [[0.1, 0.1, 0.1, 0.1], [0.9, 0.9, 0.9, 0.9]]
    done = run_experiment(_small_config(epochs=2, snapshot_interval=2, target=reached),
                          run_dir=tmp_path / "done")
    again = run_experiment(_small_config(epochs=2, target=reached,
                                         resume_from=str(done.snapshot_path)),
                           run_dir=tmp_path / "again")
    assert again.metrics == []
    assert len(_read_rows(again.metrics_path)) == 1
    assert again.final_target_success == done.final_target_success == 1.0
    assert evaluate_snapshot(done.snapshot_path) == 1.0
    assert again.snapshot_path == done.snapshot_path
    assert again.evolution_ops == {}  # the loaded run's operators are not this run's


# ---------------------------------------------------------------- ablation

def test_ablation_variant_construction():
    cfg = _small_config()
    shapes = ablation_variants(cfg, "fitness-shape")
    assert set(shapes) == {"sigmoid", "linear"}
    assert shapes["linear"].fitness.mode == "linear"
    assert shapes["linear"].master_seed == cfg.master_seed
    steps = ablation_variants(cfg, "mutation-step")
    assert set(steps) == {"adaptive", "fixed", "none"}
    assert steps["none"].evolution.mutation_scale == 0.0
    assert not steps["fixed"].evolution.adaptive_mutation
    with pytest.raises(ConfigError):
        ablation_variants(cfg, "learning-rate")
    with pytest.raises(ConfigError):
        ablation_variants(_small_config(mode="vanilla"), "fitness-shape")


ABLATION_VARIANTS = {"fitness-shape": ["sigmoid", "linear"],
                     "mutation-step": ["adaptive", "fixed", "none"]}


@pytest.mark.parametrize("axis", ABLATION_AXES)
def test_run_ablation_writes_a_combined_report(axis, tmp_path):
    variants = ABLATION_VARIANTS[axis]
    report = run_ablation(_small_config(epochs=2), axis, out_dir=tmp_path)
    assert list(report.results) == variants
    rows = _read_rows(report.report_path)
    assert rows[0] == ["variant"] + list(METRICS_COLUMNS)
    # One row per variant and epoch, in the declared order.
    assert [tuple(row[:2]) for row in rows[1:]] == [
        (name, epoch) for name in variants for epoch in ("1", "2")]
    for name in variants:
        assert (tmp_path / f"ablation-{axis}" / name / "metrics.csv").exists()
    for rate in report.final_rates().values():
        assert 0.0 <= rate <= 1.0


# ---------------------------------------------------------------- cli

def _write_config(tmp_path, **experiment):
    data = _small_dict(**experiment)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def test_cli_run_round_trip(tmp_path, capsys):
    path = _write_config(tmp_path, epochs=2)
    code = main(["run", "--config", str(path), "--output-dir", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert code == 0
    assert "final_target_success=" in out
    assert (tmp_path / "out" / "metrics.csv").exists()


def test_cli_overrides_reach_the_run(tmp_path, capsys):
    path = _write_config(tmp_path, epochs=2)
    code = main(["run", "--config", str(path), "--mode", "vanilla", "--seed", "5",
                 "--epochs", "1", "--output-dir", str(tmp_path / "van")])
    out = capsys.readouterr().out
    assert code == 0
    assert "mode=vanilla seed=5 epochs=1" in out


def test_cli_eval_reports_snapshot_rate(tmp_path, capsys):
    # A vanilla run on a 3-wide grid whose last epoch reaches the target, so the rates differ.
    reaching = _small_dict(mode="vanilla", epochs=6, master_seed=1)
    reaching.update(env={"grid_width": 3, "n_agents": 1, "max_steps": 8},
                    learner={"epsilon": 0.5})
    finals = []
    for name, config in (("ccl", _small_config(epochs=2)),
                         ("vanilla", config_from_dict(reaching))):
        result = run_experiment(config, run_dir=tmp_path / name)
        code = main(["eval", "--snapshot", str(result.snapshot_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert out == f"target_success={result.final_target_success}\n"
        finals.append(result.final_target_success)
    assert finals == [0.0, 1.0]
    # Its first team reward comes in epoch 5, so a resume in place at epoch 4 starts from an
    # all-zero table whose next epoch leaves the trainer's pre-pass for the lockstep loop.
    rewards = [float(row["batch_mean_r"]) for row in csv.DictReader(
        (tmp_path / "vanilla" / "metrics.csv").read_text(encoding="utf-8").splitlines())]
    assert [reward != 0 for reward in rewards] == [False] * 4 + [True] * 2
    reaching["experiment"]["epochs"] = 4
    run_experiment(config_from_dict(reaching), run_dir=tmp_path / "late")
    reaching["experiment"].update(epochs=6, resume_from=str(tmp_path / "late" /
                                                            "snapshot_epoch00004.jsonl"))
    run_experiment(config_from_dict(reaching), run_dir=tmp_path / "late")
    assert _files(tmp_path / "late") == _files(tmp_path / "vanilla")


def test_cli_ablate_round_trip(tmp_path, capsys):
    path = _write_config(tmp_path, epochs=1)
    code = main(["ablate", "--config", str(path), "--axis", "fitness-shape",
                 "--output-dir", str(tmp_path / "abl")])
    out = capsys.readouterr().out
    assert code == 0
    assert "fitness-shape/sigmoid" in out and "fitness-shape/linear" in out
    assert (tmp_path / "abl" / "ablation-fitness-shape" / "report.csv").exists()


def test_cli_fresh_run_into_a_used_directory_exits_with_two(tmp_path, capsys):
    config = str(_write_config(tmp_path, snapshot_interval=1))
    out = tmp_path / "rd"
    assert main(["run", "--config", config, "--output-dir", str(out), "--seed", "1",
                 "--epochs", "3"]) == 0
    before = _contents(out)
    assert main(["run", "--config", config, "--output-dir", str(out), "--seed", "7",
                 "--epochs", "2"]) == 2
    assert "already holds" in capsys.readouterr().err
    assert _contents(out) == before
    assert main(["run", "--config", config, "--output-dir", str(out), "--seed", "1",
                 "--epochs", "4", "--resume", str(out / "snapshot_epoch00003.jsonl")]) == 0


@pytest.mark.parametrize("mode", MODES)
def test_cli_a_resume_in_place_that_would_orphan_later_snapshots_exits_with_two(
        mode, tmp_path, capsys):
    config = str(_write_config(tmp_path, mode=mode, snapshot_interval=1))
    out = tmp_path / "rd"
    assert main(["run", "--config", config, "--output-dir", str(out), "--epochs", "5"]) == 0
    before = _contents(out)
    rewind = ["run", "--config", config, "--output-dir", str(out),
              "--resume", str(out / "snapshot_epoch00002.jsonl")]
    assert main(rewind + ["--epochs", "3"]) == 2
    err = capsys.readouterr().err
    assert "snapshot_epoch00005.jsonl" in err and "--epochs" in err and "--output-dir" in err
    assert _contents(out) == before
    # The refused resume left both later snapshots readable, and a resume that reaches the
    # newest one rewrites the run's own files.
    for name in ("snapshot_epoch00004.jsonl", "snapshot_epoch00005.jsonl"):
        assert main(["eval", "--snapshot", str(out / name)]) == 0
    assert main(rewind + ["--epochs", "5"]) == 0
    assert _files(out) == {name: data for name, data in before.items() if name != "timings.csv"}


def test_a_second_population_mode_in_the_declaration_snapshots_and_resumes_in_place(
        tmp_path, monkeypatch):
    import coevo_curriculum.config as config

    monkeypatch.setitem(config.MODES, "ccl-twin", True)
    run = ["run", "--config", str(_write_config(tmp_path, snapshot_interval=1)),
           "--mode", "ccl-twin"]
    full, part = tmp_path / "full", tmp_path / "part"
    assert main(run + ["--output-dir", str(full), "--epochs", "3"]) == 0
    for epoch in range(4):
        snap = load_snapshot(full / f"snapshot_epoch{epoch:05d}.jsonl")
        assert (snap.config.mode, snap.epoch, len(snap.pop.archive)) == ("ccl-twin", epoch, epoch)
    assert main(run + ["--output-dir", str(part), "--epochs", "2"]) == 0
    assert main(run + ["--output-dir", str(part), "--epochs", "3",
                       "--resume", str(part / "snapshot_epoch00002.jsonl")]) == 0
    assert _files(part) == _files(full)
    # The declaration alone picks the curriculum, so the twin trains and evolves as ccl does.
    ccl = _files(run_experiment(_small_config(epochs=3, snapshot_interval=1),
                                run_dir=tmp_path / "ccl").run_dir)
    assert {name: ccl[name] for name in ("metrics.csv", "archive.jsonl")} == {
        name: _files(full)[name] for name in ("metrics.csv", "archive.jsonl")}
    assert set(ablation_variants(snap.config, "fitness-shape")) == {"sigmoid", "linear"}


def test_cli_run_into_an_output_path_that_is_a_file_exits_with_two(tmp_path, capsys):
    # chmod cannot make a directory unwritable for root; a regular file in its place can.
    blocker = tmp_path / "blocker"
    blocker.write_bytes(b"not a directory\n")
    assert main(["run", "--config", str(_write_config(tmp_path, epochs=1)),
                 "--output-dir", str(blocker)]) == 2
    assert "is not writable" in capsys.readouterr().err
    assert blocker.read_bytes() == b"not a directory\n"


def test_cli_failures_exit_with_two(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "absent.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"experiment": {"epochs": -3}}), encoding="utf-8")
    assert main(["run", "--config", str(bad)]) == 2
    bad.write_bytes(b'{"experiment": {"epochs": 1\xff}}')
    assert main(["run", "--config", str(bad)]) == 2
    assert main(["eval", "--snapshot", str(tmp_path / "none.jsonl")]) == 2
    snapshot = run_experiment(_small_config(epochs=0), run_dir=tmp_path / "run").snapshot_path
    lines = [json.loads(line) for line in snapshot.read_text(encoding="utf-8").splitlines()]
    nulled = _write_jsonl(tmp_path / "nulled.jsonl", lines[:1] + [None] + lines[2:])
    assert main(["run", "--config", str(_write_config(tmp_path)), "--resume", str(nulled),
                 "--output-dir", str(tmp_path / "resumed")]) == 2
    active = dict(lines[1], r="x")
    unmeasurable = _write_jsonl(tmp_path / "string-r.jsonl", lines[:1] + [active] + lines[2:])
    assert main(["run", "--config", str(_write_config(tmp_path)), "--resume", str(unmeasurable),
                 "--output-dir", str(tmp_path / "resumed")]) == 2
    fractional = _write_jsonl(tmp_path / "fractional-epoch.jsonl",
                              [dict(lines[0], epoch=1.9)] + lines[1:])
    assert main(["run", "--config", str(_write_config(tmp_path)), "--resume", str(fractional),
                 "--output-dir", str(tmp_path / "resumed")]) == 2
    nan_gain = _small_dict()
    nan_gain["fitness"] = {"gain": math.nan}
    bad.write_text(json.dumps(nan_gain), encoding="utf-8")
    assert main(["run", "--config", str(bad), "--output-dir", str(tmp_path / "nan")]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 8


def test_the_console_entry_point_exits_with_the_status_of_main(tmp_path, monkeypatch, capsys):
    config = str(_write_config(tmp_path, epochs=1))
    for argv, status in ((["run", "--config", config, "--output-dir", str(tmp_path / "out")], 0),
                         (["run", "--config", str(tmp_path / "absent.json")], 2)):
        monkeypatch.setattr(sys, "argv", ["coevo-curriculum", *argv])
        with pytest.raises(SystemExit) as exited:
            console()
        assert exited.value.code == status
    assert "final_target_success=" in capsys.readouterr().out
