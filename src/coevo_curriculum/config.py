"""Experiment configuration: JSON schema derived from the dataclasses, strict validation."""

from __future__ import annotations

import json
import os
import sys
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from types import UnionType
from typing import Any, get_args, get_type_hints

import numpy as np

from .evolution import EvolutionParams
from .fitness import FitnessParams
from .gridworld import EnvConfig
from .tasks import DEFAULT_DISTANCE_THRESHOLD, TaskDomain, TaskGenome, opposite_corner_target
from .trainer import LearnerParams

OUTPUT_DIR_ENV = "COEVO_CURRICULUM_OUTDIR"
DEFAULT_OUTPUT_DIR = "runs"
MODES = {"ccl": True, "vanilla": False}  # each mode: whether it keeps a task population
ABLATION_AXES = ("fitness-shape", "mutation-step")


class ConfigError(Exception):
    """Raised when an experiment configuration or resume request is invalid."""


# Experiment keys a resume may change: they set how long a run goes on and
# where it writes, not the trajectory it follows.
OPERATIONAL_KEYS = ("epochs", "snapshot_interval", "output_dir", "resume_from")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment; the JSON schema is derived from these dataclasses.

    Dataclass-typed fields are the JSON sections of the same name, every
    other field is a key of the ``experiment`` section.
    """

    mode: str = "ccl"
    epochs: int = 30
    episodes_per_task: int = 10
    master_seed: int = 0
    target: tuple[tuple[float, ...], ...] | None = None
    init_distance_threshold: float = DEFAULT_DISTANCE_THRESHOLD
    snapshot_interval: int = 10
    output_dir: str | None = None
    resume_from: str | None = None
    env: EnvConfig = field(default_factory=EnvConfig)
    evolution: EvolutionParams = field(default_factory=EvolutionParams)
    fitness: FitnessParams = field(default_factory=FitnessParams)
    learner: LearnerParams = field(default_factory=LearnerParams)

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {tuple(MODES)}, got {self.mode!r}")
        if self.epochs < 0:
            raise ConfigError("epochs cannot be negative")
        if self.episodes_per_task < 1:
            raise ConfigError("episodes_per_task must be at least 1")
        if self.master_seed < 0:
            raise ConfigError("master_seed must be non-negative")
        if self.snapshot_interval < 1:
            raise ConfigError("snapshot_interval must be at least 1")
        if self.target is not None:
            if any(len(row) != 4 for row in self.target):
                raise ConfigError("experiment.target rows must have exactly 4 components")
            genome = self.target_genome()
            if genome.n_agents != self.env.n_agents:
                raise ConfigError("target task must match the environment agent count")
            if not genome.in_domain:
                raise ConfigError("target task components must lie in [0, 1]")
        try:
            self.domain()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def target_genome(self) -> TaskGenome:
        if self.target is None:
            return opposite_corner_target(self.env.n_agents)
        return TaskGenome(np.array(self.target, dtype=float))

    def domain(self) -> TaskDomain:
        return TaskDomain(n_agents=self.env.n_agents, grid_width=self.env.grid_width,
                          distance_threshold=self.init_distance_threshold)

    def resolved_output_dir(self) -> Path:
        if self.output_dir is not None:
            return Path(self.output_dir)
        return Path(os.environ.get(OUTPUT_DIR_ENV, DEFAULT_OUTPUT_DIR))

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form that ``config_from_dict`` reads back."""
        experiment = asdict(self)
        sections = {name: experiment.pop(name) for name in _SECTIONS}
        return json.loads(json.dumps({"experiment": experiment, **sections}))

    def identity_fingerprint(self) -> dict[str, Any]:
        """The config subset that must match for a snapshot resume to be sound.

        Operational knobs (``OPERATIONAL_KEYS``) may differ; anything that
        shapes the trajectory may not.
        """
        full = self.to_dict()
        for key in OPERATIONAL_KEYS:
            del full["experiment"][key]
        return full


def _schema(cls: type) -> dict[str, Any]:
    """Field name to resolved type annotation, in declaration order."""
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


_SECTIONS = tuple(name for name, tp in _schema(ExperimentConfig).items() if is_dataclass(tp))

_SCALARS = {bool: ((bool,), "a boolean"), int: ((int,), "an integer"),
            float: ((int, float), "a number"), str: ((str,), "a string")}


def _coerce(value: Any, tp: Any, where: str) -> Any:
    """Check one config or snapshot JSON value against a field type; ints pass as floats."""
    if tp in _SCALARS:
        accepted, name = _SCALARS[tp]
        if not isinstance(value, accepted) or (isinstance(value, bool) and tp is not bool):
            raise ConfigError(f"{where} must be {name}")
        if tp is float and not -sys.float_info.max <= value <= sys.float_info.max:  # NaN, inf
            raise ConfigError(f"{where} must be finite")
        return float(value) if tp is float else value
    args = get_args(tp)
    if isinstance(tp, UnionType):  # only ``X | None`` occurs
        return None if value is None else _coerce(value, args[0], where)
    if not isinstance(value, (list, tuple)):  # the one other type is ``tuple[...]``
        raise ConfigError(f"{where} must be a list")
    if args[-1] is not Ellipsis and len(value) != len(args):
        raise ConfigError(f"{where} must have exactly {len(args)} entries")
    types = [args[0]] * len(value) if args[-1] is Ellipsis else args
    return tuple([_coerce(item, item_tp, f"{where}[{index}]")
                  for index, (item, item_tp) in enumerate(zip(value, types))])


def _check_keys(data: Any, allowed: Any, where: str) -> None:
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")


def _section(data: Any, where: str, schema: dict[str, Any]) -> dict[str, Any]:
    """Coerced keyword arguments for one JSON section; unknown keys are rejected."""
    _check_keys(data, schema, f"section {where!r}")
    return {key: _coerce(value, schema[key], f"{where}.{key}") for key, value in data.items()}


def config_from_dict(data: dict[str, Any]) -> ExperimentConfig:
    """Build and validate a config; unknown keys anywhere are rejected."""
    _check_keys(data, {"experiment", *_SECTIONS}, "config")
    schema = _schema(ExperimentConfig)
    experiment = {key: tp for key, tp in schema.items() if key not in _SECTIONS}
    kwargs = _section(data.get("experiment", {}), "experiment", experiment)
    try:
        for name in _SECTIONS:
            cls = schema[name]
            kwargs[name] = cls(**_section(data.get(name, {}), name, _schema(cls)))
        return ExperimentConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path} is not valid UTF-8 JSON: {exc}") from exc
    return config_from_dict(data)


def apply_overrides(config: ExperimentConfig, *, seed: int | None = None,
                    mode: str | None = None, output_dir: str | None = None,
                    resume_from: str | None = None, epochs: int | None = None) -> ExperimentConfig:
    """Command-line overrides win over file values."""
    updates = {key: value for key, value in (
        ("master_seed", seed), ("mode", mode), ("output_dir", output_dir),
        ("resume_from", resume_from), ("epochs", epochs)) if value is not None}
    if not updates:
        return config
    try:
        return replace(config, **updates)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def default_config() -> ExperimentConfig:
    return ExperimentConfig()
