"""Span tracer that wraps the package's public functions from outside the package.

Each wrapped call records one span: name, start, end, enclosing span and run
id. Spans are kept in flat arrays in memory and written out once, at the end.
Wrappers are installed only for a traced experiment and every patched
attribute is put back by ``uninstall``.
"""

from __future__ import annotations

import importlib
import os
from array import array
from collections import Counter
from time import perf_counter
from typing import Any, Callable

# (module, attribute path, span name). Each name is patched where its caller
# looks it up: ``harness`` imports the trainer and evolution functions by
# name, and ``GridSpread.reset`` finds ``discretize`` in ``gridworld``.
TARGETS = (
    ("coevo_curriculum.harness", "train_on_tasks", "trainer.train"),
    ("coevo_curriculum.harness", "evaluate_target", "trainer.eval"),
    ("coevo_curriculum.harness", "stream", "streams.stream"),
    ("coevo_curriculum.harness", "write_snapshot", "harness.write_snapshot"),
    ("coevo_curriculum.harness", "load_snapshot", "harness.load_snapshot"),
    ("coevo_curriculum.harness", "evolve_generation", "evolution.evolve_generation"),
    ("coevo_curriculum.harness", "soft_select", "evolution.soft_select"),
    ("coevo_curriculum.harness", "assign_population_fitness",
     "evolution.assign_population_fitness"),
    ("coevo_curriculum.harness", "delete_bad_tasks", "evolution.delete_bad_tasks"),
    ("coevo_curriculum.trainer", "rollout", "trainer.rollout"),
    ("coevo_curriculum.trainer", "PolicyTable.act", "trainer.act"),
    ("coevo_curriculum.trainer", "PolicyTable.update", "trainer.update"),
    ("coevo_curriculum.trainer", "PolicyTable.clone", "trainer.clone"),
    ("coevo_curriculum.gridworld", "GridSpread.step", "gridworld.step"),
    ("coevo_curriculum.gridworld", "GridSpread.reset", "gridworld.reset"),
    ("coevo_curriculum.gridworld", "discretize", "tasks.discretize"),
    ("coevo_curriculum.evolution", "knn_estimate", "fitness.knn_estimate"),
    ("coevo_curriculum.evolution", "crossover_step", "evolution.crossover_step"),
    ("coevo_curriculum.fitness", "FitnessParams.evaluate", "fitness.evaluate"),
)

RUN_SPAN = "harness.run"
SETUP_SPAN = "bench.setup"


def _counted(name: str, result: Any, args: tuple) -> tuple[str, float]:
    """Work counts taken at the same boundary as the span."""
    if name == "trainer.clone":
        return "trainer.clone_bytes", float(args[0].q.nbytes)
    if name == "harness.write_snapshot":
        return "harness.snapshot_bytes", float(os.path.getsize(args[0]))
    return "evolution.zero_steps", float(result == 0.0)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()  # (count name, run id) -> total
        self.run_id = 0
        self._stack = [-1]
        self._patched: list[tuple[Any, str, Any]] = []
        self.absent: list[str] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        index = len(self.span_name)
        self.span_name.append(nid)
        self.parent.append(self._stack[-1])
        self.run.append(self.run_id)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._stack.pop()

    def span(self, name: str) -> "_Span":
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, self.name_id(name))

    def wrap(self, fn: Callable, name: str) -> Callable:
        nid = self.name_id(name)
        open_, close, counts = self._open, self._close, self.counts
        counted = name in ("trainer.clone", "harness.write_snapshot", "evolution.crossover_step")

        def traced(*args, **kwargs):
            index = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(index)
            if counted:
                key, value = _counted(name, result, args)
                counts[key, self.run_id] += value
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, targets=TARGETS) -> None:
        """Patch every target that exists; record the missing ones as absent."""
        for module_name, path, name in targets:
            try:
                owner: Any = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(name)
                continue
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def save(self, path: str) -> None:
        import numpy as np

        np.savez(path, names=np.array(self.names), span_name=np.frombuffer(self.span_name, "i4"),
                 parent=np.frombuffer(self.parent, "i4"), run=np.frombuffer(self.run, "i4"),
                 start=np.frombuffer(self.start, "f8"), end=np.frombuffer(self.end, "f8"))


class _Span:
    def __init__(self, tracer: Tracer, nid: int):
        self.tracer = tracer
        self.nid = nid
        self.index = -1

    def __enter__(self) -> "_Span":
        self.index = self.tracer._open(self.nid)
        return self

    def __exit__(self, *exc) -> None:
        self.tracer._close(self.index)


class SpanTable:
    """Read-side view of a tracer's spans with durations and self times."""

    def __init__(self, tracer: Tracer):
        import numpy as np

        self.np = np
        self.names = tracer.names
        self.absent = set(tracer.absent)
        self.name = np.frombuffer(tracer.span_name, "i4").copy()
        self.parent = np.frombuffer(tracer.parent, "i4").copy()
        self.run = np.frombuffer(tracer.run, "i4").copy()
        self.dur = np.frombuffer(tracer.end, "f8") - np.frombuffer(tracer.start, "f8")
        self.counts = tracer.counts

    def count(self, key: str, runs) -> float:
        return float(sum(self.counts[key, run] for run in runs))

    def _mask(self, name: str, runs) -> Any:
        if name not in self.names:
            return self.np.zeros(len(self.name), dtype=bool)
        return (self.name == self.names.index(name)) & self.np.isin(self.run, list(runs))

    def seconds(self, name: str, runs) -> float:
        return float(self.dur[self._mask(name, runs)].sum())

    def calls(self, name: str, runs) -> int:
        return int(self._mask(name, runs).sum())

    def self_seconds(self, name: str, runs, children: tuple[str, ...] | None = None) -> float:
        """Duration of ``name`` spans minus their direct children (only ``children`` if given)."""
        np = self.np
        mask = self._mask(name, runs)
        child = self.parent >= 0
        child &= mask[np.where(child, self.parent, 0)]
        if children is not None:
            child &= np.isin(self.name, [self.names.index(c) for c in children if c in self.names])
        return float(self.dur[mask].sum() - self.dur[child].sum())
