"""Curriculum population lifecycle: init, pairing, crossover, mutation, selection."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import compress, cycle, islice

import numpy as np

from .fitness import PrototypeSet, knn_estimate
from .tasks import BLOCK_SIZE, TaskDomain, TaskGenome

ORIGIN_INIT = "init"
ORIGIN_CROSS = "cross"
ORIGIN_MUTATE = "mutate"
# Every origin a record can have; a snapshot stores each record's as its index here.
ORIGINS = (ORIGIN_INIT, ORIGIN_CROSS, ORIGIN_MUTATE)

# Share of each active genome's remaining gap to the target that one epoch
# closes at full batch success (see advance_toward).
GROWTH = 0.25


@dataclass(eq=False)
class TaskRecord:
    """One task with its latest measurement.

    ``r`` is non-None only while the record holds a success rate measured in
    the current epoch; ``f`` is then fitness(r), otherwise a nearest-prototype
    estimate (or None before the first assignment).
    """

    genome: TaskGenome
    r: float | None = None
    f: float | None = None
    epoch_born: int = 0
    origin: str = ORIGIN_INIT

    def clone(self) -> "TaskRecord":
        """Unmeasured copy: the measurement belongs to the epoch it was taken in."""
        return TaskRecord(self.genome, None, self.f, self.epoch_born, self.origin)


@dataclass
class Population:
    """Active generation plus an archive of every earlier record, by generation."""

    active: list[TaskRecord]
    archive: dict[int, list[TaskRecord]] = field(default_factory=dict)
    epoch: int = 0

    def archived_records(self) -> list[TaskRecord]:
        """Archive pooled across generations, in stable (generation, insertion) order."""
        pooled: list[TaskRecord] = []
        for epoch in sorted(self.archive):
            pooled.extend(self.archive[epoch])
        return pooled


@dataclass(frozen=True)
class EvolutionParams:
    population_size: int = 64
    batch_size: int = 16
    new_fraction: float = 0.7
    knn_k: int = 4
    mutation_scale: float = 0.15
    deletion_band: tuple[float, float] = (0.02, 0.98)
    adaptive_mutation: bool = True

    def __post_init__(self) -> None:
        if self.population_size < 2 or self.population_size % 2:
            raise ValueError("population size must be even and at least 2")
        if not 1 <= self.batch_size <= self.population_size:
            raise ValueError("batch size must lie in [1, population_size]")
        if not 0.0 <= self.new_fraction <= 1.0:
            raise ValueError("new fraction must lie in [0, 1]")
        if not 1 <= self.knn_k <= self.batch_size:
            raise ValueError("knn_k must lie in [1, batch_size]")
        if self.mutation_scale < 0.0:
            raise ValueError("mutation scale cannot be negative")
        low, high = self.deletion_band
        if not 0.0 <= low < high <= 1.0:
            raise ValueError("deletion band must satisfy 0 <= low < high <= 1")


def init_population(domain: TaskDomain, population_size: int,
                    rng: np.random.Generator) -> Population:
    """Fresh generation of near-trivial tasks.

    Starts are uniform over the unit square; each goal is uniform inside the
    disk of radius ``domain.distance_threshold`` around its start, clamped to
    the box.  Clamping projects onto a convex set containing the start, so
    the mean start-goal distance stays strictly below the threshold.
    """
    if population_size < 2 or population_size % 2:
        raise ValueError("population size must be even and at least 2")
    # Per agent, genome by genome: start x, start y, then the uniforms of radius and angle.
    uniforms = rng.random((population_size, domain.n_agents, BLOCK_SIZE))
    starts = uniforms[..., :2]
    radius = domain.distance_threshold * np.sqrt(uniforms[..., 2:3])
    # math's cos and sin, angle by angle: numpy's may differ in the last bit between CPUs.
    angles = (2.0 * math.pi * uniforms[..., 3]).ravel().tolist()
    unit = np.array([(math.cos(angle), math.sin(angle)) for angle in angles])
    goals = starts + radius * unit.reshape(starts.shape)
    blocks = np.clip(np.concatenate([starts, goals], axis=-1), 0.0, 1.0)
    return Population(active=[TaskRecord(genome, epoch_born=0, origin=ORIGIN_INIT)
                              for genome in TaskGenome.batch(blocks, owned=True)])


def pair_generation(records: list[TaskRecord],
                    rng: np.random.Generator) -> list[tuple[TaskRecord, TaskRecord]]:
    """Shuffle and split into halves; pair i-th of each half."""
    if len(records) % 2:
        raise ValueError("cannot pair an odd number of records")
    order = rng.permutation(len(records))
    shuffled = [records[int(i)] for i in order]
    half = len(shuffled) // 2
    return list(zip(shuffled[:half], shuffled[half:]))


def crossover_step(fitness_a: float, fitness_b: float, f_min: float, f_max: float) -> float:
    """|fa - fb| / (f_max - f_min); zero when the generation's fitness range collapses."""
    if f_max == f_min:
        return 0.0
    return abs(fitness_a - fitness_b) / (f_max - f_min)


def sample_direction(task_a: TaskGenome, task_b: TaskGenome,
                     rng: np.random.Generator) -> np.ndarray:
    """Per-agent direction blocks: a fair coin per agent picks zero or (a - b)."""
    if task_a.n_agents != task_b.n_agents:
        raise ValueError("parents must have the same number of agents")
    direction = np.zeros((task_a.n_agents, BLOCK_SIZE), dtype=float)
    for j in range(task_a.n_agents):
        if rng.random() >= 0.5:
            direction[j] = task_a.blocks[j] - task_b.blocks[j]
    return direction


def _shift(genome: TaskGenome, step: float, direction: np.ndarray) -> TaskGenome:
    # Copy the parent and touch only agents with a live direction, so gated-off
    # blocks stay bit-identical.
    blocks = genome.blocks.copy()
    if step != 0.0:
        moved = np.any(direction != 0.0, axis=1)
        if moved.any():
            blocks[moved] = np.clip(blocks[moved] + step * direction[moved], 0.0, 1.0)
    return TaskGenome.adopt(blocks)


def crossover(pair: tuple[TaskRecord, TaskRecord], f_min: float, f_max: float,
              rng: np.random.Generator) -> tuple[TaskGenome, TaskGenome]:
    """Two children shifted by the same step * direction, clamped into the box."""
    rec_a, rec_b = pair
    if rec_a.f is None or rec_b.f is None:
        raise ValueError("crossover requires assigned fitness on both parents")
    step = crossover_step(rec_a.f, rec_b.f, f_min, f_max)
    direction = sample_direction(rec_a.genome, rec_b.genome, rng)
    return _shift(rec_a.genome, step, direction), _shift(rec_b.genome, step, direction)


def mutate(pair: tuple[TaskRecord, TaskRecord], f_min: float, f_max: float,
           params: EvolutionParams, rng: np.random.Generator) -> TaskGenome:
    """Perturb the first parent: each agent block gets, with probability 0.5,
    uniform noise from [-scale, scale]^4, then clamps into the box.

    With adaptive mutation the scale follows the pair's crossover step, so a
    collapsed fitness range freezes mutation too.
    """
    rec_a, rec_b = pair
    if rec_a.f is None or rec_b.f is None:
        raise ValueError("mutation requires assigned fitness on both parents")
    if params.adaptive_mutation:
        scale = params.mutation_scale * crossover_step(rec_a.f, rec_b.f, f_min, f_max)
    else:
        scale = params.mutation_scale
    blocks = rec_a.genome.blocks.copy()
    for j in range(blocks.shape[0]):
        if rng.random() >= 0.5:
            delta = rng.uniform(-scale, scale, BLOCK_SIZE)
            blocks[j] = np.clip(blocks[j] + delta, 0.0, 1.0)
    return TaskGenome.adopt(blocks)


def delete_bad_tasks(pop: Population, band: tuple[float, float]) -> None:
    """Retire every active record measured this epoch whose success rate lies
    outside the band (edges inclusive) to the current-epoch archive bucket, in
    active order; unmeasured records stay.  Nothing is discarded.
    """
    low, high = band
    keep = [rec.r is None or low <= rec.r <= high for rec in pop.active]
    if not all(keep):
        pop.archive.setdefault(pop.epoch, []).extend(
            rec for rec, kept in zip(pop.active, keep) if not kept)
        pop.active = list(compress(pop.active, keep))


def assign_population_fitness(active: list[TaskRecord], trained: PrototypeSet, k: int) -> None:
    """Give every unmeasured active record the mean fitness of its k nearest
    trained prototypes; records measured this epoch keep their own fitness."""
    unmeasured = [rec for rec in active if rec.r is None]
    if unmeasured:
        queries = np.stack([rec.genome.blocks for rec in unmeasured]).reshape(len(unmeasured), -1)
        for rec, estimate in zip(unmeasured, knn_estimate(queries, trained, k).tolist()):
            rec.f = estimate


def evolve_generation(pop: Population, params: EvolutionParams,
                      rng: np.random.Generator) -> Population:
    """Produce the next generation and retire the current one to the archive.

    Each pair yields either a crossover child pair (coin > 0.5) or one
    mutation child.  The next generation keeps children first, then fills up to
    population_size with unmeasured copies of the parents, fittest first, then
    of the children, repeating both lists as often as needed.
    """
    active = pop.active
    if not active:
        # Every task left the difficulty band at once.  Rather than dying out,
        # breed from fresh copies of the latest archived generation.
        if not pop.archive:
            raise ValueError("cannot evolve an empty population with an empty archive")
        latest = pop.archive[max(pop.archive)]
        active = [rec.clone() for rec in latest]
    if any(rec.f is None for rec in active):
        raise ValueError("every active record needs fitness before evolving")

    fitness_values = [rec.f for rec in active]
    f_min = min(fitness_values)
    f_max = max(fitness_values)

    # Mid-epoch deletions can leave an odd count; sideline one record from
    # pairing, it stays a refill candidate.
    if len(active) % 2:
        order = rng.permutation(len(active))
        pool = [active[int(i)] for i in order[:-1]]
    else:
        pool = active
    pairs = pair_generation(pool, rng) if len(pool) >= 2 else []

    next_epoch = pop.epoch + 1
    children: list[TaskRecord] = []
    for pair in pairs:
        if rng.random() > 0.5:
            child_a, child_b = crossover(pair, f_min, f_max, rng)
            children.append(TaskRecord(child_a, epoch_born=next_epoch, origin=ORIGIN_CROSS))
            children.append(TaskRecord(child_b, epoch_born=next_epoch, origin=ORIGIN_CROSS))
        else:
            child = mutate(pair, f_min, f_max, params, rng)
            children.append(TaskRecord(child, epoch_born=next_epoch, origin=ORIGIN_MUTATE))

    next_active = children[:params.population_size]
    ranked = sorted(active, key=lambda rec: -rec.f)
    refill = islice(cycle(ranked + children), params.population_size - len(next_active))
    next_active.extend(rec.clone() for rec in refill)

    archive = dict(pop.archive)
    bucket = list(archive.get(pop.epoch, []))
    # pop.active, not the breeding stock: rebreeding clones never started life
    # as real generation members, their originals are archived already.
    bucket.extend(pop.active)
    archive[pop.epoch] = bucket
    return Population(active=next_active, archive=archive, epoch=next_epoch)


def advance_toward(pop: Population, target: TaskGenome, success: float) -> Population:
    """Move every active genome toward ``target`` by ``GROWTH * success`` of its gap.

    ``success`` is the batch's mean measured success rate, so the frontier
    advances only as fast as the team masters it and holds still at 0.  Each
    move is a convex combination of two points in the box, so genomes stay
    in the domain.  Records keep their measurement, origin and birth epoch;
    the archive is shared as it is.
    """
    if not 0.0 <= success <= 1.0:
        raise ValueError("success must lie in [0, 1]")
    if not pop.active:
        return pop
    blocks = np.stack([rec.genome.blocks for rec in pop.active])  # (m, n_agents, 4)
    if blocks.shape[1] != target.n_agents:
        raise ValueError("target must have the population's agent count")
    step = GROWTH * success
    if step == 0.0:
        return pop
    moved = TaskGenome.batch(blocks + step * (target.blocks - blocks), owned=True)
    active = [TaskRecord(genome, rec.r, rec.f, rec.epoch_born, rec.origin)
              for genome, rec in zip(moved, pop.active)]
    return Population(active=active, archive=pop.archive, epoch=pop.epoch)


def soft_select(pop: Population, params: EvolutionParams,
                rng: np.random.Generator) -> list[TaskRecord]:
    """Training batch: round(batch_size * new_fraction) tasks sampled uniformly
    from the active generation, the rest uniformly from the pooled archive.

    Archive shortfall (including the first epoch's empty archive) is covered
    from the active generation.
    """
    if not pop.active:
        raise ValueError("cannot select from an empty population")
    if params.batch_size > len(pop.active):
        raise ValueError("batch size exceeds the active generation")
    n_new = int(round(params.batch_size * params.new_fraction))
    n_old = params.batch_size - n_new
    old_pool = pop.archived_records()
    if len(old_pool) < n_old:
        n_old = len(old_pool)
        n_new = params.batch_size - n_old
    batch: list[TaskRecord] = []
    new_indices = rng.choice(len(pop.active), size=n_new, replace=False)
    batch.extend(pop.active[int(i)] for i in new_indices)
    if n_old:
        old_indices = rng.choice(len(old_pool), size=n_old, replace=False)
        batch.extend(old_pool[int(i)] for i in old_indices)
    return batch
