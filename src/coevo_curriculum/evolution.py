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
_ORIGIN_CODES = {origin: code for code, origin in enumerate(ORIGINS)}

# Share of each active genome's remaining gap to the target that one epoch
# closes at full batch success (see advance_toward).
GROWTH = 0.25


@dataclass(eq=False, slots=True)
class TaskRecord:
    """One task with its measurement of the current epoch.

    ``r`` is non-None only while the record holds a success rate measured in
    the current epoch; ``f`` is then fitness(r), otherwise the epoch's
    nearest-prototype estimate, or None before the epoch assigns one.
    """

    genome: TaskGenome
    r: float | None = None
    f: float | None = None
    epoch_born: int = 0
    origin: str = ORIGIN_INIT

    def clone(self) -> "TaskRecord":
        """Copy with no ``r`` and no ``f``: a measurement belongs to the epoch it was taken in."""
        return TaskRecord(self.genome, epoch_born=self.epoch_born, origin=self.origin)


@dataclass(eq=False, slots=True)
class Generation:
    """A closed generation as the columns of its archive line (see ``snapshots``), so that
    no object stands for an archived record until one is asked for.

    ``genome`` holds each distinct genome once, ``(rows, n_agents, 4)``, in order of first
    use, and ``genome_row`` each record's row in it; ``r``, ``f`` (NaN where the record holds
    None, never for ``f`` once archived: every archived record is measured), ``epoch_born``
    and ``origin`` (an index into ``ORIGINS``) hold one value per record.
    """

    genome: np.ndarray
    genome_row: np.ndarray
    r: np.ndarray
    f: np.ndarray
    epoch_born: np.ndarray
    origin: np.ndarray
    handed: dict[int, TaskRecord] = field(default_factory=dict, repr=False)

    @classmethod
    def of(cls, records: list[TaskRecord]) -> "Generation":
        """The columns of ``records``, their genomes compared on their bits, so that refill
        clones and zero-step children take their parent's row."""
        rows: dict[bytes, int] = {}
        genome_row = [rows.setdefault(rec.genome.blocks.tobytes(), len(rows)) for rec in records]
        shape = (len(rows),) + (records[0].genome.blocks.shape if records else (0, BLOCK_SIZE))
        measured = {}
        for name in ("r", "f"):
            values = [getattr(rec, name) for rec in records]
            measured[name] = np.array(values, dtype=float)  # None gives NaN
            if np.count_nonzero(np.isnan(measured[name])) != values.count(None):
                raise ValueError(f"a record's {name} is NaN; a measurement is a number or None")
        return cls(np.frombuffer(b"".join(rows), dtype=float).reshape(shape),
                   np.array(genome_row, dtype=np.uint32), **measured,
                   epoch_born=np.array([rec.epoch_born for rec in records], dtype=np.int64),
                   origin=np.array([_ORIGIN_CODES[rec.origin] for rec in records],
                                   dtype=np.uint8))

    def __len__(self) -> int:
        return self.genome_row.size

    def record(self, i: int) -> TaskRecord:
        """Record ``i``, built the first time it is asked for and kept, so that every call
        gives the same object; it holds the values of the generation's line."""
        if i not in self.handed:
            self.handed[i] = self._build(i)
        return self.handed[i]

    def records(self) -> list[TaskRecord]:
        """Every record, in order: those ``record`` handed out, the others built and not kept."""
        return [self.handed[i] if i in self.handed else self._build(i) for i in range(len(self))]

    def retired(self, band: tuple[float, float]) -> np.ndarray:
        """The records ``delete_bad_tasks`` takes out under ``band``: those measured outside it."""
        low, high = band
        return (self.r < low) | (self.r > high)

    def _build(self, i: int) -> TaskRecord:
        r, f = (None if math.isnan(value) else value for value in (self.r.item(i), self.f.item(i)))
        return TaskRecord(TaskGenome(self.genome[self.genome_row[i]]), r, f,
                          int(self.epoch_born[i]), ORIGINS[self.origin[i]])


@dataclass
class Population:
    """Active generation plus an archive of every earlier one, by the epoch it closed in.

    ``retired`` holds the records ``delete_bad_tasks`` took out of the active generation;
    ``evolve_generation`` archives them ahead of the rest when the generation closes.
    """

    active: list[TaskRecord]
    archive: dict[int, Generation] = field(default_factory=dict)
    epoch: int = 0
    retired: list[TaskRecord] = field(default_factory=list)

    def archived_records(self) -> list[TaskRecord]:
        """Archive pooled across generations, in stable (generation, insertion) order, each
        generation's as its ``records`` gives them."""
        return [rec for epoch in sorted(self.archive) for rec in self.archive[epoch].records()]


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
        if not 0.0 <= self.mutation_scale < math.inf:
            raise ValueError("mutation scale must be finite and non-negative")
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
                              for genome in TaskGenome.batch(blocks)])


def pair_generation(records: list[TaskRecord],
                    rng: np.random.Generator) -> list[tuple[TaskRecord, TaskRecord]]:
    """Shuffle and split into halves; pair i-th of each half."""
    if len(records) % 2:
        raise ValueError("cannot pair an odd number of records")
    order = rng.permutation(len(records))
    shuffled = [records[i] for i in order.tolist()]
    half = len(shuffled) // 2
    return list(zip(shuffled[:half], shuffled[half:]))


def crossover_step(fitness_a: float, fitness_b: float, f_min: float, f_max: float) -> float:
    """|fa - fb| / (f_max - f_min); zero when the generation's fitness range collapses."""
    if f_max == f_min:
        return 0.0
    return abs(fitness_a - fitness_b) / (f_max - f_min)


def _draw_gates(gates: np.ndarray, rng: np.random.Generator) -> None:
    """Crossover's per-agent coins into ``gates``, agent by agent: on at or above 0.5."""
    for j in range(gates.shape[0]):
        gates[j] = rng.random() >= 0.5


def _draw_noise(gates: np.ndarray, noise: np.ndarray, scale: float,
                rng: np.random.Generator) -> None:
    """Mutation's draws into ``gates`` and ``noise``, agent by agent: a coin, on at or above
    0.5, then, when on, uniform noise from [-scale, scale]^4."""
    for j in range(gates.shape[0]):
        if rng.random() >= 0.5:
            gates[j] = True
            noise[j] = rng.uniform(-scale, scale, BLOCK_SIZE)


def _mutation_scale(pair: tuple[TaskRecord, TaskRecord], f_min: float, f_max: float,
                    params: EvolutionParams) -> float:
    if params.adaptive_mutation:
        rec_a, rec_b = pair
        return params.mutation_scale * crossover_step(rec_a.f, rec_b.f, f_min, f_max)
    return params.mutation_scale


def _children(parents: np.ndarray, crossed: np.ndarray, steps: np.ndarray,
              gates: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """The children's blocks of P pairs, in pair order, from their parents stacked as
    ``(2P, n_agents, 4)`` (a0, b0, a1, ...) and each pair's draws: a crossover pair
    (``crossed``) gives both parents shifted by ``step * (a - b)``, a mutation pair its
    first parent plus its ``noise``.

    A crossover block moves where its gate is on, along a non-zero direction and at a
    non-zero step; a mutation block wherever its gate is on. A moved block is clipped
    into the box; every other keeps its bits, -0.0 included.
    """
    differences = parents[0::2] - parents[1::2]
    delta = np.where(crossed[:, None, None], steps[:, None, None] * differences, noise)
    along = np.any(differences != 0.0, axis=2) & (steps != 0.0)[:, None]
    moves = gates & (along | ~crossed[:, None])
    # Every pair's first parent, then its second when it crossed.
    rows = np.flatnonzero(np.column_stack([np.ones_like(crossed), crossed]))
    blocks, of_pair = parents[rows], rows // 2
    return np.where(moves[of_pair, :, None], np.clip(blocks + delta[of_pair], 0.0, 1.0), blocks)


def sample_direction(task_a: TaskGenome, task_b: TaskGenome,
                     rng: np.random.Generator) -> np.ndarray:
    """Per-agent direction blocks: a fair coin per agent picks zero or (a - b)."""
    if task_a.n_agents != task_b.n_agents:
        raise ValueError("parents must have the same number of agents")
    gates = np.zeros(task_a.n_agents, dtype=bool)
    _draw_gates(gates, rng)
    direction = np.zeros((task_a.n_agents, BLOCK_SIZE), dtype=float)
    direction[gates] = task_a.blocks[gates] - task_b.blocks[gates]
    return direction


def crossover(pair: tuple[TaskRecord, TaskRecord], f_min: float, f_max: float,
              rng: np.random.Generator) -> tuple[TaskGenome, TaskGenome]:
    """Two children shifted by the same step * direction, clamped into the box."""
    rec_a, rec_b = pair
    if rec_a.f is None or rec_b.f is None:
        raise ValueError("crossover requires assigned fitness on both parents")
    step = crossover_step(rec_a.f, rec_b.f, f_min, f_max)
    parents = np.stack([rec_a.genome.blocks, rec_b.genome.blocks])
    gates = np.zeros((1, parents.shape[1]), dtype=bool)
    _draw_gates(gates[0], rng)
    children = _children(parents, np.ones(1, dtype=bool), np.array([step]), gates,
                         np.zeros((1,) + parents.shape[1:]))
    child_a, child_b = TaskGenome.batch(children)
    return child_a, child_b


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
    scale = _mutation_scale(pair, f_min, f_max, params)
    parents = np.stack([rec_a.genome.blocks, rec_b.genome.blocks])
    gates = np.zeros((1, parents.shape[1]), dtype=bool)
    noise = np.zeros((1,) + parents.shape[1:])
    _draw_noise(gates[0], noise[0], scale, rng)
    child, = TaskGenome.batch(_children(parents, np.zeros(1, dtype=bool), np.zeros(1), gates,
                                        noise))
    return child


def delete_bad_tasks(pop: Population, band: tuple[float, float]) -> None:
    """Retire every active record measured this epoch whose success rate lies
    outside the band (edges inclusive) to ``pop.retired``, in active order;
    unmeasured records stay.  Nothing is discarded: the generation's archive
    line holds them when it closes.
    """
    low, high = band
    keep = [rec.r is None or low <= rec.r <= high for rec in pop.active]
    if not all(keep):
        pop.retired.extend(rec for rec, kept in zip(pop.active, keep) if not kept)
        pop.active = list(compress(pop.active, keep))


def assign_population_fitness(active: list[TaskRecord], trained: PrototypeSet, k: int) -> None:
    """Give every unmeasured active record the mean fitness of its k nearest
    trained prototypes; records measured this epoch keep their own fitness."""
    unmeasured = [rec for rec in active if rec.r is None]
    if unmeasured:
        queries = np.array([rec.genome.blocks for rec in unmeasured]).reshape(len(unmeasured), -1)
        for rec, estimate in zip(unmeasured, knn_estimate(queries, trained, k).tolist()):
            rec.f = estimate


def _breed(pairs: list[tuple[TaskRecord, TaskRecord]], f_min: float, f_max: float,
           params: EvolutionParams, rng: np.random.Generator,
           epoch_born: int) -> list[TaskRecord]:
    """The children of every pair, in pair order: two from a crossover pair (coin > 0.5),
    one from a mutation pair.

    The draws are ``crossover``'s and ``mutate``'s, pair by pair in the same order; the
    children are then built in one ``_children`` pass over the stacked parents, as those
    two build theirs, and checked in one ``TaskGenome.batch``.
    """
    # a0, b0, a1, ...; np.array copies a list of equal-shaped arrays in one C pass, np.stack
    # goes through it array by array.
    parents = np.array([rec.genome.blocks for pair in pairs for rec in pair])
    n_pairs, n_agents = len(pairs), parents.shape[1]
    crossed = np.zeros(n_pairs, dtype=bool)
    steps = np.zeros(n_pairs)
    gates = np.zeros((n_pairs, n_agents), dtype=bool)
    noise = np.zeros((n_pairs, n_agents, BLOCK_SIZE))
    for i, pair in enumerate(pairs):
        if rng.random() > 0.5:
            crossed[i] = True
            steps[i] = crossover_step(pair[0].f, pair[1].f, f_min, f_max)
            _draw_gates(gates[i], rng)
        else:
            _draw_noise(gates[i], noise[i], _mutation_scale(pair, f_min, f_max, params), rng)

    blocks = _children(parents, crossed, steps, gates, noise)
    origins = [origin for c in crossed.tolist()
               for origin in ((ORIGIN_CROSS, ORIGIN_CROSS) if c else (ORIGIN_MUTATE,))]
    return [TaskRecord(genome, epoch_born=epoch_born, origin=origin)
            for genome, origin in zip(TaskGenome.batch(blocks), origins)]


def evolve_generation(pop: Population, params: EvolutionParams,
                      rng: np.random.Generator) -> Population:
    """Produce the next generation and close the current one into the archive: its
    retired records, then its active ones, as one ``Generation``.

    Each pair yields either a crossover child pair (coin > 0.5) or one
    mutation child.  The next generation keeps children first, then fills up to
    population_size with copies (no ``r``, no ``f``) of the parents, fittest first, then
    of the children, repeating both lists as often as needed.
    """
    if pop.epoch in pop.archive:
        raise ValueError(f"generation {pop.epoch} is archived already")
    # When every task left the difficulty band at once, breed from the retired records
    # rather than die out; breeding only reads them, and they are archived as they are.
    active = pop.active or pop.retired
    if not active:
        raise ValueError("cannot evolve an empty generation with no retired records")
    if any(rec.f is None for rec in active):
        raise ValueError("every active record needs fitness before evolving")

    fitness_values = [rec.f for rec in active]
    f_min = min(fitness_values)
    f_max = max(fitness_values)

    # Mid-epoch deletions can leave an odd count; sideline one record from
    # pairing, it stays a refill candidate.
    if len(active) % 2:
        order = rng.permutation(len(active))
        pool = [active[i] for i in order[:-1].tolist()]
    else:
        pool = active
    pairs = pair_generation(pool, rng) if len(pool) >= 2 else []

    next_epoch = pop.epoch + 1
    children = _breed(pairs, f_min, f_max, params, rng, next_epoch) if pairs else []

    next_active = children[:params.population_size]
    ranked = sorted(active, key=lambda rec: -rec.f)
    refill = islice(cycle(ranked + children), params.population_size - len(next_active))
    next_active.extend(rec.clone() for rec in refill)

    archive = pop.archive | {pop.epoch: Generation.of(pop.retired + pop.active)}
    return Population(active=next_active, archive=archive, epoch=next_epoch)


def advance_toward(pop: Population, target: TaskGenome, success: float) -> Population:
    """Move every active genome toward ``target`` by ``GROWTH * success`` of its gap.

    ``success`` is the batch's mean measured success rate, so the frontier
    advances only as fast as the team masters it and holds still at 0.  Each
    move is a convex combination of two points in the box, so genomes stay
    in the domain.  Records keep their measurement, origin and birth epoch;
    the archive and the retired records are shared as they are.
    """
    if not 0.0 <= success <= 1.0:
        raise ValueError("success must lie in [0, 1]")
    if not pop.active:
        return pop
    blocks = np.array([rec.genome.blocks for rec in pop.active])  # (m, n_agents, 4)
    if blocks.shape[1] != target.n_agents:
        raise ValueError("target must have the population's agent count")
    step = GROWTH * success
    if step == 0.0:
        return pop
    moved = TaskGenome.batch(blocks + step * (target.blocks - blocks))
    active = [TaskRecord(genome, rec.r, rec.f, rec.epoch_born, rec.origin)
              for genome, rec in zip(moved, pop.active)]
    return Population(active=active, archive=pop.archive, epoch=pop.epoch, retired=pop.retired)


def soft_select(pop: Population, params: EvolutionParams,
                rng: np.random.Generator) -> list[TaskRecord]:
    """Training batch: round(batch_size * new_fraction) tasks sampled uniformly
    from the active generation, the rest uniformly from the pooled archive.

    Archive shortfall (including the first epoch's empty archive) is covered
    from the active generation.  The archive is pooled in (epoch, position)
    order by index alone: an old pick's record comes from its generation's
    ``record``, and no other archived record is built.
    """
    if not pop.active:
        raise ValueError("cannot select from an empty population")
    if params.batch_size > len(pop.active):
        raise ValueError("batch size exceeds the active generation")
    n_new = int(round(params.batch_size * params.new_fraction))
    n_old = params.batch_size - n_new
    generations = [pop.archive[epoch] for epoch in sorted(pop.archive)]
    sizes = np.array([len(generation) for generation in generations], dtype=np.int64)
    ends = np.cumsum(sizes)
    pooled = int(sizes.sum())
    if pooled < n_old:
        n_old = pooled
        n_new = params.batch_size - n_old
    batch: list[TaskRecord] = []
    new_indices = rng.choice(len(pop.active), size=n_new, replace=False)
    batch.extend(pop.active[int(i)] for i in new_indices)
    if n_old:
        old_indices = rng.choice(pooled, size=n_old, replace=False)
        # The generation of each pick: the first whose end lies past it.
        which = np.searchsorted(ends, old_indices, side="right")
        starts = ends - sizes
        batch.extend(generations[g].record(int(i - starts[g]))
                     for g, i in zip(which.tolist(), old_indices.tolist()))
    return batch
