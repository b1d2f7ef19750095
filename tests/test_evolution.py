"""Population lifecycle: init constraint, crossover algebra, selection, archives."""

import copy
import gc
import math
import tracemalloc

import numpy as np
import pytest

from coevo_curriculum.evolution import (GROWTH, EvolutionParams, Generation, Population,
                                        TaskRecord, advance_toward, assign_population_fitness,
                                        crossover, crossover_step, delete_bad_tasks,
                                        evolve_generation, init_population, mutate,
                                        pair_generation, sample_direction, soft_select)
from coevo_curriculum import evolution
from coevo_curriculum.fitness import FitnessParams, PrototypeSet, knn_estimate
from coevo_curriculum.tasks import (BLOCK_SIZE, DEFAULT_DISTANCE_THRESHOLD, TaskDomain,
                                    TaskGenome, UNIT_DIAMETER, opposite_corner_target,
                                    start_goal_distance)

PARAMS = EvolutionParams(population_size=8, batch_size=4, knn_k=2)


class ScriptedRng:
    """Duck-typed generator whose uniform draws follow a fixed script."""

    def __init__(self, randoms=(), uniforms=()):
        self._randoms = list(randoms)
        self._uniforms = list(uniforms)

    def random(self, size=None):
        assert size is None
        return self._randoms.pop(0)

    def uniform(self, low, high, size=None):
        if self._uniforms:
            return np.asarray(self._uniforms.pop(0), dtype=float)
        mid = (low + high) / 2.0
        return np.full(size, mid) if size is not None else mid


def _record(blocks, f=None, r=None, epoch_born=0):
    return TaskRecord(TaskGenome(np.array(blocks, dtype=float)), r=r, f=f,
                      epoch_born=epoch_born)


def _values(records):
    """What an archive line holds of each record, in order."""
    return [(rec.genome.blocks.tobytes(), rec.r, rec.f, rec.epoch_born, rec.origin)
            for rec in records]


def _uniform_population(n, rng, f=0.3):
    records = []
    for _ in range(n):
        records.append(_record(rng.random((2, BLOCK_SIZE)), f=f))
    return Population(active=records)


# ---------------------------------------------------------------- init

def test_init_population_respects_distance_threshold():
    domain = TaskDomain(n_agents=2, grid_width=12)
    rng = np.random.default_rng(101)
    for _ in range(200):
        pop = init_population(domain, 16, rng)
        mean = np.mean([start_goal_distance(rec.genome) for rec in pop.active])
        assert mean < domain.distance_threshold
        for rec in pop.active:
            assert rec.genome.in_domain
            assert rec.origin == "init"
            assert rec.epoch_born == 0
            assert rec.r is None and rec.f is None
    assert pop.epoch == 0
    assert pop.archive == {}
    assert len(pop.active) == 16


def test_init_population_is_deterministic_per_seed():
    domain = TaskDomain(n_agents=2, grid_width=12)
    pops = [init_population(domain, 8, np.random.default_rng(5)) for _ in range(2)]
    for a, b in zip(pops[0].active, pops[1].active):
        assert np.array_equal(a.genome.blocks, b.genome.blocks)


def test_init_population_limit_threshold_spans_the_box():
    # with the threshold at the full diagonal the goals roam the whole square
    domain = TaskDomain(n_agents=1, grid_width=12, distance_threshold=UNIT_DIAMETER)
    pop = init_population(domain, 200, np.random.default_rng(6))
    distances = [start_goal_distance(rec.genome) for rec in pop.active]
    assert max(distances) > 0.5 * UNIT_DIAMETER
    assert all(rec.genome.in_domain for rec in pop.active)


def _reference_init_blocks(domain, population_size, rng):
    """init_population's generation drawn agent by agent, each genome clamped into the box
    only if it left it; returns the (population_size, n_agents, 4) blocks and the number of
    genomes clamped."""
    population = np.empty((population_size, domain.n_agents, BLOCK_SIZE))
    clamped = 0
    for blocks in population:
        for j in range(domain.n_agents):
            start = rng.random(2)
            radius = domain.distance_threshold * math.sqrt(rng.random())
            angle = 2.0 * math.pi * rng.random()
            goal = start + radius * np.array([math.cos(angle), math.sin(angle)])
            blocks[j, :2] = start
            blocks[j, 2:] = goal
        if not ((blocks >= 0.0) & (blocks <= 1.0)).all():
            blocks[:] = np.clip(blocks, 0.0, 1.0)
            clamped += 1
    return population, clamped


@pytest.mark.parametrize("n_agents", [1, 2, 3, 4])
@pytest.mark.parametrize("threshold", [DEFAULT_DISTANCE_THRESHOLD, 0.3, 0.5, 1.2])
def test_init_population_matches_the_per_agent_loop_bit_for_bit(n_agents, threshold):
    domain = TaskDomain(n_agents=n_agents, grid_width=12, distance_threshold=threshold)
    clamped = 0
    for seed in range(20):
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        pop = init_population(domain, 6, rng)
        expected, count = _reference_init_blocks(domain, 6, reference_rng)
        assert [rec.genome.blocks.tobytes() for rec in pop.active] == [
            blocks.tobytes() for blocks in expected]
        # Exactly population_size * n_agents * 4 uniforms were consumed.
        assert rng.random() == reference_rng.random()
        clamped += count
    assert clamped > 0  # every case exercises the clamp


def test_init_population_size_validation():
    domain = TaskDomain(n_agents=1, grid_width=5)
    rng = np.random.default_rng(7)
    with pytest.raises(ValueError):
        init_population(domain, 7, rng)
    with pytest.raises(ValueError):
        init_population(domain, 0, rng)


# ---------------------------------------------------------------- pairing

def test_pair_generation_covers_population_disjointly():
    rng = np.random.default_rng(102)
    records = [_record(rng.random((1, BLOCK_SIZE)), f=0.1) for _ in range(10)]
    pairs = pair_generation(records, np.random.default_rng(0))
    assert len(pairs) == 5
    seen = {id(rec) for pair in pairs for rec in pair}
    assert seen == {id(rec) for rec in records}


def test_pair_generation_is_seed_deterministic():
    rng = np.random.default_rng(103)
    records = [_record(rng.random((1, BLOCK_SIZE)), f=0.1) for _ in range(6)]
    first = pair_generation(records, np.random.default_rng(42))
    second = pair_generation(records, np.random.default_rng(42))
    assert [(id(a), id(b)) for a, b in first] == [(id(a), id(b)) for a, b in second]


def test_pair_generation_rejects_odd_population():
    records = [_record(np.zeros((1, BLOCK_SIZE)), f=0.1) for _ in range(3)]
    with pytest.raises(ValueError):
        pair_generation(records, np.random.default_rng(0))


# ---------------------------------------------------------------- step size

def test_crossover_step_arithmetic():
    assert crossover_step(0.5, 0.3, 0.25, 0.5) == pytest.approx(0.8, abs=1e-15)
    assert crossover_step(0.3, 0.5, 0.25, 0.5) == pytest.approx(0.8, abs=1e-15)
    assert crossover_step(0.4, 0.4, 0.1, 0.9) == 0.0


def test_crossover_step_degenerate_range_is_zero():
    assert crossover_step(0.2, 0.2, 0.2, 0.2) == 0.0


def test_crossover_step_stays_in_unit_interval():
    rng = np.random.default_rng(104)
    for _ in range(500):
        f_min, f_max = sorted(rng.random(2))
        fa, fb = rng.uniform(f_min, f_max, 2)
        step = crossover_step(fa, fb, f_min, f_max)
        assert 0.0 <= step <= 1.0


# ---------------------------------------------------------------- direction

def test_sample_direction_blocks_are_zero_or_difference():
    rng = np.random.default_rng(105)
    for _ in range(100):
        a = TaskGenome(rng.random((3, BLOCK_SIZE)))
        b = TaskGenome(rng.random((3, BLOCK_SIZE)))
        direction = sample_direction(a, b, np.random.default_rng(int(rng.integers(1 << 30))))
        for j in range(3):
            diff = a.blocks[j] - b.blocks[j]
            assert np.array_equal(direction[j], diff) or not direction[j].any()


def test_sample_direction_gate_orientation():
    a = TaskGenome(np.array([[0.9, 0.9, 0.9, 0.9], [0.8, 0.8, 0.8, 0.8]]))
    b = TaskGenome(np.array([[0.1, 0.1, 0.1, 0.1], [0.2, 0.2, 0.2, 0.2]]))
    # draw below 0.5 gates an agent off, at or above 0.5 gates it on
    direction = sample_direction(a, b, ScriptedRng(randoms=[0.49, 0.5]))
    assert not direction[0].any()
    assert np.allclose(direction[1], 0.6)


def test_sample_direction_identical_parents_give_zero():
    blocks = np.random.default_rng(106).random((2, BLOCK_SIZE))
    a, b = TaskGenome(blocks), TaskGenome(blocks.copy())
    for seed in range(10):
        assert not sample_direction(a, b, np.random.default_rng(seed)).any()


def test_sample_direction_agent_count_mismatch():
    a = TaskGenome(np.zeros((2, BLOCK_SIZE)))
    b = TaskGenome(np.zeros((3, BLOCK_SIZE)))
    with pytest.raises(ValueError):
        sample_direction(a, b, np.random.default_rng(0))


# ---------------------------------------------------------------- crossover

def test_crossover_zero_step_children_equal_parents():
    rng = np.random.default_rng(107)
    rec_a = _record(rng.random((2, BLOCK_SIZE)), f=0.4)
    rec_b = _record(rng.random((2, BLOCK_SIZE)), f=0.4)
    child_a, child_b = crossover((rec_a, rec_b), 0.1, 0.5, np.random.default_rng(3))
    assert np.array_equal(child_a.blocks, rec_a.genome.blocks)
    assert np.array_equal(child_b.blocks, rec_b.genome.blocks)


def test_crossover_identical_parents_children_identical():
    blocks = np.random.default_rng(108).random((2, BLOCK_SIZE))
    rec_a = _record(blocks, f=0.5)
    rec_b = _record(blocks.copy(), f=0.1)
    child_a, child_b = crossover((rec_a, rec_b), 0.1, 0.5, np.random.default_rng(4))
    assert np.array_equal(child_a.blocks, blocks)
    assert np.array_equal(child_b.blocks, blocks)


def test_crossover_gated_agent_shifts_both_children_equally():
    rec_a = _record([[0.6, 0.6, 0.6, 0.6], [0.3, 0.3, 0.3, 0.3]], f=0.5)
    rec_b = _record([[0.2, 0.2, 0.2, 0.2], [0.7, 0.7, 0.7, 0.7]], f=0.25)
    # gate agent 0 on, agent 1 off; step = |0.5 - 0.25| / (0.5 - 0.0) = 0.5
    child_a, child_b = crossover((rec_a, rec_b), 0.0, 0.5, ScriptedRng(randoms=[0.9, 0.1]))
    shift = 0.5 * (0.6 - 0.2)
    assert np.allclose(child_a.blocks[0], 0.6 + shift)
    assert np.allclose(child_b.blocks[0], 0.2 + shift)
    # the gated-off block is bit-identical to each parent
    assert np.array_equal(child_a.blocks[1], rec_a.genome.blocks[1])
    assert np.array_equal(child_b.blocks[1], rec_b.genome.blocks[1])


def test_crossover_children_are_clamped_into_the_box():
    rec_a = _record([[0.9, 0.9, 0.9, 0.9]], f=0.5)
    rec_b = _record([[0.1, 0.1, 0.1, 0.1]], f=0.0)
    # step 1.0, direction (a - b) = 0.8: a-child would leave the box at 1.7
    child_a, child_b = crossover((rec_a, rec_b), 0.0, 0.5, ScriptedRng(randoms=[0.9]))
    assert np.allclose(child_a.blocks, 1.0)
    assert np.allclose(child_b.blocks, 0.9)
    assert child_a.in_domain and child_b.in_domain


def test_crossover_requires_fitness():
    rec_a = _record(np.zeros((1, BLOCK_SIZE)), f=None)
    rec_b = _record(np.zeros((1, BLOCK_SIZE)), f=0.2)
    with pytest.raises(ValueError):
        crossover((rec_a, rec_b), 0.0, 1.0, np.random.default_rng(0))


def test_crossover_closure_on_random_pairs():
    rng = np.random.default_rng(109)
    for _ in range(200):
        rec_a = _record(rng.random((2, BLOCK_SIZE)), f=float(rng.random()))
        rec_b = _record(rng.random((2, BLOCK_SIZE)), f=float(rng.random()))
        lo = min(rec_a.f, rec_b.f) - 0.05
        hi = max(rec_a.f, rec_b.f) + 0.05
        child_a, child_b = crossover((rec_a, rec_b), lo, hi,
                                     np.random.default_rng(int(rng.integers(1 << 30))))
        assert child_a.in_domain and child_b.in_domain


# ---------------------------------------------------------------- mutation

def test_mutate_adaptive_with_equal_fitness_is_identity():
    rng = np.random.default_rng(110)
    blocks = rng.random((2, BLOCK_SIZE))
    rec_a = _record(blocks, f=0.3)
    rec_b = _record(rng.random((2, BLOCK_SIZE)), f=0.3)
    child = mutate((rec_a, rec_b), 0.1, 0.9, PARAMS, np.random.default_rng(11))
    assert np.array_equal(child.blocks, blocks)


def test_mutate_all_gates_off_is_identity():
    rng = np.random.default_rng(111)
    blocks = rng.random((2, BLOCK_SIZE))
    rec_a = _record(blocks, f=0.9)
    rec_b = _record(rng.random((2, BLOCK_SIZE)), f=0.1)
    params = EvolutionParams(population_size=8, batch_size=4, knn_k=2, adaptive_mutation=False)
    child = mutate((rec_a, rec_b), 0.1, 0.9, params, ScriptedRng(randoms=[0.2, 0.4]))
    assert np.array_equal(child.blocks, blocks)


def test_mutate_zero_scale_is_identity():
    rng = np.random.default_rng(112)
    blocks = rng.random((2, BLOCK_SIZE))
    rec_a = _record(blocks, f=0.9)
    rec_b = _record(rng.random((2, BLOCK_SIZE)), f=0.1)
    params = EvolutionParams(population_size=8, batch_size=4, knn_k=2,
                             adaptive_mutation=False, mutation_scale=0.0)
    for seed in range(5):
        child = mutate((rec_a, rec_b), 0.1, 0.9, params, np.random.default_rng(seed))
        assert np.array_equal(child.blocks, blocks)


def test_mutate_stays_within_scale_and_domain():
    rng = np.random.default_rng(113)
    params = EvolutionParams(population_size=8, batch_size=4, knn_k=2,
                             adaptive_mutation=False, mutation_scale=0.15)
    for _ in range(200):
        rec_a = _record(rng.random((2, BLOCK_SIZE)), f=float(rng.random()))
        rec_b = _record(rng.random((2, BLOCK_SIZE)), f=float(rng.random()))
        child = mutate((rec_a, rec_b), 0.0, 1.0, params,
                       np.random.default_rng(int(rng.integers(1 << 30))))
        assert child.in_domain
        assert np.abs(child.blocks - rec_a.genome.blocks).max() <= params.mutation_scale + 1e-12


def test_mutate_perturbs_only_gated_blocks():
    blocks = np.full((2, BLOCK_SIZE), 0.5)
    rec_a = _record(blocks, f=0.9)
    rec_b = _record(np.zeros((2, BLOCK_SIZE)), f=0.1)
    params = EvolutionParams(population_size=8, batch_size=4, knn_k=2, adaptive_mutation=False)
    child = mutate((rec_a, rec_b), 0.1, 0.9, params,
                   ScriptedRng(randoms=[0.7, 0.2], uniforms=[[0.1, -0.1, 0.05, 0.0]]))
    assert np.allclose(child.blocks[0], [0.6, 0.4, 0.55, 0.5])
    assert np.array_equal(child.blocks[1], blocks[1])


# ---------------------------------------------------------------- deletion

def _measured_population(rates, epoch=3):
    return Population(active=[_record(np.zeros((1, BLOCK_SIZE)), f=0.2, r=r) for r in rates],
                      epoch=epoch)


def test_delete_bad_tasks_band():
    pop = _measured_population((0.0, 0.02, 0.5, 0.98, 1.0))
    delete_bad_tasks(pop, (0.02, 0.98))
    assert [rec.r for rec in pop.active] == [0.02, 0.5, 0.98]  # band edges survive
    assert [rec.r for rec in pop.retired] == [0.0, 1.0] and pop.archive == {}


def test_delete_bad_tasks_full_band_keeps_everything():
    pop = _measured_population((0.0, 0.5, 1.0))
    active = list(pop.active)
    delete_bad_tasks(pop, (0.0, 1.0))
    assert pop.active == active and pop.retired == [] and pop.archive == {}


def test_delete_bad_tasks_keeps_unmeasured_records():
    pop = _measured_population((None, 0.0, None, 1.0))
    unmeasured = [pop.active[0], pop.active[2]]
    delete_bad_tasks(pop, (0.02, 0.98))
    assert pop.active == unmeasured
    assert [rec.r for rec in pop.retired] == [0.0, 1.0]


def test_delete_bad_tasks_fills_the_bucket_in_active_order():
    pop = _measured_population((1.0, 0.5, 0.0, 0.99, 0.01))
    earlier = _record(np.ones((1, BLOCK_SIZE)), f=0.2)
    pop.retired = [earlier]
    retired = [pop.active[i] for i in (0, 2, 3, 4)]
    delete_bad_tasks(pop, (0.02, 0.98))
    assert pop.retired == [earlier] + retired
    assert [rec.r for rec in pop.active] == [0.5]
    # The generation's line holds the retired records first, then the rest, as measured.
    pop.active[0].f = 0.2
    nxt = evolve_generation(pop, EvolutionParams(population_size=2, batch_size=1, knn_k=1),
                            np.random.default_rng(0))
    assert nxt.retired == [] and list(nxt.archive) == [3]
    assert _values(nxt.archive[3].records()) == _values([earlier] + retired + pop.active)


# ---------------------------------------------------------------- estimation

def test_assign_population_fitness_mixes_measured_and_estimated():
    measured = _record([[0.5, 0.5, 0.5, 0.5]], f=0.41, r=0.6)
    clone = _record([[0.5, 0.5, 0.5, 0.5]])
    far = _record([[0.0, 0.0, 0.0, 0.0]])
    protos = PrototypeSet(vectors=np.array([[0.5, 0.5, 0.5, 0.5], [0.0, 0.0, 0.1, 0.1]]),
                          fitnesses=np.array([0.41, 0.27]))
    assign_population_fitness([measured, clone, far], protos, 1)
    assert measured.f == 0.41  # fresh measurement wins over the estimate
    assert clone.f == 0.41     # zero-distance neighbor copies its fitness
    assert far.f == 0.27
    assert clone.r is None


def test_assign_population_fitness_estimates_the_unmeasured_in_one_call(monkeypatch):
    rng = np.random.default_rng(126)
    protos = PrototypeSet(vectors=rng.random((6, 8)), fitnesses=rng.random(6))
    active = [_record(rng.random((2, BLOCK_SIZE)), f=0.9, r=0.5 if index % 3 == 0 else None)
              for index in range(10)]
    calls = []

    def counted(query, prototypes, k):
        calls.append(np.shape(query))
        return knn_estimate(query, prototypes, k)

    monkeypatch.setattr(evolution, "knn_estimate", counted)
    assign_population_fitness(active, protos, 3)
    assert calls == [(6, 8)]
    for rec in active:
        expected = (0.9 if rec.r is not None
                    else knn_estimate(rec.genome.blocks.reshape(-1), protos, 3))
        assert rec.f == expected


def test_assign_population_fitness_propagates_k_errors():
    rec = _record([[0.1, 0.1, 0.1, 0.1]])
    protos = PrototypeSet(vectors=np.array([[0.0, 0.0, 0.0, 0.0]]), fitnesses=np.array([0.3]))
    with pytest.raises(ValueError):
        assign_population_fitness([rec], protos, 2)


# ---------------------------------------------------------------- evolve

def test_evolve_two_task_population_with_flat_fitness_reuses_parent_genomes():
    # flat fitness makes every step size zero, so nothing new can appear:
    # crossover returns both parents verbatim and mutation copies its first
    # parent, leaving each survivor bit-identical to some current genome
    rng = np.random.default_rng(114)
    params = EvolutionParams(population_size=2, batch_size=1, knn_k=1)
    for seed in range(20):
        records = [_record(rng.random((2, BLOCK_SIZE)), f=0.3) for _ in range(2)]
        before = {rec.genome.blocks.tobytes() for rec in records}
        pop = Population(active=list(records))
        nxt = evolve_generation(pop, params, np.random.default_rng(seed))
        assert len(nxt.active) == 2
        for rec in nxt.active:
            assert rec.genome.blocks.tobytes() in before


def test_evolve_flat_fitness_children_copy_a_parent():
    rng = np.random.default_rng(115)
    pop = _uniform_population(8, rng, f=0.25)
    parent_bytes = {rec.genome.blocks.tobytes() for rec in pop.active}
    nxt = evolve_generation(pop, PARAMS, np.random.default_rng(9))
    for rec in nxt.active:
        assert rec.genome.blocks.tobytes() in parent_bytes


def test_evolve_generation_bookkeeping():
    rng = np.random.default_rng(116)
    pop = _uniform_population(8, rng, f=0.2)
    for rec in pop.active:
        rec.f = float(rng.random())
    old_active = list(pop.active)
    nxt = evolve_generation(pop, PARAMS, np.random.default_rng(10))
    assert nxt.epoch == 1
    assert len(nxt.active) == 8
    assert sum(map(len, nxt.archive.values())) == 8
    assert _values(nxt.archive[0].records()) == _values(old_active)
    children = [rec for rec in nxt.active if rec.epoch_born == 1]
    carried = [rec for rec in nxt.active if rec.epoch_born == 0]
    assert children and all(rec.origin in ("cross", "mutate") for rec in children)
    for rec in carried:
        assert rec.r is None  # carried parents re-enter unmeasured
    for rec in nxt.active:
        assert rec.genome.in_domain


def test_evolve_keeps_the_fittest_parents():
    rng = np.random.default_rng(117)
    records = [_record(rng.random((1, BLOCK_SIZE)), f=f)
               for f in (0.50, 0.10, 0.20, 0.45, 0.05, 0.40, 0.30, 0.25)]
    pop = Population(active=list(records))
    nxt = evolve_generation(pop, PARAMS, np.random.default_rng(11))
    children = [rec for rec in nxt.active if rec.epoch_born == 1]
    carried = [rec for rec in nxt.active if rec.epoch_born == 0]
    n_parents = len(carried)
    best = sorted((rec.f for rec in records), reverse=True)[:n_parents]
    assert sorted((rec.f for rec in carried), reverse=True) == best
    assert len(children) + n_parents == 8


def test_evolve_requires_assigned_fitness():
    rng = np.random.default_rng(118)
    pop = _uniform_population(4, rng)
    pop.active[2].f = None
    with pytest.raises(ValueError):
        evolve_generation(pop, EvolutionParams(population_size=4, batch_size=2, knn_k=1),
                          np.random.default_rng(0))


def test_evolve_handles_odd_active_after_deletion():
    rng = np.random.default_rng(119)
    params = EvolutionParams(population_size=8, batch_size=4, knn_k=2)
    pop = _uniform_population(8, rng, f=0.2)
    for rec in pop.active:
        rec.f = float(rng.random())
    pop.active[0].r = 1.0
    delete_bad_tasks(pop, params.deletion_band)
    assert len(pop.active) == 7
    nxt = evolve_generation(pop, params, np.random.default_rng(12))
    assert len(nxt.active) == 8
    assert sum(map(len, nxt.archive.values())) == 8  # 1 deleted + 7 evolved out


def test_evolve_refills_from_ranked_parents_then_children_in_turn():
    # 3 parents pair once, so 1 or 2 children leave 6 or 7 places: the refill
    # must cycle through the ranked parents and the children, in that order
    params = EvolutionParams(population_size=8, batch_size=4, knn_k=2)
    rng = np.random.default_rng(121)
    counts = set()
    for seed in range(12):
        records = [_record(rng.random((2, BLOCK_SIZE)), f=f, r=0.5) for f in (0.2, 0.4, 0.3)]
        nxt = evolve_generation(Population(active=list(records)), params,
                                np.random.default_rng(seed))
        assert len(nxt.active) == 8
        n_children = next(i for i, rec in enumerate(nxt.active) if rec.epoch_born != 1)
        counts.add(n_children)
        children = nxt.active[:n_children]
        ranked = [records[1], records[2], records[0]]
        pool = ranked + children
        expected = [pool[i % len(pool)] for i in range(8 - n_children)]
        for got, source in zip(nxt.active[n_children:], expected):
            assert got is not source
            assert got.genome.blocks.tobytes() == source.genome.blocks.tobytes()
            assert (got.r, got.f, got.epoch_born, got.origin) == (
                None, source.f, source.epoch_born, source.origin)
    assert counts == {1, 2}


def test_evolve_empty_generation_breeds_from_the_latest_archived_one():
    params = EvolutionParams(population_size=8, batch_size=4, knn_k=2)
    rng = np.random.default_rng(122)
    older = [_record(rng.random((2, BLOCK_SIZE)), f=0.3, r=0.5) for _ in range(4)]
    latest = [_record(rng.random((2, BLOCK_SIZE)), f=0.3, r=1.0, epoch_born=1) for _ in range(4)]
    pop = Population(active=[], archive={0: Generation.of(older), 1: Generation.of(latest)},
                     epoch=2)
    nxt = evolve_generation(pop, params, np.random.default_rng(7))
    assert nxt.epoch == 3 and len(nxt.active) == 8
    # flat fitness: every child copies a parent, and parents are the latest generation
    latest_bytes = {rec.genome.blocks.tobytes() for rec in latest}
    for rec in nxt.active:
        assert rec.genome.blocks.tobytes() in latest_bytes
        assert rec.r is None
    n_children = next(i for i, rec in enumerate(nxt.active) if rec.epoch_born != 3)
    for got, source in zip(nxt.active[n_children:], latest):
        assert got is not source
        assert got.genome.blocks.tobytes() == source.genome.blocks.tobytes()
    # the archive is left as it was, measurements included
    assert [nxt.archive[e] for e in (0, 1)] == [pop.archive[e] for e in (0, 1)]
    assert [_values(nxt.archive[e].records()) for e in (0, 1)] == [_values(older),
                                                                    _values(latest)]
    assert len(nxt.archive[2]) == 0
    # A generation is archived once: closing one that is archived already is refused.
    with pytest.raises(ValueError, match="generation 1 is archived already"):
        evolve_generation(Population(active=[], archive=pop.archive, epoch=1), params,
                          np.random.default_rng(7))


def test_evolve_emptied_generation_breeds_from_its_retired_records():
    params = EvolutionParams(population_size=8, batch_size=4, knn_k=2)
    rng = np.random.default_rng(123)
    archived = [_record(rng.random((2, BLOCK_SIZE)), f=0.3, r=0.5) for _ in range(4)]
    active = [_record(rng.random((2, BLOCK_SIZE)), f=0.3, r=1.0, epoch_born=1) for _ in range(4)]
    pop = Population(active=list(active), archive={0: Generation.of(archived)}, epoch=1)
    delete_bad_tasks(pop, params.deletion_band)
    assert pop.active == [] and pop.retired == active
    nxt = evolve_generation(pop, params, np.random.default_rng(7))
    retired_bytes = {rec.genome.blocks.tobytes() for rec in active}
    assert all(rec.genome.blocks.tobytes() in retired_bytes and rec.r is None
               for rec in nxt.active)
    assert _values(nxt.archive[1].records()) == _values(active)


def _reference_children(pair, f_min, f_max, params, rng, tally):
    """One pair's children as the per-pair loop built them, block by block with np.clip;
    ``tally`` counts the blocks that moved, that were clipped and that added to -0.0."""
    rec_a, rec_b = pair
    n_agents = rec_a.genome.n_agents
    if rng.random() > 0.5:
        step = evolution.crossover_step(rec_a.f, rec_b.f, f_min, f_max)
        children = [rec_a.genome.blocks.copy(), rec_b.genome.blocks.copy()]
        for j in range(n_agents):
            if rng.random() >= 0.5:
                direction = rec_a.genome.blocks[j] - rec_b.genome.blocks[j]
                if step != 0.0 and direction.any():
                    for blocks in children:
                        _reference_shift(blocks, j, step * direction, tally)
        return [(blocks, "cross") for blocks in children]
    if params.adaptive_mutation:
        scale = params.mutation_scale * evolution.crossover_step(rec_a.f, rec_b.f, f_min, f_max)
    else:
        scale = params.mutation_scale
    blocks = rec_a.genome.blocks.copy()
    for j in range(n_agents):
        if rng.random() >= 0.5:
            _reference_shift(blocks, j, rng.uniform(-scale, scale, BLOCK_SIZE), tally)
    return [(blocks, "mutate")]


def _reference_shift(blocks, j, delta, tally):
    moved = blocks[j] + delta
    tally["moved"] += 1
    tally["clipped"] += int(((moved < 0.0) | (moved > 1.0)).any())
    tally["negative zero"] += int((np.signbit(moved) & (moved == 0.0)).any())
    blocks[j] = np.clip(moved, 0.0, 1.0)


def _reference_evolve(pop, params, rng, tally):
    """evolve_generation's next generation as (blocks, origin, epoch_born) triples, in order."""
    active = pop.active
    fitness_values = [rec.f for rec in active]
    f_min, f_max = min(fitness_values), max(fitness_values)
    pool = active
    if len(active) % 2:
        order = rng.permutation(len(active))
        pool = [active[int(i)] for i in order[:-1]]
    pairs = pair_generation(pool, rng) if len(pool) >= 2 else []
    children = []
    for pair in pairs:
        children.extend((blocks, origin, pop.epoch + 1) for blocks, origin in
                        _reference_children(pair, f_min, f_max, params, rng, tally))
    ranked = [(rec.genome.blocks, rec.origin, rec.epoch_born)
              for rec in sorted(active, key=lambda rec: -rec.f)]
    pool = ranked + children
    nxt = children[:params.population_size]
    nxt.extend(pool[i % len(pool)] for i in range(params.population_size - len(nxt)))
    return nxt


def _breeding_population(rng, size, n_agents, flat, distinct):
    """``size`` records drawn from ``distinct`` genomes whose components are uniform or
    exactly 0.0, 1.0 or -0.0; their fitness is one value for all (``flat``) or a few
    values with ties."""
    blocks = rng.random((distinct, n_agents, BLOCK_SIZE))
    edge = rng.integers(0, 4, blocks.shape)
    blocks[edge == 0] = 0.0
    blocks[edge == 1] = 1.0
    blocks[edge == 2] = -0.0
    fitness = np.full(size, 0.3) if flat else rng.integers(0, 5, size) / 4.0
    picks = rng.integers(0, distinct, size)
    return Population(active=[_record(blocks[pick], f=float(f)) for pick, f in zip(picks, fitness)],
                      epoch=int(rng.integers(0, 4)))


@pytest.mark.parametrize("n_agents", [1, 2, 4])
@pytest.mark.parametrize("adaptive", [True, False])
def test_evolve_generation_equals_the_per_pair_reference_bit_for_bit(n_agents, adaptive,
                                                                     monkeypatch):
    steps = []
    original = evolution.crossover_step

    def counted(*args):
        steps.append(original(*args))
        return steps[-1]

    monkeypatch.setattr(evolution, "crossover_step", counted)
    tally = {"moved": 0, "clipped": 0, "negative zero": 0, "cases": 0}
    rng = np.random.default_rng(1000 + 10 * n_agents + adaptive)
    for size in (2, 3, 7, 16, 33):
        for flat in (False, True):
            for distinct in (1, 2, size):
                for scale in (0.15, 0.0, 0.6):
                    params = EvolutionParams(population_size=16, batch_size=4, knn_k=2,
                                             mutation_scale=scale, adaptive_mutation=adaptive)
                    pop = _breeding_population(rng, size, n_agents, flat, distinct)
                    seed = int(rng.integers(1 << 30))
                    got_rng, expected_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                    del steps[:]
                    nxt = evolve_generation(pop, params, got_rng)
                    got_steps = list(steps)
                    del steps[:]
                    expected = _reference_evolve(pop, params, expected_rng, tally)
                    assert [(rec.genome.blocks.tobytes(), rec.origin, rec.epoch_born)
                            for rec in nxt.active] == [
                        (blocks.tobytes(), origin, born) for blocks, origin, born in expected]
                    assert got_rng.bit_generator.state == expected_rng.bit_generator.state
                    assert got_steps == steps
                    tally["cases"] += 1
    # Every case kind occurred: moving blocks, blocks clipped into the box, sums at -0.0.
    assert min(tally.values()) > 0, tally


def test_records_and_genomes_have_no_instance_dict():
    rec = _record(np.zeros((1, BLOCK_SIZE)), f=0.5)
    for obj in (rec, rec.genome, TaskGenome.batch(np.zeros((1, 1, BLOCK_SIZE)))[0]):
        assert not hasattr(obj, "__dict__")
    with pytest.raises(AttributeError):
        rec.note = "unused"


def test_evolve_empty_generation_with_empty_archive_raises():
    with pytest.raises(ValueError, match="empty archive"):
        evolve_generation(Population(active=[]), PARAMS, np.random.default_rng(0))


def test_archive_accumulates_one_generation_per_epoch():
    rng = np.random.default_rng(120)
    pop = _uniform_population(8, rng, f=0.2)
    for epoch in range(1, 6):
        for rec in pop.active:
            rec.f = float(rng.random())
        pop = evolve_generation(pop, PARAMS, np.random.default_rng(epoch))
        assert pop.epoch == epoch
        assert sum(map(len, pop.archive.values())) == epoch * 8
        assert sorted(pop.archive) == list(range(epoch))


def test_an_archived_record_costs_at_most_160_bytes():
    # An archived generation is held as the columns of its line: about 64 bytes of genome,
    # a row, f, epoch_born and origin per record, against 331 as one object graph per record.
    params = EvolutionParams(population_size=256, batch_size=64, knn_k=4)
    target = opposite_corner_target(2)
    rng = np.random.default_rng(5)
    tracemalloc.start()
    try:
        pop = init_population(TaskDomain(n_agents=2, grid_width=12), 256,
                              np.random.default_rng(4))
        for epoch in range(12):
            for rec in pop.active:
                rec.f = float(rng.random())
            pop = evolve_generation(pop, params, np.random.default_rng(epoch))
            pop = advance_toward(pop, target, 0.5)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        archived = sum(map(len, pop.archive.values()))
        pop.archive = {}
        gc.collect()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert archived == 12 * 256
    assert freed / archived <= 160, freed / archived


# ---------------------------------------------------------------- advance

def test_advance_toward_closes_growth_times_success_of_each_gap():
    rng = np.random.default_rng(121)
    target = TaskGenome(np.array([[0.0, 0.0, 1.0, 1.0], [1.0, 1.0, 0.0, 0.0]]))
    pop = _uniform_population(8, rng)
    # corner genomes and the target itself must stay put in the box too
    pop.active[0] = _record([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]], f=0.1)
    pop.active[1] = _record(target.blocks, f=0.2)
    for index, rec in enumerate(pop.active):
        rec.r = 0.5 if index % 2 else None
        rec.epoch_born = index
        rec.origin = ("init", "cross", "mutate")[index % 3]
    archived = _record(rng.random((2, BLOCK_SIZE)), f=0.4, r=0.9)
    pop.archive = {0: Generation.of([archived])}
    pop.epoch = 1
    archived_before = archived.genome.blocks.tobytes()

    for success in (1.0, 0.75, 0.3, 1e-3):
        moved = advance_toward(pop, target, success)
        assert moved.epoch == 1
        assert moved.archive is pop.archive
        assert archived.genome.blocks.tobytes() == archived_before
        assert len(moved.active) == len(pop.active)
        for before, after in zip(pop.active, moved.active):
            gap = target.blocks - before.genome.blocks
            shift = after.genome.blocks - before.genome.blocks
            # per block and component: GROWTH * success of the gap, to rounding
            assert np.allclose(shift, GROWTH * success * gap, rtol=0.0, atol=1e-15)
            assert after.genome.in_domain
            assert (after.r, after.f, after.epoch_born, after.origin) == \
                (before.r, before.f, before.epoch_born, before.origin)
        # the caller's generation is not touched
        assert pop.active[0].genome.blocks[0, 0] == 1.0


def test_advance_toward_equals_the_per_record_formula_bit_for_bit():
    rng = np.random.default_rng(123)
    for n_agents in range(1, 5):
        target = TaskGenome(rng.random((n_agents, BLOCK_SIZE)))
        pop = Population(active=[_record(rng.random((n_agents, BLOCK_SIZE)), f=0.2)
                                 for _ in range(9)])
        pop.active[0] = _record(target.blocks, f=0.3)
        for success in (1.0, 0.75, 0.3, 1e-3, 0.123456789):
            moved = advance_toward(pop, target, success)
            for before, after in zip(pop.active, moved.active, strict=True):
                blocks = before.genome.blocks
                expected = blocks + GROWTH * success * (target.blocks - blocks)
                assert after.genome.blocks.tobytes() == expected.tobytes()
                assert not after.genome.blocks.flags.writeable


def test_advance_toward_without_success_is_the_identity():
    rng = np.random.default_rng(122)
    target = TaskGenome(np.array([[0.0, 0.0, 1.0, 1.0], [1.0, 1.0, 0.0, 0.0]]))
    pop = _uniform_population(6, rng)
    before = [rec.genome.blocks.tobytes() for rec in pop.active]
    still = advance_toward(pop, target, 0.0)
    assert [rec.genome.blocks.tobytes() for rec in still.active] == before
    assert still.archive == pop.archive and still.epoch == pop.epoch


def test_advance_toward_argument_errors():
    rng = np.random.default_rng(124)
    pop = _uniform_population(4, rng)
    target = TaskGenome(np.array([[0.0, 0.0, 1.0, 1.0], [1.0, 1.0, 0.0, 0.0]]))
    for success in (-0.1, 1.5):
        with pytest.raises(ValueError):
            advance_toward(pop, target, success)
    with pytest.raises(ValueError):
        advance_toward(pop, TaskGenome(np.array([[0.0, 0.0, 1.0, 1.0]])), 0.5)


# ---------------------------------------------------------------- selection

def test_soft_select_composition_with_archive():
    rng = np.random.default_rng(121)
    params = EvolutionParams(population_size=16, batch_size=10, new_fraction=0.7, knn_k=3)
    pop = _uniform_population(16, rng, f=0.2)
    pop = evolve_generation(pop, params, np.random.default_rng(1))
    active_ids = {id(rec) for rec in pop.active}
    for seed in range(20):
        batch = soft_select(pop, params, np.random.default_rng(seed))
        assert len(batch) == 10
        new = sum(1 for rec in batch if id(rec) in active_ids)
        assert new == 7
        assert len(batch) - new == 3
        assert len({id(rec) for rec in batch}) == 10  # no duplicates


def test_soft_select_empty_archive_takes_everything_new():
    rng = np.random.default_rng(122)
    params = EvolutionParams(population_size=16, batch_size=10, new_fraction=0.7, knn_k=3)
    pop = _uniform_population(16, rng, f=0.2)
    batch = soft_select(pop, params, np.random.default_rng(2))
    active_ids = {id(rec) for rec in pop.active}
    assert len(batch) == 10
    assert all(id(rec) in active_ids for rec in batch)


def test_soft_select_all_new_fraction():
    rng = np.random.default_rng(123)
    params = EvolutionParams(population_size=8, batch_size=4, new_fraction=1.0, knn_k=2)
    pop = _uniform_population(8, rng, f=0.2)
    pop = evolve_generation(pop, params, np.random.default_rng(3))
    active_ids = {id(rec) for rec in pop.active}
    batch = soft_select(pop, params, np.random.default_rng(4))
    assert all(id(rec) in active_ids for rec in batch)


def test_soft_select_is_seed_deterministic():
    rng = np.random.default_rng(124)
    pop = _uniform_population(8, rng, f=0.2)
    pop = evolve_generation(pop, PARAMS, np.random.default_rng(5))
    first = soft_select(pop, PARAMS, np.random.default_rng(6))
    second = soft_select(pop, PARAMS, np.random.default_rng(6))
    assert [id(rec) for rec in first] == [id(rec) for rec in second]


def _reference_soft_select(pop, params, rng):
    """``soft_select`` as it was before generations became columns: every archived record
    built and pooled in (epoch, position) order, the picks taken from the pool. It builds its
    records from a copy of the archive, which leaves the population's generations as they were."""
    n_new = int(round(params.batch_size * params.new_fraction))
    n_old = params.batch_size - n_new
    archive = copy.deepcopy(pop.archive)
    old_pool = [rec for epoch in sorted(archive) for rec in archive[epoch].records()]
    if len(old_pool) < n_old:
        n_old = len(old_pool)
        n_new = params.batch_size - n_old
    batch = [pop.active[int(i)] for i in rng.choice(len(pop.active), size=n_new, replace=False)]
    if n_old:
        batch.extend(old_pool[int(i)]
                     for i in rng.choice(len(old_pool), size=n_old, replace=False))
    return batch


def test_soft_select_draws_what_the_pooled_records_gave():
    rng = np.random.default_rng(126)
    params = EvolutionParams(population_size=16, batch_size=10, new_fraction=0.7, knn_k=3)

    def generation(size, epoch):
        return Generation.of([TaskRecord(TaskGenome(rng.random((2, BLOCK_SIZE))),
                                         r=float(rng.random()) if i % 3 else None,
                                         f=float(rng.random()), epoch_born=epoch,
                                         origin=evolution.ORIGINS[i % 3])
                              for i in range(size)])

    archives = {
        "empty archive": {},
        "an empty generation": {0: generation(0, 0), 1: generation(5, 1)},
        "only empty generations": {0: generation(0, 0), 1: generation(0, 1)},
        "one-record generations": {epoch: generation(1, epoch) for epoch in range(6)},
        "a shortfall": {0: generation(1, 0), 1: generation(1, 1)},
        "out of order": {2: generation(4, 2), 0: generation(3, 0), 1: generation(0, 1),
                         3: generation(1, 3)},
        "several": {epoch: generation(size, epoch)
                    for epoch, size in enumerate((16, 0, 7, 16, 1, 16))},
    }
    for name, archive in archives.items():
        pop = Population(active=_uniform_population(16, rng).active, archive=archive,
                         epoch=len(archive))
        for seed in range(8):
            got_rng, expected_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = soft_select(pop, params, got_rng)
            expected = _reference_soft_select(pop, params, expected_rng)
            assert _values(got) == _values(expected), (name, seed)
            assert got_rng.bit_generator.state == expected_rng.bit_generator.state, name
            n_new = sum(1 for rec in got if any(rec is active for active in pop.active))
            assert got[:n_new] == expected[:n_new]  # the active picks are the records
            # The old picks are the generations' kept records, and no other is built.
            picked = {id(rec) for rec in got[n_new:]}
            assert picked <= {id(rec) for gen in archive.values() for rec in gen.handed.values()}
        kept = sum(len(gen.handed) for gen in archive.values())
        assert kept <= 8 * (params.batch_size - 7), name
        assert {id(rec) for rec in pop.archived_records()} >= {
            id(rec) for gen in archive.values() for rec in gen.handed.values()}


def test_soft_select_rejects_oversized_batch():
    rng = np.random.default_rng(125)
    pop = _uniform_population(4, rng, f=0.2)
    pop.active = pop.active[:2]
    with pytest.raises(ValueError):
        soft_select(pop, EvolutionParams(population_size=4, batch_size=4, knn_k=2),
                    np.random.default_rng(0))


# ---------------------------------------------------------------- params & misc

def test_evolution_params_validation():
    with pytest.raises(ValueError):
        EvolutionParams(population_size=5)
    with pytest.raises(ValueError):
        EvolutionParams(population_size=8, batch_size=10)
    with pytest.raises(ValueError):
        EvolutionParams(new_fraction=1.2)
    with pytest.raises(ValueError):
        EvolutionParams(batch_size=4, knn_k=5)
    with pytest.raises(ValueError):
        EvolutionParams(mutation_scale=-0.1)
    with pytest.raises(ValueError):
        EvolutionParams(deletion_band=(0.5, 0.5))
    with pytest.raises(ValueError):
        EvolutionParams(deletion_band=(-0.1, 0.9))


def test_fifty_epoch_trajectory_is_deterministic():
    def run(seed):
        domain = TaskDomain(n_agents=2, grid_width=8)
        params = EvolutionParams(population_size=8, batch_size=4, knn_k=2)
        fitness = FitnessParams()
        pop = init_population(domain, 8, np.random.default_rng(seed))
        trail = []
        for epoch in range(1, 51):
            for rec in pop.active:
                # synthetic stand-in for measurement: difficulty from distance
                rec.f = fitness.evaluate(min(start_goal_distance(rec.genome), 1.0))
            pop = evolve_generation(pop, params, np.random.default_rng((seed, epoch)))
            batch = soft_select(pop, params, np.random.default_rng((seed, epoch, 7)))
            trail.append((tuple(rec.genome.blocks.tobytes() for rec in pop.active),
                          tuple(rec.genome.blocks.tobytes() for rec in batch)))
        return trail

    assert run(31) == run(31)
    assert run(31) != run(32)

