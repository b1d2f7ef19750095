"""Task genome, domain, and discretization behavior."""

import math

import numpy as np
import pytest

from coevo_curriculum.tasks import (BLOCK_SIZE, DEFAULT_DISTANCE_THRESHOLD, TaskDomain,
                                    TaskGenome, UNIT_DIAMETER, discretize, opposite_corner_target,
                                    start_goal_distance)


def _distance_oracle(blocks):
    # independent recomputation: per-agent math.dist, then a plain mean
    dists = [math.dist(row[:2], row[2:]) for row in blocks]
    return sum(dists) / len(dists)


def test_zero_distance_when_start_equals_goal():
    genome = TaskGenome(np.array([[0.3, 0.7, 0.3, 0.7]]))
    assert start_goal_distance(genome) == 0.0


def test_distance_single_agent_full_diagonal():
    genome = TaskGenome(np.array([[0.0, 0.0, 1.0, 1.0]]))
    assert start_goal_distance(genome) == pytest.approx(math.sqrt(2.0), abs=1e-15)


def test_distance_two_agents_mean():
    blocks = [[0.0, 0.0, 0.3, 0.4], [0.2, 0.2, 0.2, 0.2]]
    genome = TaskGenome(np.array(blocks))
    assert start_goal_distance(genome) == pytest.approx(0.25, abs=1e-15)
    assert start_goal_distance(genome) == pytest.approx(_distance_oracle(blocks), abs=1e-15)


def test_distance_matches_oracle_on_random_genomes():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        blocks = rng.random((n, BLOCK_SIZE))
        genome = TaskGenome(blocks)
        assert start_goal_distance(genome) == pytest.approx(_distance_oracle(blocks), rel=1e-12)


def test_distance_is_permutation_invariant():
    rng = np.random.default_rng(12)
    for _ in range(100):
        blocks = rng.random((4, BLOCK_SIZE))
        perm = rng.permutation(4)
        a = start_goal_distance(TaskGenome(blocks))
        b = start_goal_distance(TaskGenome(blocks[perm]))
        assert a == pytest.approx(b, rel=1e-12)


def test_genome_shape_and_finiteness_checks():
    with pytest.raises(ValueError):
        TaskGenome(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        TaskGenome(np.zeros((0, BLOCK_SIZE)))
    with pytest.raises(ValueError):
        TaskGenome(np.array([[0.1, 0.2, np.nan, 0.4]]))


def test_genome_batch_checks_as_the_constructor_does():
    nan = np.full((3, 2, BLOCK_SIZE), 0.5)
    nan[2, 1, 3] = np.nan
    inf = np.full((3, 2, BLOCK_SIZE), 0.5)
    inf[1, 0, 0] = -np.inf
    for single, batch, message in (
            (np.zeros((2, 3)), np.zeros((3, 2, 3)),
             r"genome blocks must have shape \(n, 4\), got \(([13], )?2, 3\)"),
            (np.zeros(BLOCK_SIZE), np.zeros((2, BLOCK_SIZE)),
             r"genome blocks must have shape \(n, 4\), got \(([12], )?4,?\)"),
            (np.zeros((0, BLOCK_SIZE)), np.zeros((3, 0, BLOCK_SIZE)),
             "genome needs at least one agent block"),
            (nan[2], nan, "genome components must be finite"),
            (inf[1], inf, "genome components must be finite")):
        with pytest.raises(ValueError, match=message):
            TaskGenome(single)
        with pytest.raises(ValueError, match=message):
            TaskGenome.batch(batch)
        with pytest.raises(ValueError, match=message):
            TaskGenome.batch(single[None].copy())
        with pytest.raises(ValueError, match=message):
            TaskGenome.batch(batch.copy())


def test_genome_batch_gives_the_genomes_of_its_rows():
    rng = np.random.default_rng(16)
    blocks = rng.random((5, 3, BLOCK_SIZE))
    genomes = TaskGenome.batch(blocks)
    assert [genome.blocks.tobytes() for genome in genomes] == \
        [TaskGenome(rows).blocks.tobytes() for rows in blocks]
    for genome in genomes:
        assert genome.n_agents == 3 and genome.blocks.flags.c_contiguous
        with pytest.raises(ValueError):
            genome.blocks[0, 0] = 0.5
    assert TaskGenome.batch(np.zeros((0, 3, BLOCK_SIZE))) == []


def test_genome_blocks_are_read_only():
    genome = TaskGenome(np.zeros((1, BLOCK_SIZE)))
    with pytest.raises(ValueError):
        genome.blocks[0, 0] = 0.5


def test_genomes_leave_the_callers_array_writable():
    blocks = np.zeros((2, BLOCK_SIZE))
    stack = np.zeros((3, 2, BLOCK_SIZE))
    genome, (first, *_) = TaskGenome(blocks), TaskGenome.batch(stack)
    blocks[0, 0] = 1.0
    stack[0, 0, 0] = 1.0
    assert genome.blocks[0, 0] == 0.0 and first.blocks[0, 0] == 0.0
    # An array of another dtype or layout is checked in a copy that has the genome's.
    for other in (np.zeros((1, 2, BLOCK_SIZE), dtype=int), np.zeros((BLOCK_SIZE, 2, 1)).T):
        copied, = TaskGenome.batch(other)
        assert copied.blocks.dtype == float and copied.blocks.flags.c_contiguous
        assert not copied.blocks.flags.writeable and other.flags.writeable


def test_vector_round_trip():
    rng = np.random.default_rng(13)
    blocks = rng.random((3, BLOCK_SIZE))
    genome = TaskGenome(blocks)
    # A snapshot's genome column: the blocks' exact bytes, agent by agent.
    back, = TaskGenome.batch(np.frombuffer(genome.blocks.tobytes()).reshape(1, 3, BLOCK_SIZE))
    assert back.blocks.tobytes() == genome.blocks.tobytes()


def test_discretize_examples():
    domain = TaskDomain(n_agents=1, grid_width=12)
    genome = TaskGenome(np.array([[0.5, 0.0, 1.0, 0.999]]))
    ((sx, sy), (gx, gy)) = discretize(genome, domain)[0]
    # floor(0.5 * 12) = 6; floor(0.0) = 0; 1.0 clamps to the last cell
    assert (sx, sy) == (6, 0)
    assert gx == 11
    assert gy == 11


def test_discretize_stays_in_bounds_on_random_genomes():
    rng = np.random.default_rng(16)
    for width in (2, 3, 7, 12):
        domain = TaskDomain(n_agents=2, grid_width=width)
        for _ in range(100):
            genome = TaskGenome(rng.random((2, BLOCK_SIZE)))
            for (sx, sy), (gx, gy) in discretize(genome, domain):
                for coord in (sx, sy, gx, gy):
                    assert 0 <= coord < width


def test_discretize_matches_floor_oracle():
    domain = TaskDomain(n_agents=1, grid_width=9)
    rng = np.random.default_rng(17)
    for _ in range(200):
        blocks = rng.random((1, BLOCK_SIZE))
        ((sx, sy), (gx, gy)) = discretize(TaskGenome(blocks), domain)[0]
        expected = [min(int(math.floor(c * 9)), 8) for c in blocks[0]]
        assert [sx, sy, gx, gy] == expected


def test_domain_validation():
    with pytest.raises(ValueError):
        TaskDomain(n_agents=0, grid_width=5)
    with pytest.raises(ValueError):
        TaskDomain(n_agents=1, grid_width=1)
    with pytest.raises(ValueError):
        TaskDomain(n_agents=1, grid_width=5, distance_threshold=0.0)
    with pytest.raises(ValueError):
        TaskDomain(n_agents=1, grid_width=5, distance_threshold=UNIT_DIAMETER * 1.01)
    assert TaskDomain(n_agents=1, grid_width=5).distance_threshold == DEFAULT_DISTANCE_THRESHOLD


def test_default_threshold_is_one_percent_of_diameter():
    assert DEFAULT_DISTANCE_THRESHOLD == pytest.approx(0.01 * math.sqrt(2.0), rel=1e-15)


def test_opposite_corner_target_layout():
    target = opposite_corner_target(2)
    assert np.array_equal(target.blocks[0], np.array([0.0, 0.0, 1.0, 1.0]))
    assert np.array_equal(target.blocks[1], np.array([1.0, 1.0, 0.0, 0.0]))
    # every agent crosses the full diagonal
    assert start_goal_distance(target) == pytest.approx(math.sqrt(2.0), abs=1e-15)
    four = opposite_corner_target(4)
    starts = {tuple(row) for row in four.starts()}
    assert len(starts) == 4
