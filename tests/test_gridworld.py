"""Grid-spread environment: transitions, shared reward, observation indexing."""

import numpy as np
import pytest

from coevo_curriculum.gridworld import (ACTION_NAMES, EnvConfig, GridSpread, MOVES, N_ACTIONS,
                                        move_cell, obs_index)
from coevo_curriculum.tasks import TaskGenome


def _genome_for_cells(starts, goals, width):
    # place each coordinate at the center of its cell
    blocks = []
    for (sx, sy), (gx, gy) in zip(starts, goals):
        blocks.append([(sx + 0.5) / width, (sy + 0.5) / width,
                       (gx + 0.5) / width, (gy + 0.5) / width])
    return TaskGenome(np.array(blocks))


def test_action_set_shape():
    assert N_ACTIONS == 5
    assert ACTION_NAMES[0] == "stay"
    assert MOVES[0] == (0, 0)
    assert len(set(MOVES)) == 5


def test_reset_discretizes_starts_and_goals():
    cfg = EnvConfig(grid_width=12, n_agents=2, max_steps=40)
    env = GridSpread(cfg)
    genome = TaskGenome(np.array([[0.5, 0.5, 0.5, 0.5], [0.0, 0.0, 1.0, 1.0]]))
    state = env.reset(genome)
    assert state.cells == ((6, 6), (0, 0))
    assert env.goals == ((6, 6), (11, 11))
    assert state.t == 0


def test_reset_rejects_wrong_agent_count():
    env = GridSpread(EnvConfig(grid_width=5, n_agents=2, max_steps=10))
    with pytest.raises(ValueError):
        env.reset(TaskGenome(np.array([[0.1, 0.1, 0.2, 0.2]])))


def test_wall_clamping():
    for action in range(N_ACTIONS):
        assert move_cell((0, 0), action, 3) == (max(MOVES[action][0], 0), max(MOVES[action][1], 0))
        x, y = move_cell((2, 2), action, 3)
        assert 0 <= x < 3 and 0 <= y < 3


def test_reward_requires_every_agent_on_its_goal():
    cfg = EnvConfig(grid_width=5, n_agents=2, max_steps=10)
    env = GridSpread(cfg)
    env.reset(_genome_for_cells([(1, 1), (3, 3)], [(1, 2), (3, 3)], 5))
    # agent 0 steps up onto its goal while agent 1 stays on its own: joint success
    state, reward, done = env.step((1, 0))
    assert (reward, done) == (1, True)
    assert state.cells == ((1, 2), (3, 3))

    env.reset(_genome_for_cells([(1, 1), (3, 3)], [(1, 2), (3, 0)], 5))
    # agent 0 reaches its goal but agent 1 does not: no reward
    _, reward, done = env.step((1, 0))
    assert (reward, done) == (0, False)


def test_transition_reward_on_arrival_only():
    # dynamic variant: run steps and confirm reward fires exactly when the
    # post-move joint position equals the goals
    width = 3
    cfg = EnvConfig(grid_width=width, n_agents=2, max_steps=6)
    env = GridSpread(cfg)
    rng = np.random.default_rng(31)
    cells = [(x, y) for x in range(width) for y in range(width)]
    for _ in range(300):
        starts = [cells[rng.integers(len(cells))], cells[rng.integers(len(cells))]]
        goals = [cells[rng.integers(len(cells))], cells[rng.integers(len(cells))]]
        state = env.reset(_genome_for_cells(starts, goals, width))
        done = False
        total = 0
        while not done:
            actions = tuple(int(a) for a in rng.integers(0, N_ACTIONS, 2))
            state, reward, done = env.step(actions)
            assert reward == (1 if state.cells == env.goals else 0)
            total += reward
        assert total in (0, 1)


def test_episode_ends_at_step_cap():
    cfg = EnvConfig(grid_width=4, n_agents=1, max_steps=5)
    env = GridSpread(cfg)
    env.reset(_genome_for_cells([(0, 0)], [(3, 3)], 4))
    done = False
    steps = 0
    while not done:
        state, reward, done = env.step((0,))  # staying forever never reaches the goal
        steps += 1
    assert steps == 5
    assert reward == 0
    assert state.t == 5


def test_step_after_done_raises():
    cfg = EnvConfig(grid_width=4, n_agents=1, max_steps=3)
    env = GridSpread(cfg)
    env.reset(_genome_for_cells([(0, 0)], [(0, 1)], 4))
    _, reward, done = env.step((1,))
    assert reward == 1 and done
    with pytest.raises(RuntimeError):
        env.step((0,))
    fresh = GridSpread(cfg)
    with pytest.raises(RuntimeError):
        fresh.step((0,))


def test_agents_may_overlap():
    cfg = EnvConfig(grid_width=3, n_agents=2, max_steps=5)
    env = GridSpread(cfg)
    env.reset(_genome_for_cells([(0, 0), (0, 1)], [(2, 2), (2, 2)], 3))
    state, _, _ = env.step((1, 0))  # agent 0 moves up into agent 1's cell
    assert state.cells[0] == state.cells[1] == (0, 1)


def test_transitions_are_deterministic():
    cfg = EnvConfig(grid_width=5, n_agents=2, max_steps=8)
    genome = _genome_for_cells([(0, 0), (4, 4)], [(2, 2), (1, 3)], 5)
    actions = [(1, 2), (4, 3), (0, 0), (3, 1)]
    trails = []
    for _ in range(2):
        env = GridSpread(cfg)
        env.reset(genome)
        trail = []
        for joint in actions:
            trail.append(env.step(joint))
        trails.append(trail)
    assert trails[0] == trails[1]


def test_obs_index_examples_and_bijection():
    # the index is row-major over the goal offset (gx - x, gy - y), each
    # component shifted by W - 1 = 2 into [0, 2W - 2]
    cfg = EnvConfig(grid_width=3, n_agents=1, max_steps=5)
    assert obs_index((2, 2), (0, 0), cfg) == 0  # offset (-2, -2)
    assert obs_index((1, 1), (1, 1), cfg) == 12  # offset (0, 0)
    assert obs_index((0, 0), (0, 0), cfg) == 12
    assert obs_index((0, 0), (2, 2), cfg) == 24  # offset (2, 2)
    assert obs_index((0, 0), (0, 1), cfg) == 2 * 5 + 3  # offset (0, 1)
    seen = set()
    for x in range(3):
        for y in range(3):
            for gx in range(3):
                for gy in range(3):
                    seen.add(obs_index((x, y), (gx, gy), cfg))
    assert seen == set(range(5 ** 2))
    assert cfg.n_states == 5 ** 2


def test_obs_index_observes_own_agent_only():
    # the index depends only on the agent's own cell and goal, so it is the
    # same regardless of where the other agent stands; it sees only their
    # offset, so the same offset from another cell gives the same index
    cfg = EnvConfig(grid_width=4, n_agents=2, max_steps=5)
    idx = obs_index((1, 2), (3, 0), cfg)  # offset (2, -2)
    assert idx == 5 * 7 + 1
    assert obs_index((0, 3), (2, 1), cfg) == idx


def test_env_config_validation():
    with pytest.raises(ValueError):
        EnvConfig(grid_width=1, n_agents=1, max_steps=5)
    with pytest.raises(ValueError):
        EnvConfig(grid_width=3, n_agents=0, max_steps=5)
    with pytest.raises(ValueError):
        EnvConfig(grid_width=3, n_agents=1, max_steps=0)
    assert EnvConfig().n_states == 23 ** 2
