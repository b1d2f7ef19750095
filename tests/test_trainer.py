"""Tabular learner: rollouts, barrier training, evaluation, shared-reward coupling."""

import math

import numpy as np
import pytest

from coevo_curriculum.gridworld import EnvConfig, GridSpread, MOVES, N_ACTIONS, obs_index
from coevo_curriculum.streams import stream
from coevo_curriculum.tasks import TaskGenome, opposite_corner_target
from coevo_curriculum.trainer import (LearnerParams, PolicyTable, evaluate_target, rollout,
                                      train_on_tasks)

PARAMS = LearnerParams()


def _policy(cfg, params=PARAMS):
    return PolicyTable.zeros(cfg, params)


def _genome_for_cells(starts, goals, width):
    blocks = []
    for (sx, sy), (gx, gy) in zip(starts, goals):
        blocks.append([(sx + 0.5) / width, (sy + 0.5) / width,
                       (gx + 0.5) / width, (gy + 0.5) / width])
    return TaskGenome(np.array(blocks))


def _episode_rng(seed):
    return lambda task_idx, episode: stream(seed, 3, 0, task_idx, episode)


def _random_walk_success_oracle(width, start, goal, max_steps):
    # exact enumeration: uniform-action occupancy distribution with an
    # absorbing goal, accumulating the mass that arrives each step
    prob = {start: 1.0}
    success = 0.0
    for _ in range(max_steps):
        nxt = {}
        for cell, mass in prob.items():
            for action in range(N_ACTIONS):
                dx, dy = MOVES[action]
                moved = (min(max(cell[0] + dx, 0), width - 1),
                         min(max(cell[1] + dy, 0), width - 1))
                nxt[moved] = nxt.get(moved, 0.0) + mass / N_ACTIONS
        success += nxt.pop(goal, 0.0)
        prob = nxt
    return success


def test_zero_distance_task_succeeds_greedily_on_first_step():
    cfg = EnvConfig(grid_width=5, n_agents=2, max_steps=10)
    env = GridSpread(cfg)
    genome = _genome_for_cells([(2, 2), (4, 0)], [(2, 2), (4, 0)], 5)
    ok, steps = rollout(env, genome, _policy(cfg), learn=False, rng=stream(0, 9), epsilon=0.0)
    assert ok
    assert steps == 1
    assert env.state.cells == ((2, 2), (4, 0))  # untrained argmax holds position


def test_random_walk_rate_matches_enumeration_oracle():
    width, max_steps = 3, 5
    start, goal = (0, 0), (1, 1)
    exact = _random_walk_success_oracle(width, start, goal, max_steps)
    cfg = EnvConfig(grid_width=width, n_agents=1, max_steps=max_steps)
    env = GridSpread(cfg)
    genome = _genome_for_cells([start], [goal], width)
    policy = _policy(cfg)
    episodes = 10_000
    wins = 0
    for episode in range(episodes):
        ok, _ = rollout(env, genome, policy, learn=False,
                        rng=stream(5, 3, 0, 0, episode), epsilon=1.0)
        wins += int(ok)
    observed = wins / episodes
    sigma = math.sqrt(exact * (1.0 - exact) / episodes)
    assert abs(observed - exact) <= 3.0 * sigma


def test_rollout_without_learning_keeps_policy_bit_identical():
    cfg = EnvConfig(grid_width=4, n_agents=2, max_steps=8)
    policy = _policy(cfg)
    policy.q += 0.123  # non-trivial table
    before = policy.q.copy()
    env = GridSpread(cfg)
    genome = _genome_for_cells([(0, 0), (3, 3)], [(2, 2), (1, 1)], 4)
    for episode in range(20):
        rollout(env, genome, policy, learn=False, rng=stream(7, 3, 0, 0, episode))
    assert np.array_equal(policy.q, before)


def test_learning_rollout_updates_only_visited_entries():
    cfg = EnvConfig(grid_width=4, n_agents=1, max_steps=6)
    policy = _policy(cfg)
    env = GridSpread(cfg)
    genome = _genome_for_cells([(0, 0)], [(0, 1)], 4)
    ok, steps = rollout(env, genome, policy, learn=True, rng=stream(8, 0), epsilon=0.0)
    # greedy untrained stays at (0,0), never finds the goal, reward stays 0
    assert not ok
    assert steps == cfg.max_steps
    assert env.state.cells == ((0, 0),)
    assert not policy.q.any()


def _reference_train(tasks, policy, episodes, cfg, episode_rng):
    """train_on_tasks on the array, through PolicyTable's per-call clone, act and update."""
    outcomes, experience = [], []
    for index, task in enumerate(tasks):
        local = policy.clone()
        env = GridSpread(cfg)
        successes = steps = 0
        for episode in range(episodes):
            rng = episode_rng(index, episode)
            state = env.reset(task)
            obs = [obs_index(cell, goal, cfg) for cell, goal in zip(state.cells, env.goals)]
            done = terminal = False
            while not done:
                actions = [local.act(i, obs[i], rng) for i in range(cfg.n_agents)]
                state, reward, done = env.step(tuple(actions))
                nxt = [obs_index(cell, goal, cfg) for cell, goal in zip(state.cells, env.goals)]
                terminal = reward == 1
                for i in range(cfg.n_agents):
                    local.update(i, obs[i], actions[i], reward, nxt[i], terminal)
                experience.append((obs, actions, reward, nxt, terminal))
                obs = nxt
                steps += 1
            successes += int(terminal)
        outcomes.append((index, episodes, successes, steps))
    for obs, actions, reward, nxt, terminal in experience:
        for i in range(cfg.n_agents):
            policy.update(i, obs[i], actions[i], reward, nxt[i], terminal)
    return outcomes


def test_train_on_tasks_matches_numpy_reference_bit_for_bit():
    cfg = EnvConfig(grid_width=5, n_agents=2, max_steps=12)
    params = LearnerParams(learning_rate=0.3, discount=0.9)
    batch = [_genome_for_cells([(0, 0), (4, 4)], [(1, 1), (3, 3)], 5),
             _genome_for_cells([(2, 2), (0, 4)], [(2, 3), (1, 4)], 5),
             _genome_for_cells([(4, 0), (1, 1)], [(3, 1), (1, 1)], 5)]
    q = np.zeros(cfg.q_shape)
    reference = _policy(cfg, params)
    for epoch, epsilon in enumerate((0.9, 0.5, 0.2, 0.0)):
        reference.epsilon = epsilon
        rng = _episode_rng(90 + epoch)
        outcomes = train_on_tasks(batch, q, params, epsilon, 6, cfg, rng)
        expected = _reference_train(batch, reference, 6, cfg, rng)
        assert [(o.task_index, o.episodes, o.successes, o.env_steps) for o in outcomes] == expected
        assert q.tobytes() == reference.q.tobytes()
    assert q.any()  # rewards were found, so the updates were not all zero


def test_trivial_batch_reaches_perfect_success_rate():
    cfg = EnvConfig(grid_width=6, n_agents=2, max_steps=15)
    q = np.zeros(cfg.q_shape)
    batch = [_genome_for_cells([(i, i), (5 - i, i)], [(i, i), (5 - i, i)], 6)
             for i in range(4)]
    for epoch in range(2):
        # greedy (epsilon 0): stay wins immediately on zero-distance tasks
        outcomes = train_on_tasks(batch, q, PARAMS, 0.0, 10, cfg, _episode_rng(40 + epoch))
    assert all(out.success_rate == 1.0 for out in outcomes)
    assert all(out.episodes == 10 for out in outcomes)


def test_empty_batch_is_a_no_op():
    cfg = EnvConfig(grid_width=4, n_agents=1, max_steps=5)
    q = np.zeros(cfg.q_shape)
    assert train_on_tasks([], q, PARAMS, PARAMS.epsilon, 5, cfg, _episode_rng(1)) == []
    assert not q.any()


def test_train_on_tasks_is_deterministic_for_fixed_seed():
    cfg = EnvConfig(grid_width=5, n_agents=2, max_steps=10)
    batch = [_genome_for_cells([(0, 0), (4, 4)], [(1, 1), (3, 3)], 5),
             _genome_for_cells([(2, 2), (0, 4)], [(2, 3), (1, 4)], 5)]
    runs = []
    for _ in range(2):
        q = np.zeros(cfg.q_shape)
        outcomes = train_on_tasks(batch, q, PARAMS, 0.3, 8, cfg, _episode_rng(77))
        runs.append(([(o.task_index, o.successes, o.env_steps) for o in outcomes], q))
    assert runs[0][0] == runs[1][0]
    assert np.array_equal(runs[0][1], runs[1][1])


def test_shared_reward_never_fires_on_partial_success():
    # agent 0 sits on its goal; agent 1 cannot reach its goal within the cap,
    # so no reward and no positive update target can ever appear
    cfg = EnvConfig(grid_width=8, n_agents=2, max_steps=3)
    q = np.zeros(cfg.q_shape)
    genome = _genome_for_cells([(0, 0), (7, 7)], [(0, 0), (0, 0)], 8)
    batch = [genome]
    for epoch in range(5):
        outcomes = train_on_tasks(batch, q, PARAMS, 0.5, 10, cfg, _episode_rng(50 + epoch))
        assert outcomes[0].successes == 0
    assert q.min() == 0.0
    assert q.max() == 0.0  # zero reward everywhere keeps every target at zero


def test_q_values_stay_bounded():
    cfg = EnvConfig(grid_width=3, n_agents=2, max_steps=10)
    params = LearnerParams(learning_rate=0.5, discount=0.95, epsilon=1.0)
    q = np.zeros(cfg.q_shape)
    batch = [_genome_for_cells([(0, 0), (2, 2)], [(2, 2), (0, 0)], 3),
             _genome_for_cells([(1, 1), (0, 2)], [(1, 1), (0, 2)], 3)]
    for epoch in range(30):
        train_on_tasks(batch, q, params, params.epsilon, 10, cfg, _episode_rng(60 + epoch))
    bound = 1.0 / (1.0 - params.discount)
    assert q.min() >= 0.0
    assert q.max() <= bound


def test_monotone_solvability_on_trivial_batch():
    cfg = EnvConfig(grid_width=5, n_agents=2, max_steps=40)
    params = LearnerParams(epsilon=0.5, epsilon_decay=0.8, epsilon_floor=0.02)
    batch = [_genome_for_cells([(i, j), (4 - i, j)], [(i, j), (4 - i, j)], 5)
             for i, j in ((0, 0), (1, 2), (3, 3), (4, 1))]
    epochs = 5
    sums = [0.0] * epochs
    seeds = 10
    for seed in range(seeds):
        q = np.zeros(cfg.q_shape)
        for epoch in range(1, epochs + 1):
            outcomes = train_on_tasks(batch, q, params, params.epsilon_at(epoch), 20, cfg,
                                      lambda t, e, _s=seed, _ep=epoch: stream(_s, 3, _ep, t, e))
            sums[epoch - 1] += sum(out.success_rate for out in outcomes) / len(outcomes)
    means = [value / seeds for value in sums]
    for later, earlier in zip(means[1:], means[:-1]):
        assert later >= earlier


def test_evaluate_target_is_pure_and_greedy():
    cfg = EnvConfig(grid_width=12, n_agents=2, max_steps=40)
    q = np.zeros(cfg.q_shape)
    target = opposite_corner_target(2)
    rate = evaluate_target(q, target, cfg)
    assert rate < 0.1  # untrained policy cannot cross the grid
    assert not q.any()


def test_evaluate_on_zero_distance_target_is_perfect():
    cfg = EnvConfig(grid_width=4, n_agents=2, max_steps=5)
    genome = _genome_for_cells([(1, 1), (2, 2)], [(1, 1), (2, 2)], 4)
    assert evaluate_target(np.zeros(cfg.q_shape), genome, cfg) == 1.0


def test_policy_trained_to_convergence_beats_090():
    width = 3
    cfg = EnvConfig(grid_width=width, n_agents=2, max_steps=10)
    target = _genome_for_cells([(0, 0), (2, 2)], [(2, 0), (0, 2)], width)
    params = LearnerParams(learning_rate=0.2, discount=0.95, epsilon=1.0)
    q = np.zeros(cfg.q_shape)
    for round_idx in range(25):
        # explore for a while, then cool down and exploit
        epsilon = max(0.05, 0.8 ** max(0, round_idx - 5))
        train_on_tasks([target], q, params, epsilon, 40, cfg,
                       lambda t, e, _r=round_idx: stream(123, 3, _r, t, e))
    rate = evaluate_target(q, target, cfg)
    assert rate > 0.9


def test_learner_params_validation_and_schedule():
    with pytest.raises(ValueError):
        LearnerParams(learning_rate=0.0)
    with pytest.raises(ValueError):
        LearnerParams(discount=1.0)
    with pytest.raises(ValueError):
        LearnerParams(epsilon=1.5)
    schedule = LearnerParams(epsilon=0.2, epsilon_decay=0.995, epsilon_floor=0.02)
    assert schedule.epsilon_at(1) == 0.2
    assert schedule.epsilon_at(2) == pytest.approx(0.2 * 0.995)
    assert schedule.epsilon_at(10_000) == 0.02


def test_train_on_tasks_argument_errors():
    cfg = EnvConfig(grid_width=4, n_agents=1, max_steps=5)
    with pytest.raises(ValueError):
        train_on_tasks([], np.zeros(cfg.q_shape), PARAMS, PARAMS.epsilon, 0, cfg,
                       _episode_rng(1))
