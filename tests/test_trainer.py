"""Tabular learner: rollouts, barrier training, evaluation, shared-reward coupling."""

import math

import numpy as np
import pytest

from coevo_curriculum.config import config_from_dict
from coevo_curriculum.gridworld import (EnvConfig, GridSpread, MOVES, N_ACTIONS, move_cell,
                                        obs_index)
from coevo_curriculum.harness import run_experiment
from coevo_curriculum.snapshots import load_snapshot
from coevo_curriculum.streams import stream
from coevo_curriculum.tasks import TaskGenome, opposite_corner_target
from coevo_curriculum.trainer import (LearnerParams, PolicyTable, _lane_tables, _lockstep,
                                      _prepass, _replay, _start_and_goal_cells, _successor_table,
                                      evaluate_target, greedy_success, rollout, train_on_tasks)

PARAMS = LearnerParams()
_RIGHT, _LEFT, _UP, _DOWN = (MOVES.index(move) for move in ((1, 0), (-1, 0), (0, 1), (0, -1)))


def _policy(cfg):
    return PolicyTable(np.zeros(cfg.q_shape))


def _genome_for_cells(starts, goals, width):
    blocks = []
    for (sx, sy), (gx, gy) in zip(starts, goals):
        blocks.append([(sx + 0.5) / width, (sy + 0.5) / width,
                       (gx + 0.5) / width, (gy + 0.5) / width])
    return TaskGenome(np.array(blocks))


def _rng(seed):
    return stream(seed, 3, 0)


def _blocks(tasks):
    """The (B, n_agents, 4) block stack that ``train_on_tasks`` takes."""
    return np.stack([task.blocks for task in tasks])


def _train(tasks, q, *args):
    """``train_on_tasks`` on the stack of ``tasks``, its two count arrays as lists."""
    successes, steps = train_on_tasks(_blocks(tasks), q, *args)
    assert successes.dtype.kind == steps.dtype.kind == "i"
    return successes.tolist(), steps.tolist()


def _draws(rng, cfg, episodes=1):
    """An episode-major block of uniforms in ``rollout``'s (max_steps, n_agents, 2) layout."""
    return rng.random((episodes, cfg.max_steps, cfg.n_agents, 2))


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
    ok, steps = rollout(env, genome, _policy(cfg), _draws(stream(0, 9), cfg)[0], epsilon=0.0)
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
    for draws in _draws(stream(5, 3, 0), cfg, episodes):
        ok, _ = rollout(env, genome, policy, draws, epsilon=1.0)
        wins += int(ok)
    observed = wins / episodes
    sigma = math.sqrt(exact * (1.0 - exact) / episodes)
    assert abs(observed - exact) <= 3.0 * sigma


def test_rollout_without_learning_keeps_policy_bit_identical():
    cfg = EnvConfig(grid_width=4, n_agents=2, max_steps=8)
    policy = _policy(cfg)
    policy.q += 0.123  # non-trivial table
    policy.q[0, 0] = -0.0  # a learning update would write +0.0 over it
    before = policy.q.copy()
    env = GridSpread(cfg)
    genome = _genome_for_cells([(0, 0), (3, 3)], [(2, 2), (1, 1)], 4)
    for epsilon in (PARAMS.epsilon, 1.0):  # 1.0 explores on every step
        for draws in _draws(stream(7, 3, 0), cfg, 20):
            rollout(env, genome, policy, draws, epsilon)
    assert np.array_equal(policy.q.view("<u8"), before.view("<u8"))


def test_learning_rollout_updates_only_visited_entries():
    cfg = EnvConfig(grid_width=4, n_agents=1, max_steps=6)
    policy = _policy(cfg)
    env = GridSpread(cfg)
    genome = _genome_for_cells([(0, 0)], [(0, 1)], 4)
    ok, steps = rollout(env, genome, policy, _draws(stream(8, 0), cfg)[0], epsilon=0.0,
                        learner=PARAMS)
    # greedy untrained stays at (0,0), never finds the goal, reward stays 0
    assert not ok
    assert steps == cfg.max_steps
    assert env.state.cells == ((0, 0),)
    assert not policy.q.any()


def _reference_train(tasks, policy, learner, epsilon, episodes, cfg, rng):
    """train_on_tasks through ``rollout``, with its arguments in its order: each task's
    episodes learn on a clone of the incoming policy, and every clone's updates are then
    replayed into ``policy`` in order. Returns each task's successes and env steps, as
    lists."""
    draws = rng.random((len(tasks), episodes, cfg.max_steps, cfg.n_agents, 2))
    env = GridSpread(cfg)
    successes, steps, updates = [], [], []
    for index, task in enumerate(tasks):
        local = policy.clone()

        def update(*args, own_update=local.update):
            updates.append(args)
            own_update(*args)

        local.update = update
        results = [rollout(env, task, local, block, epsilon, learner) for block in draws[index]]
        successes.append(sum(ok for ok, _ in results))
        steps.append(sum(taken for _, taken in results))
    for args in updates:
        policy.update(*args)
    return successes, steps


def test_train_on_tasks_matches_numpy_reference_bit_for_bit():
    cfg = EnvConfig(grid_width=5, n_agents=2, max_steps=12)
    params = LearnerParams(learning_rate=0.3, discount=0.9)
    batch = [_genome_for_cells([(0, 0), (4, 4)], [(1, 1), (3, 3)], 5),
             _genome_for_cells([(2, 2), (0, 4)], [(2, 3), (1, 4)], 5),
             _genome_for_cells([(4, 0), (1, 1)], [(3, 1), (1, 1)], 5)]
    q = np.zeros(cfg.q_shape)
    reference = _policy(cfg)
    for epoch, epsilon in enumerate((0.9, 0.5, 0.2, 0.0)):
        counts = _train(batch, q, params, epsilon, 6, cfg, _rng(90 + epoch))
        assert counts == _reference_train(batch, reference, params, epsilon, 6, cfg,
                                          _rng(90 + epoch))
        assert q.tobytes() == reference.q.tobytes()
    assert q.any()  # rewards were found, so the updates were not all zero


def _random_batch(cfg, n_tasks, seed):
    """Tasks with random cells; every other one has zero distance, so lanes end apart."""
    rng = np.random.default_rng(seed)
    width = cfg.grid_width
    batch = []
    for index in range(n_tasks):
        starts = [tuple(rng.integers(width, size=2)) for _ in range(cfg.n_agents)]
        goals = (starts if index % 2 else
                 [tuple(rng.integers(width, size=2)) for _ in range(cfg.n_agents)])
        batch.append(_genome_for_cells(starts, goals, width))
    return batch


@pytest.mark.parametrize("n_agents", [1, 3, 4])
@pytest.mark.parametrize("width,max_steps", [(2, 1), (2, 12), (6, 1), (6, 12)])
@pytest.mark.parametrize("epsilon", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("n_tasks,episodes", [(1, 1), (1, 3), (5, 1), (5, 3)])
def test_train_on_tasks_matches_the_oracle_across_shapes(n_agents, width, max_steps, epsilon,
                                                         n_tasks, episodes):
    cfg = EnvConfig(grid_width=width, n_agents=n_agents, max_steps=max_steps)
    params = LearnerParams(learning_rate=0.5, discount=0.9)
    batch = _random_batch(cfg, n_tasks, seed=width * 100 + max_steps)
    q = np.zeros(cfg.q_shape)
    reference = _policy(cfg)
    for epoch in range(2):
        if epoch:
            # a non-trivial table with ties, so first-argmax and future maxima matter
            q[:] = np.round(np.random.default_rng(n_agents).random(cfg.q_shape), 1)
            reference.q[:] = q
        counts = _train(batch, q, params, epsilon, episodes, cfg, _rng(epoch))
        assert counts == _reference_train(batch, reference, params, epsilon, episodes, cfg,
                                          _rng(epoch))
        assert q.tobytes() == reference.q.tobytes()


def _near_and_far_batch(cfg, n_tasks, far_first, seed):
    """Zero-distance tasks alternate with far ones (start cells near one corner, goal cells
    near the opposite one); task 0 is far iff ``far_first``."""
    rng = np.random.default_rng(seed)
    width = cfg.grid_width
    batch = []
    for index in range(n_tasks):
        if (index % 2 == 0) == far_first:
            starts = [tuple(rng.integers(3, size=2)) for _ in range(cfg.n_agents)]
            goals = [tuple(width - 1 - rng.integers(3, size=2)) for _ in range(cfg.n_agents)]
        else:
            starts = goals = [tuple(rng.integers(width, size=2)) for _ in range(cfg.n_agents)]
        batch.append(_genome_for_cells(starts, goals, width))
    return batch


@pytest.mark.parametrize("n_tasks,episodes", [(16, 10), (64, 2)])
@pytest.mark.parametrize("far_first", [False, True])
def test_train_on_tasks_matches_the_oracle_at_the_benchmark_shapes(n_tasks, episodes,
                                                                    far_first):
    cfg = EnvConfig(grid_width=12, n_agents=2, max_steps=40)
    batch = _near_and_far_batch(cfg, n_tasks, far_first, seed=1)
    q = np.round(np.random.default_rng(1).random(cfg.q_shape), 1)  # ties for the argmax
    reference = PolicyTable(q.copy())
    counts = _train(batch, q, PARAMS, 0.2, episodes, cfg, _rng(1))
    assert counts == _reference_train(batch, reference, PARAMS, 0.2, episodes, cfg, _rng(1))
    assert q.tobytes() == reference.q.tobytes()
    # A lane's steps are the iteration it ended at: task 0 ended last, or alone first.
    _, steps = counts
    if far_first:
        assert steps[0] == max(steps) > min(steps)
    else:
        assert steps[0] < min(steps[1:])


def _first_team_reward(batch, episodes, cfg, epsilon, rng):
    """(iteration, lane) of the batch's first team reward when training starts from an
    all-zero table, or None if no lane wins. Until a lane wins, every update it makes writes
    zero over zero, so its episodes are those of ``rollout`` without learning."""
    draws = rng.random((len(batch), episodes, cfg.max_steps, cfg.n_agents, 2))
    env, table = GridSpread(cfg), _policy(cfg)
    first = None
    for lane, task in enumerate(batch):
        iteration = 0
        for block in draws[lane]:
            ok, steps = rollout(env, task, table, block, epsilon)
            iteration += steps
            if ok:
                if first is None or iteration < first[0]:
                    first = (iteration, lane)
                break
    return first


class _FixedDraws:
    """A stand-in generator whose one ``random`` call returns a given block."""

    def __init__(self, block):
        self.block = block

    def random(self, shape):
        assert shape == self.block.shape
        return self.block


# Batches around the pre-pass of train_on_tasks (walk every episode at once while every bit of
# q is zero). No lane of _FAR can finish within a step cap of 4. In _LATE_WIN, lane 0 cannot,
# lanes 1 and 2 are one move from their goals, and at seed 4 the first team reward falls in
# lane 2 at iteration 9, within its third episode.
_FAR = [_genome_for_cells([(0, 0), (5, 5)], [(5, 5), (0, 0)], 6),
        _genome_for_cells([(0, 5), (5, 0)], [(5, 0), (0, 5)], 6),
        _genome_for_cells([(1, 1), (4, 4)], [(5, 4), (0, 1)], 6)]
_LATE_WIN = [_genome_for_cells([(0, 0)], [(3, 3)], 4), _genome_for_cells([(1, 1)], [(1, 2)], 4),
             _genome_for_cells([(2, 0)], [(3, 0)], 4)]


def _script_a_win(block, lane, episode, first, moves):
    """_FAR with lane ``lane`` replaced by a task whose first agent starts at (0, 0) and whose
    second sits on its goal. In place, the draws ``block`` of that lane act greedily (so stay,
    on an all-zero table), except that in episode ``episode`` its first agent explores with
    ``moves`` from step ``first`` on; the task's goal is where they lead."""
    goal = tuple(np.sum([MOVES[action] for action in moves], axis=0).tolist())
    batch = list(_FAR)
    batch[lane] = _genome_for_cells([(0, 0), (5, 5)], [goal, (5, 5)], 6)
    block[lane, ..., 0] = 0.99
    for step, action in enumerate(moves, first):
        block[lane, episode, step, 0] = (0.0, (action + 0.5) / N_ACTIONS)
    return batch


@pytest.mark.parametrize("case", ["zero table, no win", "zero table, late win",
                                  "zero table, win at the last step cap",
                                  "zero table, win in a second episode",
                                  "zero table, win left before the cap",
                                  "-0.0 entries, no win", "non-zero table, no win"])
def test_train_on_tasks_matches_the_oracle_around_the_pre_pass(case):
    late = case.endswith("late win")
    cfg = EnvConfig(grid_width=4 if late else 6, n_agents=1 if late else 2, max_steps=4)
    epsilon, episodes = 0.5, 4 if late else 3
    batch = _LATE_WIN if late else _FAR
    block = _rng(4).random((len(batch), episodes, cfg.max_steps, cfg.n_agents, 2))
    if case.endswith("last step cap"):
        # right, right, up, up: lane 2 wins on the cap step of its last episode
        batch = _script_a_win(block, 2, 2, 0, (4, 4, 1, 1))
    elif case.endswith("second episode"):
        # lane 1 stays through episode 0, then wins on step 2 of episode 1
        batch = _script_a_win(block, 1, 1, 1, (4, 1))
    elif case.endswith("left before the cap"):
        # lane 2 reaches its goals on step 3 of episode 0 and ends there; walked on past
        # them, as the pre-pass walks every episode, it steps off them on step 4, the cap
        batch = _script_a_win(block, 2, 0, 1, (_RIGHT, _UP))
        block[2, 0, 3, 0] = (0.0, (_LEFT + 0.5) / N_ACTIONS)
    q = np.zeros(cfg.q_shape)
    if case.startswith("-0.0"):
        q[:, ::2] = -0.0  # equal to zero by value, not by bits
    elif case.startswith("non-zero"):
        q[:] = np.round(np.random.default_rng(2).random(cfg.q_shape), 1)
    before = q.copy()
    reference = PolicyTable(q.copy())
    counts = _train(batch, q, PARAMS, epsilon, episodes, cfg, _FixedDraws(block))
    assert counts == _reference_train(batch, reference, PARAMS, epsilon, episodes, cfg,
                                      _FixedDraws(block))
    assert np.array_equal(q.view("<u8"), reference.q.view("<u8"))
    # Each case's premise, so that it keeps testing what it names.
    first = _first_team_reward(batch, episodes, cfg, epsilon, _FixedDraws(block))
    successes, _ = counts
    if case.endswith("no win"):
        assert first is None and not any(successes)
        unchanged = np.array_equal(q.view("<u8"), before.view("<u8"))
        assert unchanged == case.startswith("zero")  # -0.0 turns to +0.0; values decay
    elif late:
        # not lane 0, not the first iteration, not a step cap (iterations 4 and 8)
        assert first == (9, 2)
        assert q.any()
    elif case.endswith("last step cap"):
        # the last step of the last episode of the last lane: the batch's last walker
        assert first == (3 * cfg.max_steps, 2) and successes == [0, 0, 1]
    elif case.endswith("left before the cap"):
        assert first == (3, 2) and successes == [0, 0, 1]
    else:
        assert first == (cfg.max_steps + 3, 1) and successes == [0, 1, 0]


def test_each_lane_trains_as_its_task_alone():
    cfg = EnvConfig(grid_width=4, n_agents=3, max_steps=10)
    batch = _random_batch(cfg, 4, seed=3)
    q = np.round(np.random.default_rng(5).random(cfg.q_shape), 1)
    block = stream(11, 3, 1).random((len(batch), 3, cfg.max_steps, cfg.n_agents, 2))
    successes, steps = _train(batch, q.copy(), PARAMS, 0.4, 3, cfg, _FixedDraws(block))
    for index, task in enumerate(batch):
        alone = _train([task], q.copy(), PARAMS, 0.4, 3, cfg, _FixedDraws(block[index:index + 1]))
        assert alone == ([successes[index]], [steps[index]])
    assert len(set(steps)) > 1  # the lanes ended apart


def test_trivial_batch_reaches_perfect_success_rate():
    cfg = EnvConfig(grid_width=6, n_agents=2, max_steps=15)
    q = np.zeros(cfg.q_shape)
    batch = [_genome_for_cells([(i, i), (5 - i, i)], [(i, i), (5 - i, i)], 6)
             for i in range(4)]
    for epoch in range(2):
        # greedy (epsilon 0): stay wins immediately on zero-distance tasks
        successes, steps = _train(batch, q, PARAMS, 0.0, 10, cfg, _rng(40 + epoch))
    assert successes == [10] * len(batch)
    assert steps == [10] * len(batch)  # every episode won on its first step


def test_empty_batch_is_a_no_op():
    cfg = EnvConfig(grid_width=4, n_agents=2, max_steps=5)
    q = np.round(np.random.default_rng(3).random(cfg.q_shape), 1)
    q[0, 0] = -0.0
    before = q.copy()
    rng = _rng(1)
    successes, steps = train_on_tasks(np.zeros((0, 2, 4)), q, PARAMS, PARAMS.epsilon, 5, cfg,
                                      rng)
    for counts in (successes, steps):
        assert counts.shape == (0,) and counts.dtype.kind == "i"
    assert np.array_equal(q.view("<u8"), before.view("<u8"))
    assert rng.random() == _rng(1).random()  # nothing was drawn


def test_train_on_tasks_is_deterministic_for_fixed_seed():
    cfg = EnvConfig(grid_width=5, n_agents=2, max_steps=10)
    batch = [_genome_for_cells([(0, 0), (4, 4)], [(1, 1), (3, 3)], 5),
             _genome_for_cells([(2, 2), (0, 4)], [(2, 3), (1, 4)], 5)]
    runs = []
    for _ in range(2):
        q = np.zeros(cfg.q_shape)
        runs.append((_train(batch, q, PARAMS, 0.3, 8, cfg, _rng(77)), q))
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
        successes, _ = _train(batch, q, PARAMS, 0.5, 10, cfg, _rng(50 + epoch))
        assert successes == [0]
    assert q.min() == 0.0
    assert q.max() == 0.0  # zero reward everywhere keeps every target at zero


def test_q_values_stay_bounded():
    cfg = EnvConfig(grid_width=3, n_agents=2, max_steps=10)
    params = LearnerParams(learning_rate=0.5, discount=0.95, epsilon=1.0)
    q = np.zeros(cfg.q_shape)
    batch = [_genome_for_cells([(0, 0), (2, 2)], [(2, 2), (0, 0)], 3),
             _genome_for_cells([(1, 1), (0, 2)], [(1, 1), (0, 2)], 3)]
    for epoch in range(30):
        _train(batch, q, params, params.epsilon, 10, cfg, _rng(60 + epoch))
    bound = 1.0 / (1.0 - params.discount)
    assert q.min() >= 0.0
    assert q.max() <= bound


def test_monotone_solvability_on_trivial_batch():
    cfg = EnvConfig(grid_width=5, n_agents=2, max_steps=40)
    params = LearnerParams(epsilon=0.5, epsilon_decay=0.8, epsilon_floor=0.02)
    batch = [_genome_for_cells([(i, j), (4 - i, j)], [(i, j), (4 - i, j)], 5)
             for i, j in ((0, 0), (1, 2), (3, 3), (4, 1))]
    epochs = 5
    # Successes are summed as integers: every (seed, task) runs 20 episodes, so the
    # counts order the epochs as the mean rates do, without float rounding.
    successes = [0] * epochs
    for seed in range(10):
        q = np.zeros(cfg.q_shape)
        for epoch in range(1, epochs + 1):
            counts, _ = _train(batch, q, params, params.epsilon_at(epoch), 20, cfg,
                               stream(seed, 3, epoch))
            successes[epoch - 1] += sum(counts)
    for later, earlier in zip(successes[1:], successes[:-1]):
        assert later >= earlier


def test_evaluate_target_is_pure_and_greedy():
    cfg = EnvConfig(grid_width=12, n_agents=2, max_steps=40)
    q = np.zeros(cfg.q_shape)
    q.setflags(write=False)  # any write raises
    target = opposite_corner_target(2)
    rate = evaluate_target(q, target, cfg)
    assert rate < 0.1  # untrained policy cannot cross the grid
    assert not q.any()


def test_evaluate_target_follows_the_greedy_actions():
    # Only "right" has value on the walk from (0, 2) to (3, 2), three cells away.
    cfg = EnvConfig(grid_width=5, n_agents=1, max_steps=3)
    start, goal = (0, 2), (3, 2)
    q = np.zeros(cfg.q_shape)
    for x in range(start[0], goal[0]):
        q[0, obs_index((x, 2), goal, cfg), MOVES.index((1, 0))] = 1.0
    q.setflags(write=False)
    genome = _genome_for_cells([start], [goal], cfg.grid_width)
    assert evaluate_target(q, genome, cfg) == 1.0
    short = EnvConfig(grid_width=5, n_agents=1, max_steps=2)
    assert evaluate_target(q, genome, short) == 0.0


def test_evaluate_on_zero_distance_target_is_perfect():
    cfg = EnvConfig(grid_width=4, n_agents=2, max_steps=5)
    genome = _genome_for_cells([(1, 1), (2, 2)], [(1, 1), (2, 2)], 4)
    assert evaluate_target(np.zeros(cfg.q_shape), genome, cfg) == 1.0


def _greedy_oracle(q, blocks, cfg):
    """``rollout`` without draws on each task of a block stack: (successes, steps) lists."""
    env, policy = GridSpread(cfg), PolicyTable(q)
    episodes = [rollout(env, TaskGenome(task), policy) for task in blocks]
    return [ok for ok, _ in episodes], [steps for _, steps in episodes]


def _ccl_table(cfg, tmp_path):
    """The final Q table of a short ccl run on ``cfg``'s grid."""
    config = config_from_dict({
        "experiment": {"mode": "ccl", "epochs": 6, "episodes_per_task": 4, "master_seed": 3},
        "env": {"grid_width": cfg.grid_width, "n_agents": cfg.n_agents,
                "max_steps": cfg.max_steps},
        "evolution": {"population_size": 8, "batch_size": 4, "knn_k": 2}})
    return load_snapshot(run_experiment(config, run_dir=tmp_path).snapshot_path).policy_q


def _greedy_table(kind, cfg, tmp_path):
    rng = np.random.default_rng(cfg.grid_width * 10 + cfg.n_agents)
    if kind == "zero":
        return np.zeros(cfg.q_shape)
    if kind == "uniform":
        return rng.random(cfg.q_shape)
    if kind == "normal":
        return rng.normal(size=cfg.q_shape)
    if kind == "ties":  # two values only: most rows hold a tie for their maximum
        return rng.integers(2, size=cfg.q_shape).astype(float)
    return _ccl_table(cfg, tmp_path)


@pytest.mark.parametrize("kind", ["zero", "uniform", "normal", "ties", "ccl"])
@pytest.mark.parametrize("width,n_agents,max_steps", [(2, 1, 3), (5, 1, 12), (5, 2, 12),
                                                       (6, 4, 10), (12, 2, 40)])
def test_greedy_success_matches_the_scalar_oracle(kind, width, n_agents, max_steps, tmp_path):
    cfg = EnvConfig(grid_width=width, n_agents=n_agents, max_steps=max_steps)
    q = _greedy_table(kind, cfg, tmp_path)
    q.setflags(write=False)  # any write raises
    rng = np.random.default_rng(width + n_agents)
    # Random tasks, some outside the unit box (discretize clamps them), every fourth with
    # its starts on its goals.
    blocks = rng.uniform(-0.2, 1.2, size=(300, n_agents, 4))
    blocks[::4, :, 2:] = blocks[::4, :, :2]
    got = greedy_success(q, blocks, cfg)
    assert got.dtype == bool and got.shape == (len(blocks),)
    successes, steps = _greedy_oracle(q, blocks, cfg)
    assert got.tolist() == successes
    # Premises: some tasks fail (a random table wins few); on the zero table and the trained
    # one, some win, and the trained table walks some tasks to their goals.
    assert not all(successes)
    if kind in ("zero", "ccl"):
        assert any(successes)
    if kind == "ccl":
        assert any(ok and taken > 1 for ok, taken in zip(successes, steps))


def _steered_table(cfg, steering):
    """An all-zero table but for value 1.0 on agent 0's actions ``steering[offset]`` (one, or
    a tuple of tied ones) at each goal offset ``(dx, dy)`` in ``steering``."""
    q = np.zeros(cfg.q_shape)
    for offset, actions in steering.items():
        q[0, obs_index((0, 0), offset, cfg), actions] = 1.0
    return q


@pytest.mark.parametrize("case", ["stay on the goal offset", "leave the goal offset"])
def test_greedy_success_stops_and_wins_where_the_oracle_does(case):
    cfg = EnvConfig(grid_width=5, n_agents=1, max_steps=4)
    steering = {(4, 0): _RIGHT, (3, 0): _RIGHT, (2, 0): _RIGHT, (1, 0): _RIGHT,
                (0, 4): _UP, (0, 3): _DOWN,  # a period-2 oscillation
                (0, 1): (_UP, _RIGHT)}  # tied: the first maximum, up, breaks the tie
    if case == "leave the goal offset":
        steering[(0, 0)] = _LEFT
    q = _steered_table(cfg, steering)
    q.setflags(write=False)
    lanes = {  # start, goal, expected success with each case's table
        "stuck off its goals": ((4, 4), (0, 4), False, False),
        "period-2 oscillation to the cap": ((2, 0), (2, 4), False, False),
        "wins at step 3": ((0, 2), (3, 2), True, True),
        "wins exactly at max_steps": ((0, 1), (4, 1), True, True),
        "starts on its goals": ((3, 3), (3, 3), True, True),  # leaves, then steps back
        "starts on its goals at a wall": ((0, 3), (0, 3), True, True),
        "a tie broken toward the goal": ((2, 2), (2, 3), True, True),
        "stuck beside lanes that win later": ((1, 4), (1, 0), False, False),
    }
    blocks = np.stack([_genome_for_cells([start], [goal], 5).blocks
                       for start, goal, _, _ in lanes.values()])
    expected = [(stay if case.startswith("stay") else leave)
                for _, _, stay, leave in lanes.values()]
    assert greedy_success(q, blocks, cfg).tolist() == expected
    successes, steps = _greedy_oracle(q, blocks, cfg)
    assert successes == expected
    # Premises: which step each lane ends at in the scalar episode.
    by_name = dict(zip(lanes, steps))
    assert by_name["wins at step 3"] == 3 and by_name["wins exactly at max_steps"] == 4
    assert by_name["period-2 oscillation to the cap"] == by_name["stuck off its goals"] == 4
    assert by_name["starts on its goals"] == (1 if case.startswith("stay") else 2)
    assert by_name["starts on its goals at a wall"] == by_name["a tie broken toward the goal"] == 1


def test_greedy_success_keeps_a_lane_whose_other_agent_moves():
    # Agent 0 sits on its goal and stays; agent 1 walks three cells to its own goal.
    cfg = EnvConfig(grid_width=5, n_agents=2, max_steps=6)
    q = np.zeros(cfg.q_shape)
    for x in range(3):
        q[1, obs_index((x, 0), (3, 0), cfg), _RIGHT] = 1.0
    blocks = _genome_for_cells([(2, 2), (0, 0)], [(2, 2), (3, 0)], 5).blocks[None]
    assert greedy_success(q, blocks, cfg).tolist() == [True]
    assert _greedy_oracle(q, blocks, cfg) == ([True], [3])


def test_greedy_success_of_an_empty_batch():
    cfg = EnvConfig(grid_width=4, n_agents=2, max_steps=5)
    got = greedy_success(np.zeros(cfg.q_shape), np.zeros((0, 2, 4)), cfg)
    assert got.dtype == bool and got.shape == (0,)


def test_policy_trained_to_convergence_beats_090():
    width = 3
    cfg = EnvConfig(grid_width=width, n_agents=2, max_steps=10)
    target = _genome_for_cells([(0, 0), (2, 2)], [(2, 0), (0, 2)], width)
    params = LearnerParams(learning_rate=0.2, discount=0.95, epsilon=1.0)
    q = np.zeros(cfg.q_shape)
    for round_idx in range(25):
        # explore for a while, then cool down and exploit
        epsilon = max(0.05, 0.8 ** max(0, round_idx - 5))
        _train([target], q, params, epsilon, 40, cfg, stream(123, 3, round_idx))
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
        train_on_tasks(np.zeros((0, 1, 4)), np.zeros(cfg.q_shape), PARAMS, PARAMS.epsilon, 0,
                       cfg, _rng(1))


def _poisoned(value):
    blocks = np.full((3, 2, 4), 0.5)
    blocks[1, 1, 2] = value
    return blocks


# Block stacks that a two-agent environment refuses.
_MALFORMED = pytest.mark.parametrize(
    "blocks", [np.full((3, 1, 4), 0.5), np.full((3, 3, 4), 0.5), np.full((3, 2, 3), 0.5),
               np.full((2, 4), 0.5), np.full((1, 3, 2, 4), 0.5), _poisoned(np.nan),
               _poisoned(np.inf), _poisoned(-np.inf)],
    ids=["one agent", "three agents", "last axis 3", "2-d", "4-d", "nan", "inf", "-inf"])


@_MALFORMED
def test_train_on_tasks_refuses_a_malformed_block_stack(blocks):
    cfg = EnvConfig(grid_width=4, n_agents=2, max_steps=5)
    q = np.zeros(cfg.q_shape)
    with pytest.raises(ValueError):
        train_on_tasks(blocks, q, PARAMS, PARAMS.epsilon, 2, cfg, _rng(1))
    assert not q.any()


@_MALFORMED
def test_greedy_success_refuses_what_train_on_tasks_refuses(blocks):
    cfg = EnvConfig(grid_width=4, n_agents=2, max_steps=5)
    q = np.zeros(cfg.q_shape)
    with pytest.raises(ValueError) as trained:
        train_on_tasks(blocks, q, PARAMS, PARAMS.epsilon, 2, cfg, _rng(1))
    with pytest.raises(ValueError) as greedy:
        greedy_success(q, blocks, cfg)
    assert str(greedy.value) == str(trained.value)


@pytest.mark.parametrize("goals,reachable", [([(1, 1), (3, 3)], True),
                                              ([(4, 4), (0, 0)], False)],
                         ids=["reachable", "out of reach"])
def test_a_broadcast_block_stack_trains_as_its_stacked_copy(goals, reachable):
    # The vanilla baseline's batch: one target repeated as a read-only broadcast view.
    cfg = EnvConfig(grid_width=5, n_agents=2, max_steps=6)
    view = np.broadcast_to(_genome_for_cells([(0, 0), (4, 4)], goals, 5).blocks, (4, 2, 4))
    assert not view.flags.writeable
    q_view, q_copy = np.zeros(cfg.q_shape), np.zeros(cfg.q_shape)
    for epoch, epsilon in enumerate((0.9, 0.3)):
        got = train_on_tasks(view, q_view, PARAMS, epsilon, 5, cfg, _rng(30 + epoch))
        expected = train_on_tasks(view.copy(), q_copy, PARAMS, epsilon, 5, cfg, _rng(30 + epoch))
        for counts, oracle in zip(got, expected):
            assert counts.dtype == oracle.dtype and np.array_equal(counts, oracle)
        assert q_view.tobytes() == q_copy.tobytes()
    assert q_view.any() == reachable  # a team reward was found, or the pre-pass decided both


@pytest.mark.parametrize("width", [2, 3, 12])
def test_the_successor_table_is_move_cell_on_every_cell_and_action(width):
    table = _successor_table(width)
    assert table.shape == (width * width, N_ACTIONS) and table.dtype == np.int32
    for x in range(width):
        for y in range(width):
            for action in range(N_ACTIONS):
                assert divmod(int(table[x * width + y, action]), width) == move_cell(
                    (x, y), action, width)


@pytest.mark.parametrize("n_agents", [1, 3])
def test_the_lane_tables_map_every_row_to_its_agent_and_goal_offset(n_agents):
    cfg = EnvConfig(grid_width=4, n_agents=n_agents, max_steps=5)
    blocks = np.random.default_rng(n_agents).random((5, n_agents, 4))
    starts, goals = _start_and_goal_cells(blocks, cfg)
    assert len(set(goals.ravel().tolist())) > 1  # the lanes' goals differ
    q_row, start, successor, on_goal = _lane_tables(starts, goals, cfg)
    n_cells = 16
    assert q_row.shape == on_goal.shape == (5 * n_agents * n_cells,)
    assert start.dtype == np.intp and successor.dtype == np.int32
    for task in range(5):
        for agent in range(n_agents):
            first = (task * n_agents + agent) * n_cells
            assert start[task, agent] == first + starts[task, agent]
            goal = divmod(int(goals[task, agent]), 4)
            for cell in range(n_cells):
                row = first + cell
                assert q_row[row] == agent * cfg.n_states + obs_index(divmod(cell, 4), goal, cfg)
                assert on_goal[row] == (cell == goals[task, agent])
                assert successor[row * N_ACTIONS:(row + 1) * N_ACTIONS].tolist() == (
                    first + _successor_table(4)[cell]).tolist()


def test_a_non_contiguous_q_trains_as_its_contiguous_copy():
    cfg = EnvConfig(grid_width=4, n_agents=2, max_steps=6)
    tasks = _random_batch(cfg, 5, seed=8)
    q_c = np.round(np.random.default_rng(9).random(cfg.q_shape), 1)
    q_f = np.asfortranarray(q_c)
    assert not q_f.flags.c_contiguous
    for epoch in range(2):
        got = _train(tasks, q_f, PARAMS, 0.5, 3, cfg, _rng(40 + epoch))
        expected = _train(tasks, q_c, PARAMS, 0.5, 3, cfg, _rng(40 + epoch))
        assert all(np.array_equal(a, b) for a, b in zip(got, expected))
        assert np.array_equal(q_f.view("<u8"), q_c.view("<u8"))
    assert greedy_success(q_f, _blocks(tasks), cfg).tolist() == greedy_success(
        q_c, _blocks(tasks), cfg).tolist()


# ---------------------------------------------------------------- the phases of train_on_tasks

def _plain_walk_meets_goals(code, starts, goals, width):
    """Whether any episode of the (tasks, episodes, max_steps, agents) ``code`` block has all
    its agents on their goals after some step, each walking episode by episode from its
    flat start cell through ``move_cell``: code 0 stays, code 5 * (a + 1) takes action a."""
    for task, episodes in enumerate(code):
        goal = [divmod(int(cell), width) for cell in goals[task]]
        for episode in episodes:
            cells = [divmod(int(cell), width) for cell in starts[task]]
            for step in episode:
                actions = [int(c) // N_ACTIONS - 1 if c else 0 for c in step]
                cells = [move_cell(cell, action, width) for cell, action in zip(cells, actions)]
                if cells == goal:
                    return True
    return False


def _random_codes(rng, shape, explore):
    """Codes as train_on_tasks makes them: greedy (0), or an explored action a (5 * (a + 1))
    with probability ``explore``."""
    explored = (rng.integers(N_ACTIONS, size=shape) + 1) * N_ACTIONS
    return np.where(rng.random(shape) < explore, explored, 0).astype(np.int8)


@pytest.mark.parametrize("n_agents", [1, 2, 3])
def test_prepass_matches_a_plain_walk_over_random_code_blocks(n_agents):
    met = set()
    for seed in range(40):
        rng = np.random.default_rng(seed)
        width, n_tasks, episodes, max_steps = 5 - n_agents, int(rng.integers(1, 4)), 2, 5
        cfg = EnvConfig(grid_width=width, n_agents=n_agents, max_steps=max_steps)
        starts = rng.integers(width * width, size=(n_tasks, n_agents))
        goals = rng.integers(width * width, size=(n_tasks, n_agents))
        code = _random_codes(rng, (n_tasks, episodes, max_steps, n_agents), 0.7)
        expected = _plain_walk_meets_goals(code, starts, goals, width)
        assert _prepass(code, starts, goals, cfg) is expected
        met.add(expected)
    assert met == {True, False}  # both answers were tested


@pytest.mark.parametrize("goal, expected", [((1, 0), True), ((0, 3), False)])
def test_prepass_sees_an_episode_that_meets_its_goals_and_walks_off_before_the_cap(goal,
                                                                                   expected):
    # Agent 0 steps right onto (1, 0) and back off, then stays to the cap; agent 1 stays on
    # its goal throughout. Episode 1 of task 0 and task 1 only stay. With the goal (1, 0) the
    # walk ends off the goals, yet met them after step 1; the goal (0, 3) is never met.
    width, cfg = 4, EnvConfig(grid_width=4, n_agents=2, max_steps=5)
    cell = lambda xy: xy[0] * width + xy[1]
    starts = np.array([[cell((0, 0)), cell((2, 2))], [cell((3, 3)), cell((0, 0))]])
    goals = np.array([[cell(goal), cell((2, 2))], [cell((1, 1)), cell((0, 3))]])
    code = np.zeros((2, 2, cfg.max_steps, 2), np.int8)
    code[0, 0, 0, 0] = (_RIGHT + 1) * N_ACTIONS
    code[0, 0, 1, 0] = (_LEFT + 1) * N_ACTIONS
    assert _plain_walk_meets_goals(code, starts, goals, width) is expected
    assert _prepass(code, starts, goals, cfg) is expected


@pytest.mark.parametrize("layout", ["C", "F"])
def test_replay_matches_policy_table_update_in_task_step_agent_order(layout):
    cfg = EnvConfig(grid_width=3, n_agents=2, max_steps=6)
    learner = LearnerParams(learning_rate=0.5, discount=0.9)
    rng = np.random.default_rng(12)
    q = np.asarray(np.round(rng.random(cfg.q_shape), 1), order=layout)
    assert q.flags.c_contiguous == (layout == "C")
    # Random steps of three tasks in Q-table coordinates, column i holding agent i's updates:
    # states from a pool of six, so that rows repeat within a task and across tasks.
    tasks = np.repeat([0, 1, 2], [7, 5, 9])
    states = rng.integers(6, size=(len(tasks), cfg.n_agents))
    next_states = rng.integers(6, size=states.shape)
    next_states[3, 0] = states[3, 0]  # a next row equal to its own row
    actions = rng.integers(N_ACTIONS, size=states.shape)
    wins = rng.random(len(tasks)) < 0.25
    wins[[2, 11]] = True
    agent_rows = np.arange(cfg.n_agents) * cfg.n_states
    positions, next_rows = (states + agent_rows) * N_ACTIONS + actions, next_states + agent_rows
    keys = [(task, row) for task, step in zip(tasks.tolist(), positions.tolist()) for row in step]
    assert len(set(keys)) < len(keys)  # a row repeated within a task
    assert len({row for _, row in set(keys)}) < len(set(keys))  # and across tasks
    before, reference = q.copy(), PolicyTable(q.copy())
    for step, won in enumerate(wins.tolist()):
        for agent in range(cfg.n_agents):
            reference.update(agent, int(states[step, agent]), int(actions[step, agent]),
                             float(won), int(next_states[step, agent]), won, learner)
    _replay(q, positions, next_rows, wins, learner)
    assert np.array_equal(q.view("<u8"), reference.q.view("<u8"))
    assert not np.array_equal(q, before)


def test_lockstep_returns_the_q_rows_of_the_cells_its_episodes_walk():
    cfg = EnvConfig(grid_width=4, n_agents=2, max_steps=6)
    episodes = 3
    batch = _random_batch(cfg, 5, seed=12)
    starts, goals = _start_and_goal_cells(_blocks(batch), cfg)
    rng = np.random.default_rng(12)
    code = _random_codes(rng, (len(batch), episodes, cfg.max_steps, cfg.n_agents), 0.3)
    # Ties for the argmax, and staying is greedy wherever it holds 1.0, so that lanes win.
    q = np.round(rng.random(cfg.q_shape), 1)
    q[:, ::2, 0] = 1.0
    before = q.copy()
    tasks, positions, next_rows, wins = _lockstep(q, code, starts, goals, cfg, PARAMS)
    assert np.array_equal(q, before)  # the episodes learn on private copies
    assert positions.shape == next_rows.shape == (len(tasks), cfg.n_agents) == (len(wins), 2)
    assert wins.any() and tasks.tolist() == sorted(tasks.tolist())
    agent_rows = np.arange(cfg.n_agents) * cfg.n_states
    steps = iter(zip(tasks.tolist(), positions.tolist(), next_rows.tolist(), wins.tolist()))
    width = cfg.grid_width
    for task in range(len(batch)):
        goal = [divmod(int(cell), width) for cell in goals[task]]
        for episode in range(episodes):
            cells = [divmod(int(cell), width) for cell in starts[task]]
            for t in range(cfg.max_steps):
                walked, position, next_row, won = next(steps)
                actions = [at % N_ACTIONS for at in position]
                moved = [move_cell(cell, action, width) for cell, action in zip(cells, actions)]
                assert walked == task
                assert [at // N_ACTIONS for at in position] == [
                    row + obs_index(cell, g, cfg) for row, cell, g in zip(agent_rows, cells, goal)]
                assert next_row == [row + obs_index(cell, g, cfg)
                                    for row, cell, g in zip(agent_rows, moved, goal)]
                explored = [int(c) // N_ACTIONS - 1 for c in code[task, episode, t] if c]
                assert explored == [a for a, c in zip(actions, code[task, episode, t]) if c]
                assert won == (moved == goal)
                cells = moved
                if won:
                    break
    assert next(steps, None) is None


@pytest.mark.parametrize("case, phases", [
    ("zero table, late win", ["_prepass", "_lockstep", "_replay"]),
    ("zero table, no win", ["_prepass"]),
    ("non-zero table, no win", ["_lockstep", "_replay"])])
def test_train_on_tasks_calls_its_phases_in_order_through_trainer_names(monkeypatch, case,
                                                                         phases):
    import coevo_curriculum.trainer as trainer

    calls = []

    def recording(name, real):
        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return call

    for name in ("_prepass", "_lockstep", "_replay"):
        monkeypatch.setattr(trainer, name, recording(name, getattr(trainer, name)))
    late = case.endswith("late win")
    cfg = EnvConfig(grid_width=4 if late else 6, n_agents=1 if late else 2, max_steps=4)
    q = np.zeros(cfg.q_shape)
    if case.startswith("non-zero"):
        q[:] = np.round(np.random.default_rng(2).random(cfg.q_shape), 1)
    before = q.copy()
    successes, _ = _train(_LATE_WIN if late else _FAR, q, PARAMS, 0.5, 4, cfg, _rng(4))
    assert calls == phases
    assert any(successes) == late
    assert np.array_equal(q, before) == (phases == ["_prepass"])
