"""Independent tabular Q-learners sharing one binary team reward."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Iterable

import numpy as np

from .gridworld import EnvConfig, GridSpread, N_ACTIONS, _successors, obs_index
from .tasks import TaskGenome


@dataclass(frozen=True)
class LearnerParams:
    learning_rate: float = 0.1
    discount: float = 0.95
    epsilon: float = 0.2
    epsilon_decay: float = 0.995
    epsilon_floor: float = 0.02

    def __post_init__(self) -> None:
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning rate must lie in (0, 1]")
        if not 0.0 <= self.discount < 1.0:
            raise ValueError("discount must lie in [0, 1)")
        for name in ("epsilon", "epsilon_decay", "epsilon_floor"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")

    def epsilon_at(self, epoch: int) -> float:
        """Exploration rate for a given epoch (1-based), decayed with a floor."""
        return max(self.epsilon_floor, self.epsilon * self.epsilon_decay ** max(epoch - 1, 0))


@dataclass
class PolicyTable:
    """Per-agent action-value tables with their learner constants; with ``rollout``, the
    tests' numpy oracle. Training itself runs on a bare Q array (see ``train_on_tasks``)."""

    q: np.ndarray  # shape EnvConfig.q_shape
    learning_rate: float
    discount: float
    epsilon: float

    @classmethod
    def zeros(cls, env: EnvConfig, params: LearnerParams) -> "PolicyTable":
        return cls(q=np.zeros(env.q_shape), learning_rate=params.learning_rate,
                   discount=params.discount, epsilon=params.epsilon)

    # clone, act and update are the plain per-call reference for one learner
    # step on the array; training runs the same arithmetic in lockstep on numpy
    # arrays (see train_on_tasks), and the tests hold the two to bit-identical
    # results.

    def clone(self) -> "PolicyTable":
        return PolicyTable(q=self.q.copy(), learning_rate=self.learning_rate,
                           discount=self.discount, epsilon=self.epsilon)

    def act(self, agent: int, state: int, draw: np.ndarray | None,
            epsilon: float | None = None) -> int:
        """Action of ``agent`` in ``state`` from its step's pair of uniforms ``draw``
        (None acts greedily): explore iff ``draw[0] < epsilon``, as in ``_episode``."""
        eps = self.epsilon if epsilon is None else epsilon
        if draw is not None and draw[0] < eps:
            return int(draw[1] * N_ACTIONS)
        return int(np.argmax(self.q[agent, state]))

    def update(self, agent: int, state: int, action: int, reward: float,
               next_state: int, terminal: bool) -> None:
        future = 0.0 if terminal else float(self.q[agent, next_state].max())
        target = reward + self.discount * future
        self.q[agent, state, action] += self.learning_rate * (target - self.q[agent, state, action])


# A policy's action values as nested lists, rows[agent][state][action]. The
# scalar episode and the shared-table replay work on these: on a row of
# N_ACTIONS floats a Python max and index beat numpy's per-call overhead, and
# Python floats do the same IEEE double arithmetic, so the results are
# bit-identical to the array.
QRows = list[list[list[float]]]


def _td_updates(tables: Iterable[list[list[float]]], states: Iterable[int],
                actions: Iterable[int], rewards: Iterable[int], next_states: Iterable[int],
                learning_rate: float, discount: float) -> None:
    """TD updates in order, update k into the agent table ``tables[k]``.

    The team reward is 1 exactly on an episode's terminal transition, so it
    also marks the updates that do not bootstrap.
    """
    for table, state, action, reward, next_state in zip(tables, states, actions, rewards,
                                                        next_states):
        future = 0.0 if reward else max(table[next_state])
        row = table[state]
        row[action] += learning_rate * (reward + discount * future - row[action])


@dataclass(frozen=True)
class TaskOutcome:
    task_index: int
    episodes: int
    successes: int
    env_steps: int

    @property
    def success_rate(self) -> float:
        return self.successes / self.episodes


def _episode(env: GridSpread, task: TaskGenome, rows: QRows, learn: bool,
             draws: np.ndarray | None, epsilon: float, learning_rate: float,
             discount: float) -> tuple[bool, int]:
    """One epsilon-greedy episode acting on ``rows``; returns (success, steps).

    ``draws`` is the episode's ``(max_steps, n_agents, 2)`` block of uniforms,
    or None for a greedy episode. At step t agent i explores iff
    ``draws[t, i, 0] < epsilon``, taking action ``int(draws[t, i, 1] * N_ACTIONS)``;
    otherwise it takes the first action of highest value. With ``learn`` each
    step's TD update goes into ``rows``. This is the scalar oracle of
    ``train_on_tasks`` and the greedy path of ``evaluate_target``.
    """
    state = env.reset(task)
    cfg = env.cfg
    goals = env.goals
    agents = range(cfg.n_agents)
    block = draws.tolist() if draws is not None else None
    obs = tuple([obs_index(cell, goal, cfg) for cell, goal in zip(state.cells, goals)])
    done = False
    while not done:
        picks = []
        for i in agents:
            if block is not None and block[state.t][i][0] < epsilon:
                picks.append(int(block[state.t][i][1] * N_ACTIONS))
            else:
                row = rows[i][obs[i]]
                picks.append(row.index(max(row)))
        state, reward, done = env.step(tuple(picks))
        next_obs = tuple([obs_index(cell, goal, cfg) for cell, goal in zip(state.cells, goals)])
        if learn:
            _td_updates(rows, obs, picks, (reward,) * cfg.n_agents, next_obs, learning_rate,
                        discount)
        obs = next_obs
    return reward == 1, state.t


def rollout(env: GridSpread, task: TaskGenome, policy: PolicyTable, learn: bool,
            draws: np.ndarray | None, epsilon: float | None = None) -> tuple[bool, int]:
    """Run one episode on its ``(max_steps, n_agents, 2)`` block of uniforms ``draws``;
    returns (ended on the goal configuration, steps taken).

    ``epsilon`` defaults to the policy's own. ``draws`` may be None only when
    exploration is off, since a greedy episode reads no random numbers.
    """
    rows = policy.q.tolist()
    eps = policy.epsilon if epsilon is None else epsilon
    result = _episode(env, task, rows, learn, draws, eps, policy.learning_rate, policy.discount)
    if learn:
        policy.q[:] = rows
    return result


@cache
def _successor_table(width: int) -> np.ndarray:
    """``gridworld._successors`` over flat cells ``x * width + y``: shape (width^2, N_ACTIONS)."""
    successors = _successors(width)
    table = np.array([[x * width + y for x, y in successors[cell]] for cell in sorted(successors)],
                     dtype=np.int32)
    table.setflags(write=False)
    return table


def train_on_tasks(tasks: list[TaskGenome], q: np.ndarray, learner: LearnerParams,
                   epsilon: float, episodes_per_task: int, env_cfg: EnvConfig,
                   rng: np.random.Generator) -> list[TaskOutcome]:
    """Train the action values ``q`` (shape ``env_cfg.q_shape``) on a batch with a
    per-epoch barrier.

    Every task runs ``episodes_per_task`` learning episodes with exploration
    rate ``epsilon`` that act on, and update, a private copy of the incoming
    values; success rates come from those same episodes. Each step's update
    also goes into ``q``, task by task in index order.

    The draws are one block ``rng.random((tasks, episodes, max_steps, n_agents,
    2))``; episode e of task b reads its slice ``[b, e]`` as ``_episode`` does.
    The tasks are lanes that run their episodes back to back and step in
    lockstep on numpy arrays, with the arithmetic and order of ``_td_updates``.
    A lane's goals are fixed, so its private table is indexed by cell rather
    than by goal offset. The shared ``q`` never steers an action, so its
    updates are replayed after the loop in the order the scalar episodes make
    them: task, then step, then agent.
    """
    if episodes_per_task < 1:
        raise ValueError("episodes_per_task must be at least 1")
    if not tasks:
        return []
    n_tasks, n_agents, width = len(tasks), env_cfg.n_agents, env_cfg.grid_width
    n_cells, max_steps = width * width, env_cfg.max_steps
    lr, discount = learner.learning_rate, learner.discount
    draws = rng.random((n_tasks, episodes_per_task, max_steps, n_agents, 2))
    # An agent's exploratory action at each (task, episode, step), or -1 to act greedily.
    explore = np.where(draws[..., 0] < epsilon, (draws[..., 1] * N_ACTIONS).astype(np.int8),
                       np.int8(-1)).reshape(-1, n_agents)
    del draws

    env = GridSpread(env_cfg)
    ends = []  # (start cells, goal cells) of each task, as flat cells
    for task in tasks:
        env.reset(task)
        ends.append([[x * width + y for x, y in cells] for cells in (env.state.cells, env.goals)])
    starts, goals = np.array(ends, dtype=np.int32).transpose(1, 0, 2)  # (tasks, agents) each
    # obs_index of every (task, agent, cell); it broadcasts over coordinate arrays.
    cell_x, cell_y = np.divmod(np.arange(n_cells, dtype=np.int32), width)
    goal_x, goal_y = np.divmod(goals[..., None], width)
    offsets = obs_index((cell_x, cell_y), (goal_x, goal_y), env_cfg)
    # Private tables: row (task * n_agents + agent) * n_cells + cell.
    private = q[np.arange(n_agents)[:, None], offsets].reshape(-1, N_ACTIONS)
    values_flat = private.reshape(-1)
    offsets = offsets.reshape(-1)
    successor = _successor_table(width)

    # The state of the live lanes, one entry (or row of agents) each. ``draw`` is a lane's
    # position in the draw block's rows and ``end`` the end of its last episode there.
    lane = np.arange(n_tasks)
    base = (lane[:, None] * n_agents + np.arange(n_agents, dtype=np.int32)) * n_cells
    cell, goal, start = starts, goals, starts
    draw = lane * (episodes_per_task * max_steps)
    end = draw + episodes_per_task * max_steps
    records = []  # per iteration: update indices (row * N_ACTIONS + action), next rows, rewards
    while draw.size:
        row = base + cell
        drawn = explore[draw]
        pick = np.where(drawn < 0, private.take(row, axis=0).argmax(axis=2), drawn)
        cell = successor[cell, pick]
        next_row = base + cell
        won = (cell == goal).all(axis=1)
        # _td_updates' target; on the team reward it is 1 + discount * 0.0, exactly 1.0.
        target = np.where(won[:, None], 1.0, discount * private.take(next_row, axis=0).max(axis=2))
        index = row * N_ACTIONS + pick
        old = values_flat.take(index)
        values_flat[index] = old + lr * (target - old)
        records.append((index, next_row, won))
        draw += 1
        done = won | (draw % max_steps == 0)
        if np.count_nonzero(done):  # the next episode starts at the next block, from the start
            draw[done] = -(-draw[done] // max_steps) * max_steps
            cell = np.where(done[:, None], start, cell)
            live = draw < end
            if not live.all():
                base, cell, goal, start, draw, end = (
                    array[live] for array in (base, cell, goal, start, draw, end))

    del private, values_flat
    indices, next_rows, wins = (np.concatenate(column) for column in zip(*records))
    del records
    rows, picks = np.divmod(indices, N_ACTIONS)
    lanes = rows[:, 0] // (n_agents * n_cells)
    steps = np.bincount(lanes, minlength=n_tasks)
    successes = np.bincount(lanes[wins], minlength=n_tasks)
    # Replayed task by task, each task's steps in order and each step's agents in order;
    # one task's updates at a time keep the Python lists small.
    order = np.argsort(lanes, kind="stable")
    shared = q.tolist()
    for lo, hi in zip(np.cumsum(steps) - steps, np.cumsum(steps)):
        span = order[lo:hi]
        _td_updates(shared * len(span), offsets[rows[span]].ravel().tolist(),
                    picks[span].ravel().tolist(),
                    np.repeat(wins[span].view(np.uint8), n_agents).tolist(),
                    offsets[next_rows[span]].ravel().tolist(), lr, discount)
    q[:] = shared
    return [TaskOutcome(b, episodes_per_task, int(successes[b]), int(steps[b]))
            for b in range(n_tasks)]


def evaluate_target(q: np.ndarray, target: TaskGenome, env_cfg: EnvConfig) -> float:
    """Greedy (epsilon = 0) success of the action values ``q`` on ``target``, 1.0 or 0.0;
    never mutates ``q``.

    The environment is deterministic and a greedy episode draws no random
    numbers, so one episode gives the exact success rate.
    """
    # No table learns, so the learning rate and discount are never read.
    ok, _ = _episode(GridSpread(env_cfg), target, q.tolist(), False, None, 0.0, 0.0, 0.0)
    return float(ok)
