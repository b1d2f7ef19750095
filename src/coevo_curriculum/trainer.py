"""Independent tabular Q-learners sharing one binary team reward."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .gridworld import EnvConfig, GridSpread, N_ACTIONS, obs_index
from .tasks import TaskGenome

EpisodeRng = Callable[[int, int], np.random.Generator]


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
    # step on the array; training runs the same arithmetic on list rows (see
    # _episode), and the tests hold the two to bit-identical results.

    def clone(self) -> "PolicyTable":
        return PolicyTable(q=self.q.copy(), learning_rate=self.learning_rate,
                           discount=self.discount, epsilon=self.epsilon)

    def act(self, agent: int, state: int, rng: np.random.Generator | None,
            epsilon: float | None = None) -> int:
        eps = self.epsilon if epsilon is None else epsilon
        if eps > 0.0 and rng.random() < eps:
            return int(rng.integers(N_ACTIONS))
        return int(np.argmax(self.q[agent, state]))

    def update(self, agent: int, state: int, action: int, reward: float,
               next_state: int, terminal: bool) -> None:
        future = 0.0 if terminal else float(self.q[agent, next_state].max())
        target = reward + self.discount * future
        self.q[agent, state, action] += self.learning_rate * (target - self.q[agent, state, action])


# A policy's action values as nested lists, rows[agent][state][action].
# Rollouts work on these: on a row of N_ACTIONS floats a Python max and index
# beat numpy's per-call overhead, and Python floats do the same IEEE double
# arithmetic, so the results are bit-identical to the array.
QRows = list[list[list[float]]]


def _td_update(table: list[list[float]], state: int, action: int, reward: int,
               next_state: int, terminal: bool, learning_rate: float, discount: float) -> None:
    future = 0.0 if terminal else max(table[next_state])
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


def _episode(env: GridSpread, task: TaskGenome, rows: QRows, learners: tuple[QRows, ...],
             rng: np.random.Generator | None, epsilon: float, learning_rate: float,
             discount: float) -> tuple[bool, int]:
    """One epsilon-greedy episode acting on ``rows``; returns (success, steps).

    Each agent draws one uniform per step and, below epsilon, one uniform
    action; otherwise it takes the first action of highest value.  Every step's
    TD update goes into each table of ``learners``, in order.
    """
    state = env.reset(task)
    cfg = env.cfg
    goals = env.goals
    agents = range(cfg.n_agents)
    obs = tuple([obs_index(cell, goal, cfg) for cell, goal in zip(state.cells, goals)])
    terminal = False
    done = False
    while not done:
        picks = []
        for i in agents:
            if epsilon > 0.0 and rng.random() < epsilon:
                picks.append(int(rng.integers(N_ACTIONS)))
            else:
                row = rows[i][obs[i]]
                picks.append(row.index(max(row)))
        state, reward, done = env.step(tuple(picks))
        next_obs = tuple([obs_index(cell, goal, cfg) for cell, goal in zip(state.cells, goals)])
        terminal = reward == 1
        for table in learners:
            for i in agents:
                _td_update(table[i], obs[i], picks[i], reward, next_obs[i], terminal,
                           learning_rate, discount)
        obs = next_obs
    return terminal, env.state.t


def rollout(env: GridSpread, task: TaskGenome, policy: PolicyTable, learn: bool,
            rng: np.random.Generator | None, epsilon: float | None = None
            ) -> tuple[bool, int]:
    """Run one episode; returns (ended on the goal configuration, steps taken).

    ``epsilon`` defaults to the policy's own.  ``rng`` may be None only when
    exploration is off (epsilon 0), since a greedy episode draws no random
    numbers.
    """
    rows = policy.q.tolist()
    eps = policy.epsilon if epsilon is None else epsilon
    result = _episode(env, task, rows, (rows,) if learn else (), rng, eps,
                      policy.learning_rate, policy.discount)
    if learn:
        policy.q[:] = rows
    return result


def train_on_tasks(tasks: list[TaskGenome], q: np.ndarray, learner: LearnerParams,
                   epsilon: float, episodes_per_task: int, env_cfg: EnvConfig,
                   episode_rng: EpisodeRng) -> list[TaskOutcome]:
    """Train the action values ``q`` (shape ``env_cfg.q_shape``) on a batch with a
    per-epoch barrier.

    Every task runs ``episodes_per_task`` learning episodes with exploration
    rate ``epsilon`` that act on a private copy of the incoming values; success
    rates come from those same episodes.  Each step's update also goes into
    ``q``, task by task in index order.
    """
    if episodes_per_task < 1:
        raise ValueError("episodes_per_task must be at least 1")
    env = GridSpread(env_cfg)
    lr, discount = learner.learning_rate, learner.discount
    # The shared rows never steer an action and ``q`` itself only changes at
    # the end, so every task still starts from the incoming values.
    shared = q.tolist()
    outcomes = []
    for index, task in enumerate(tasks):
        local = q.tolist()
        successes = steps = 0
        for episode in range(episodes_per_task):
            ok, taken = _episode(env, task, local, (local, shared), episode_rng(index, episode),
                                 epsilon, lr, discount)
            successes += int(ok)
            steps += taken
        outcomes.append(TaskOutcome(index, episodes_per_task, successes, steps))
    q[:] = shared
    return outcomes


def evaluate_target(q: np.ndarray, target: TaskGenome, env_cfg: EnvConfig) -> float:
    """Greedy (epsilon = 0) success of the action values ``q`` on ``target``, 1.0 or 0.0;
    never mutates ``q``.

    The environment is deterministic and a greedy episode draws no random
    numbers, so one episode gives the exact success rate.
    """
    # No table learns, so the learning rate and discount are never read.
    ok, _ = _episode(GridSpread(env_cfg), target, q.tolist(), (), None, 0.0, 0.0, 0.0)
    return float(ok)
