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
    """Per-agent action-value tables over (own cell, own goal) observations."""

    q: np.ndarray  # shape (n_agents, n_states, n_actions)
    learning_rate: float
    discount: float
    epsilon: float

    @classmethod
    def zeros(cls, n_agents: int, n_states: int, params: LearnerParams) -> "PolicyTable":
        table = np.zeros((n_agents, n_states, N_ACTIONS), dtype=float)
        return cls(q=table, learning_rate=params.learning_rate,
                   discount=params.discount, epsilon=params.epsilon)

    @property
    def n_agents(self) -> int:
        return int(self.q.shape[0])

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


@dataclass(frozen=True)
class Transition:
    states: tuple[int, ...]
    actions: tuple[int, ...]
    reward: int
    next_states: tuple[int, ...]
    terminal: bool  # goal configuration reached (not a step-cap cutoff)


@dataclass(frozen=True)
class TaskOutcome:
    task_index: int
    episodes: int
    successes: int
    env_steps: int

    @property
    def success_rate(self) -> float:
        return self.successes / self.episodes


def rollout(env: GridSpread, task: TaskGenome, policy: PolicyTable, learn: bool,
            rng: np.random.Generator | None, epsilon: float | None = None
            ) -> tuple[bool, list[Transition]]:
    """Run one episode; returns (ended on the goal configuration, trajectory).

    ``rng`` may be None only when exploration is off (epsilon 0), since a
    greedy episode draws no random numbers.
    """
    state = env.reset(task)
    cfg = env.cfg
    obs = [obs_index(cell, goal, cfg) for cell, goal in zip(state.cells, env.goals)]
    trajectory: list[Transition] = []
    success = False
    done = False
    while not done:
        actions = tuple(policy.act(i, obs[i], rng, epsilon) for i in range(cfg.n_agents))
        state, reward, done = env.step(actions)
        next_obs = [obs_index(cell, goal, cfg) for cell, goal in zip(state.cells, env.goals)]
        terminal = reward == 1
        if learn:
            for i in range(cfg.n_agents):
                policy.update(i, obs[i], actions[i], reward, next_obs[i], terminal)
        trajectory.append(Transition(tuple(obs), actions, reward, tuple(next_obs), terminal))
        obs = next_obs
        success = terminal
    return success, trajectory


def _run_task(task: TaskGenome, policy: PolicyTable, episodes: int, env_cfg: EnvConfig,
              rng_for_episode: Callable[[int], np.random.Generator],
              task_index: int) -> tuple[TaskOutcome, list[Transition]]:
    # Each task explores from a private copy of the incoming policy, so
    # tasks are independent of each other and of the order they run in.
    local = policy.clone()
    env = GridSpread(env_cfg)
    successes = 0
    transitions: list[Transition] = []
    for episode in range(episodes):
        ok, trajectory = rollout(env, task, local, True, rng_for_episode(episode))
        successes += int(ok)
        transitions.extend(trajectory)
    steps = len(transitions)
    return TaskOutcome(task_index, episodes, successes, steps), transitions


def train_on_tasks(tasks: list[TaskGenome], policy: PolicyTable, episodes_per_task: int,
                   env_cfg: EnvConfig, episode_rng: EpisodeRng) -> list[TaskOutcome]:
    """Train on a batch with a per-epoch barrier.

    Every task runs ``episodes_per_task`` learning episodes against a private
    copy of the incoming policy; success rates come from those same episodes.
    All experience is then replayed into ``policy`` in task-index order.
    """
    if episodes_per_task < 1:
        raise ValueError("episodes_per_task must be at least 1")
    results = [_run_task(task, policy, episodes_per_task, env_cfg,
                         lambda episode, _i=index: episode_rng(_i, episode), index)
               for index, task in enumerate(tasks)]

    for _, transitions in results:
        for tr in transitions:
            for i in range(env_cfg.n_agents):
                policy.update(i, tr.states[i], tr.actions[i], tr.reward, tr.next_states[i], tr.terminal)
    return [outcome for outcome, _ in results]


def evaluate_target(policy: PolicyTable, target: TaskGenome, env_cfg: EnvConfig) -> float:
    """Greedy (epsilon = 0) success on ``target``, 1.0 or 0.0; never mutates the policy.

    The environment is deterministic and a greedy episode draws no random
    numbers, so one episode gives the exact success rate.
    """
    ok, _ = rollout(GridSpread(env_cfg), target, policy, False, None, epsilon=0.0)
    return float(ok)
