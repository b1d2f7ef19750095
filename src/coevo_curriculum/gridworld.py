"""Cooperative grid-spread environment with a shared all-on-goals binary reward."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import NamedTuple

from .tasks import TaskDomain, TaskGenome, discretize

# Stay is action 0 so a fresh all-zero greedy policy holds position.
ACTION_NAMES = ("stay", "up", "down", "left", "right")
MOVES = ((0, 0), (0, 1), (0, -1), (-1, 0), (1, 0))
N_ACTIONS = len(MOVES)

Cell = tuple[int, int]


@dataclass(frozen=True)
class EnvConfig:
    grid_width: int = 12
    n_agents: int = 2
    max_steps: int = 40

    def __post_init__(self) -> None:
        if self.grid_width < 2:
            raise ValueError("grid width must be at least 2")
        if self.n_agents < 1:
            raise ValueError("need at least one agent")
        if self.max_steps < 1:
            raise ValueError("episodes need at least one step")

    @property
    def n_states(self) -> int:
        """Observation indices per agent: one per goal offset, (2W - 1)^2."""
        return (2 * self.grid_width - 1) ** 2

    @property
    def q_shape(self) -> tuple[int, int, int]:
        """Shape of a policy's action-value table: (agent, state, action)."""
        return (self.n_agents, self.n_states, N_ACTIONS)


class GridState(NamedTuple):
    """Joint agent positions after ``t`` steps of the current episode."""

    cells: tuple[Cell, ...]
    t: int


def move_cell(cell: Cell, action: int, width: int) -> Cell:
    """Apply one action with wall clamping."""
    dx, dy = MOVES[action]
    x = min(max(cell[0] + dx, 0), width - 1)
    y = min(max(cell[1] + dy, 0), width - 1)
    return (x, y)


@cache
def _successors(width: int) -> dict[Cell, tuple[Cell, ...]]:
    """``move_cell`` of every cell under each action, built once per grid width.

    Shared by every environment of that width; nobody may mutate it.
    """
    return {(x, y): tuple([move_cell((x, y), action, width) for action in range(N_ACTIONS)])
            for x in range(width) for y in range(width)}


def obs_index(cell: Cell, goal: Cell, cfg: EnvConfig) -> int:
    """Bijective index of the goal offset (gx - x, gy - y) into [0, (2W - 1)^2).

    Each offset component lies in [-(W - 1), W - 1]; the index is row-major
    over (dx, dy), so (-(W - 1), -(W - 1)) maps to 0 and (0, 0) to the centre.
    Skill learned for one offset serves every goal cell at that offset.
    """
    reach = cfg.grid_width - 1
    return (goal[0] - cell[0] + reach) * (2 * reach + 1) + goal[1] - cell[1] + reach


class GridSpread:
    """One episode instance: reset with a task genome, then step joint actions.

    Transitions are deterministic; the team reward is 1 exactly on the
    transition where every agent first stands on its own goal, and the
    episode ends there or at the step cap.
    """

    def __init__(self, cfg: EnvConfig):
        self.cfg = cfg
        self._domain = TaskDomain(n_agents=cfg.n_agents, grid_width=cfg.grid_width)
        self._successors = _successors(cfg.grid_width)
        self.goals: tuple[Cell, ...] = ()
        self.state: GridState | None = None
        self._done = True

    def reset(self, task: TaskGenome) -> GridState:
        if task.n_agents != self.cfg.n_agents:
            raise ValueError(f"task has {task.n_agents} agents, environment expects {self.cfg.n_agents}")
        pairs = discretize(task, self._domain)
        self.goals = tuple(goal for _, goal in pairs)
        self.state = GridState(cells=tuple(start for start, _ in pairs), t=0)
        self._done = False
        return self.state

    def step(self, joint_action: tuple[int, ...]) -> tuple[GridState, int, bool]:
        if self._done or self.state is None:
            raise RuntimeError("step() called on a finished episode; reset first")
        if len(joint_action) != self.cfg.n_agents:
            raise ValueError("joint action length must match the agent count")
        successors = self._successors
        cells = tuple([successors[cell][action] for cell, action in zip(self.state.cells, joint_action)])
        t = self.state.t + 1
        # Both tuples hold one cell per agent: every agent on its own goal.
        success = cells == self.goals
        done = success or t >= self.cfg.max_steps
        self.state = GridState(cells=cells, t=t)
        self._done = done
        return self.state, 1 if success else 0, done
