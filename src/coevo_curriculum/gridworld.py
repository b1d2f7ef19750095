"""Cooperative grid-spread environment with a shared all-on-goals binary reward."""

from __future__ import annotations

from dataclasses import dataclass

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
        """Observation indices per agent: own cell crossed with own goal cell."""
        return self.grid_width ** 4


@dataclass(frozen=True, slots=True)
class GridState:
    """Joint agent positions after ``t`` steps of the current episode."""

    cells: tuple[Cell, ...]
    t: int


def move_cell(cell: Cell, action: int, width: int) -> Cell:
    """Apply one action with wall clamping."""
    dx, dy = MOVES[action]
    x = min(max(cell[0] + dx, 0), width - 1)
    y = min(max(cell[1] + dy, 0), width - 1)
    return (x, y)


def all_on_goals(cells: tuple[Cell, ...], goals: tuple[Cell, ...]) -> bool:
    return all(cell == goal for cell, goal in zip(cells, goals))


def obs_index(cell: Cell, goal: Cell, cfg: EnvConfig) -> int:
    """Bijective index of (own cell, own goal) into [0, W^4)."""
    width = cfg.grid_width
    x, y = cell
    gx, gy = goal
    return ((x * width + y) * width + gx) * width + gy


class GridSpread:
    """One episode instance: reset with a task genome, then step joint actions.

    Transitions are deterministic; the team reward is 1 exactly on the
    transition where every agent first stands on its own goal, and the
    episode ends there or at the step cap.
    """

    def __init__(self, cfg: EnvConfig):
        self.cfg = cfg
        self._domain = TaskDomain(n_agents=cfg.n_agents, grid_width=cfg.grid_width)
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
        width = self.cfg.grid_width
        cells = tuple([move_cell(cell, action, width) for cell, action in zip(self.state.cells, joint_action)])
        t = self.state.t + 1
        # Same predicate as all_on_goals: both tuples hold one cell per agent.
        success = cells == self.goals
        done = success or t >= self.cfg.max_steps
        self.state = GridState(cells=cells, t=t)
        self._done = done
        return self.state, 1 if success else 0, done
