"""Independent tabular Q-learners sharing one binary team reward."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import chain
from operator import itemgetter
from typing import Iterable

import numpy as np

from .gridworld import EnvConfig, GridSpread, N_ACTIONS, _successors, obs_index
from .tasks import TaskGenome, _checked_blocks, grid_cells


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
    """Per-agent action-value tables, with ``rollout`` the tests' oracle only: ``act`` and
    ``update`` are the plain per-call reference for one learner step, which
    ``train_on_tasks`` runs in lockstep on a bare Q array and ``greedy_success`` runs
    greedily, and the tests hold them to bit-identical results. No code in the package
    calls it; it stays here, beside ``rollout``, while the benchmark's tracer
    (``bench/tracing.py``) still names them."""

    q: np.ndarray  # shape EnvConfig.q_shape

    def clone(self) -> "PolicyTable":
        return PolicyTable(self.q.copy())

    def act(self, agent: int, state: int, draw: np.ndarray | None, epsilon: float) -> int:
        """Action of ``agent`` in ``state`` from its step's pair of uniforms ``draw``
        (None acts greedily): explore iff ``draw[0] < epsilon``, taking action
        ``int(draw[1] * N_ACTIONS)``; otherwise the first action of highest value."""
        if draw is not None and draw[0] < epsilon:
            return int(draw[1] * N_ACTIONS)
        return int(np.argmax(self.q[agent, state]))

    def update(self, agent: int, state: int, action: int, reward: float, next_state: int,
               terminal: bool, learner: LearnerParams) -> None:
        future = 0.0 if terminal else float(self.q[agent, next_state].max())
        target = reward + learner.discount * future
        self.q[agent, state, action] += (learner.learning_rate
                                         * (target - self.q[agent, state, action]))


def _td_updates(rows: Iterable[list[float]], actions: Iterable[int],
                next_rows: Iterable[list[float]], wins: Iterable[bool], learning_rate: float,
                discount: float) -> None:
    """TD updates in order, update k into the agent's row ``rows[k]``, a list of
    N_ACTIONS Python floats: on rows that short a Python max beats numpy's per-call
    overhead, and the IEEE double arithmetic is the array's, bit for bit.

    The team reward is 1 exactly on an episode's terminal transition, so it
    also marks the updates that do not bootstrap: the target is 1.0 on a win
    and ``discount * max(next row)`` otherwise, which equal ``1 + discount * 0.0``
    and ``0 + discount * max(next row)`` for finite values.
    """
    for row, action, next_row, won in zip(rows, actions, next_rows, wins):
        old = row[action]
        row[action] = old + learning_rate * ((1.0 if won else discount * max(next_row)) - old)


def rollout(env: GridSpread, task: TaskGenome, policy: PolicyTable,
            draws: np.ndarray | None = None, epsilon: float = 0.0,
            learner: LearnerParams | None = None) -> tuple[bool, int]:
    """Run one episode on its ``(max_steps, n_agents, 2)`` block of uniforms ``draws``,
    acting through ``policy.act`` with exploration rate ``epsilon`` and, given a
    ``learner``, updating through ``policy.update`` with its constants; returns (ended on
    the goal configuration, steps taken).

    ``draws`` may be None only when exploration is off, since a greedy episode reads no
    random numbers. The one scalar episode, kept as the tests' oracle for
    ``train_on_tasks`` and ``greedy_success`` (see ``PolicyTable``).
    """
    state = env.reset(task)
    cfg, goals = env.cfg, env.goals
    agents = range(cfg.n_agents)
    obs = [obs_index(cell, goal, cfg) for cell, goal in zip(state.cells, goals)]
    done = False
    while not done:
        step = draws[state.t] if draws is not None else [None] * cfg.n_agents
        actions = tuple([policy.act(i, obs[i], step[i], epsilon) for i in agents])
        state, reward, done = env.step(actions)
        next_obs = [obs_index(cell, goal, cfg) for cell, goal in zip(state.cells, goals)]
        if learner is not None:
            for i in agents:
                policy.update(i, obs[i], actions[i], reward, next_obs[i], reward == 1, learner)
        obs = next_obs
    return reward == 1, state.t


@cache
def _successor_table(width: int) -> np.ndarray:
    """``gridworld._successors`` over flat cells ``x * width + y``: shape (width^2, N_ACTIONS)."""
    successors = _successors(width)
    table = np.array([[x * width + y for x, y in successors[cell]] for cell in sorted(successors)],
                     dtype=np.int32)
    table.setflags(write=False)
    return table


@cache
def _cell_moves(width: int) -> np.ndarray:
    """``_successor_table(width)`` flat and times N_ACTIONS, as intp: entry ``cell *
    N_ACTIONS + action`` is the successor cell times N_ACTIONS, so a walk over such cells
    adds an action and takes the next one, with no multiply per step."""
    table = (_successor_table(width) * N_ACTIONS).astype(np.intp).reshape(-1)
    table.setflags(write=False)
    return table


def _start_and_goal_cells(blocks, env_cfg: EnvConfig) -> tuple[np.ndarray, np.ndarray]:
    """Each agent's start and goal as flat cells ``x * width + y``, two ``(tasks, agents)``
    arrays, of the ``(B, n_agents, 4)`` block stack ``blocks``, held to ``TaskGenome``'s
    checks and to the environment's agent count."""
    blocks = _checked_blocks(blocks, 3)
    if blocks.shape[1] != env_cfg.n_agents:
        raise ValueError(f"tasks have {blocks.shape[1]} agents, "
                         f"environment expects {env_cfg.n_agents}")
    width = env_cfg.grid_width
    cells = grid_cells(blocks, width)
    return (cells[..., 0::2] * width + cells[..., 1::2]).transpose(2, 0, 1)


def _lane_tables(goals: np.ndarray,
                 env_cfg: EnvConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Tables over the rows ``(task * n_agents + agent) * n_cells + cell`` of a batch whose
    agents have the flat goal cells ``goals`` (tasks, agents). A lane's goals are fixed, so
    a row stands for its agent's cell and goal offset at once. Returns: the ``obs_index`` of
    every (task, agent, cell); the first row of each (task, agent); each row's successor
    under each action, flat over ``row * N_ACTIONS + action`` (int32 keeps it small); and
    whether a row is its agent's goal cell."""
    width = env_cfg.grid_width
    n_cells = width * width
    # obs_index broadcasts over coordinate arrays.
    cell_x, cell_y = np.divmod(np.arange(n_cells, dtype=np.int32), width)
    goal_x, goal_y = np.divmod(goals[..., None], width)
    offsets = obs_index((cell_x, cell_y), (goal_x, goal_y), env_cfg)
    first = np.arange(0, goals.size * n_cells, n_cells, dtype=np.int32)
    successor = (first[:, None, None] + _successor_table(width)).reshape(-1)
    on_goal = (np.arange(n_cells) == goals[..., None]).reshape(-1)
    return offsets, first.reshape(goals.shape), successor, on_goal


# _PICK[code + g] is the action of an agent with the step's code (see train_on_tasks) and
# the greedy first-argmax g: code 0 acts greedily, code 5 * (a + 1) explores with action a.
_PICK = np.concatenate([np.arange(N_ACTIONS), np.repeat(np.arange(N_ACTIONS), N_ACTIONS)])
_PICK.setflags(write=False)


def train_on_tasks(blocks, q: np.ndarray, learner: LearnerParams, epsilon: float,
                   episodes_per_task: int, env_cfg: EnvConfig,
                   rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Train the action values ``q`` (shape ``env_cfg.q_shape``) on a batch with a
    per-epoch barrier; returns two int arrays of length B, each task's successes and
    env steps.

    The batch is the ``(B, n_agents, 4)`` stack of its tasks' genome blocks, held to
    ``TaskGenome``'s checks and to the environment's agent count. Every task runs
    ``episodes_per_task`` learning episodes with exploration rate ``epsilon`` that
    act on, and update, a private copy of the incoming values; its successes come
    from those same episodes. Each step's update also goes into ``q``, task by task
    in index order. An empty batch draws nothing and leaves ``q`` alone.

    The draws are one block ``rng.random((tasks, episodes, max_steps, n_agents,
    2))``; episode e of task b reads its slice ``[b, e]`` as ``rollout`` does.
    The tasks are lanes that run their episodes back to back and step in
    lockstep on numpy arrays, with the arithmetic and order of ``_td_updates``.
    A lane's goals are fixed, so its private table is indexed by cell rather
    than by goal offset. The shared ``q`` never steers an action, so its
    updates are replayed after the loop in the order the scalar episodes make
    them: task, then step, then agent.

    While every bit of ``q`` is zero, the greedy first-argmax of every row is
    action 0, so each action is its draw's ``_PICK[code]`` alone, and until some
    lane wins, each update writes ``+0.0 + lr * (discount * +0.0 - +0.0) = +0.0``
    over +0.0. No episode then depends on another: each walks from its task's
    start cells. A pre-pass walks every episode of the batch at once to the
    step cap, recording each step's cells, and then tests the goals once over
    the whole walk. If no episode stood on its goals at any step, every episode
    of the loop would be that walk and leave every bit of ``q`` as it was, so
    the call returns without the loop. Otherwise the loop runs as it would
    have. The test reads bits, since an update turns ``-0.0`` into +0.0. A
    vanilla run whose target is out of reach is decided by the pre-pass in
    every epoch; a ccl run passes through it only in its first epoch, where a
    lane wins on the first step.
    """
    if episodes_per_task < 1:
        raise ValueError("episodes_per_task must be at least 1")
    starts, goals = _start_and_goal_cells(blocks, env_cfg)
    n_tasks, n_agents, width = len(starts), env_cfg.n_agents, env_cfg.grid_width
    if not n_tasks:
        return np.zeros(0, int), np.zeros(0, int)
    n_cells, max_steps = width * width, env_cfg.max_steps
    lr, discount = learner.learning_rate, learner.discount
    draws = rng.random((n_tasks, episodes_per_task, max_steps, n_agents, 2))
    # Each agent's code at each (task, episode, step) for _PICK: 0 to act greedily,
    # 5 * (a + 1) to explore with action a.
    explore = (draws[..., 1] * N_ACTIONS).astype(np.int8)
    code = np.where(draws[..., 0] < epsilon, (explore + 1) * N_ACTIONS, 0).reshape(-1, n_agents)
    del draws, explore

    if not np.count_nonzero(q.view(np.uint64)):  # the pre-pass (see above)
        # Every episode's actions step by step, and the cells they lead to as cell *
        # N_ACTIONS (see _cell_moves): (max_steps, tasks * episodes, agents) each.
        moves = _PICK.take(code.reshape(-1, max_steps, n_agents).transpose(1, 0, 2))
        cell_moves = _cell_moves(width)
        walk = np.empty(moves.shape, cell_moves.dtype)
        here = np.repeat(starts * N_ACTIONS, episodes_per_task, axis=0)
        for actions, cells in zip(moves, walk):
            # Every index is a cell times N_ACTIONS plus an action, so "clip" never clips;
            # unlike the default, it lets take write into ``out`` without a buffer.
            here = cell_moves.take(here + actions, out=cells, mode="clip")
        # Where every agent stands on its goal at once, tested agent by agent: a reduction
        # over the short last axis costs several times more.
        goal = np.repeat(goals * N_ACTIONS, episodes_per_task, axis=0)
        on_goals = walk[..., 0] == goal[:, 0]
        for agent in range(1, n_agents):
            on_goals &= walk[..., agent] == goal[:, agent]
        if not np.count_nonzero(on_goals):
            # no episode met its goals, so every one met the step cap and q keeps its bits
            return np.zeros(n_tasks, int), np.full(n_tasks, episodes_per_task * max_steps)
    offsets, first, successor, on_goal = _lane_tables(goals, env_cfg)
    agents = np.arange(n_agents, dtype=np.int32)[:, None]
    # Private tables over the rows of _lane_tables.
    private = q[agents, offsets].reshape(-1, N_ACTIONS)
    values = private.reshape(-1)

    # The state of the live lanes, one entry (or row of agents) each: the private rows of
    # the agents' cells, a lane's position in ``code``, where its episode meets the step
    # cap there and the end of its last episode. ``left`` counts down to the first
    # iteration at which a lane may meet its cap. ``draw`` and ``stop`` are changed in
    # place; the arrays in ``records`` never are.
    row = start = first + starts
    draw = np.arange(0, n_tasks * episodes_per_task * max_steps, max_steps * episodes_per_task)
    stop, end = draw + max_steps, draw + episodes_per_task * max_steps
    left = max_steps
    records = []  # per iteration: update indices, next rows, rewards
    while True:
        pick = _PICK.take(code.take(draw, axis=0) + private.take(row, axis=0).argmax(axis=2))
        index = row * N_ACTIONS + pick
        next_row = successor.take(index).astype(np.intp)
        won = np.logical_and.reduce(on_goal.take(next_row), axis=1)
        draw = draw + 1
        left -= 1
        any_won = np.count_nonzero(won)
        ends_episode = left == 0 or any_won
        # _td_updates' target: discount * max(next row), or 1.0 on the team reward.
        target = np.maximum.reduce(private.take(next_row, axis=0), axis=2) * discount
        if any_won:
            np.copyto(target, 1.0, where=won[:, None])
        old = values.take(index)
        target -= old
        target *= lr
        target += old
        values.put(index, target)
        records.append((index, next_row, won))
        row = next_row
        if ends_episode:  # the next episode starts at the next block, from the start cells
            done = won | (draw == stop) if left == 0 else won
            np.putmask(draw, done, stop)
            np.putmask(stop, done, draw + max_steps)
            row = np.where(done[:, None], start, next_row)
            live = draw < end
            if not np.logical_and.reduce(live):
                if not np.count_nonzero(live):
                    break
                row, start, draw, stop, end = (array[live]
                                               for array in (row, start, draw, stop, end))
            if left == 0:
                left = int(np.minimum.reduce(stop - draw))

    # Task 0's shared updates are lane 0's private ones, made from the same values.
    q[agents, offsets[0]] = private[:n_agents * n_cells].reshape(n_agents, n_cells, N_ACTIONS)
    del private, values, successor
    indices, next_rows, wins = (np.concatenate(column) for column in zip(*records))
    del records
    lanes = indices[:, 0] // (n_agents * n_cells * N_ACTIONS)
    steps = np.bincount(lanes, minlength=n_tasks)
    successes = np.bincount(lanes[wins], minlength=n_tasks)
    # Tasks 1 to B - 1 are replayed in order, each task's steps in order and each step's
    # agents in order; one task's updates at a time keep the Python lists small.
    order = np.argsort(lanes, kind="stable")[steps[0]:]
    private_rows, picks = np.divmod(indices[order], N_ACTIONS)
    # Each private row's row in q.reshape(-1, N_ACTIONS).
    shared_row = (offsets + agents * env_cfg.n_states).reshape(-1)
    rows = shared_row.take(private_rows).ravel()
    next_rows = shared_row.take(next_rows[order]).ravel()
    picks = picks.ravel()
    wins = np.repeat(wins[order], n_agents)
    shared = q.reshape(-1, N_ACTIONS).tolist()
    bounds = np.cumsum(steps[1:]) * n_agents
    for lo, hi in zip((bounds - steps[1:] * n_agents).tolist(), bounds.tolist()):
        # One lookup for both: itemgetter returns a bare item for a single key.
        found = itemgetter(*rows[lo:hi].tolist(), *next_rows[lo:hi].tolist())(shared)
        _td_updates(found[:hi - lo], picks[lo:hi].tolist(), found[hi - lo:],
                    wins[lo:hi].tolist(), lr, discount)
    q[:] = np.fromiter(chain.from_iterable(shared), float, q.size).reshape(q.shape)
    return successes, steps


def greedy_success(q: np.ndarray, blocks, env_cfg: EnvConfig) -> np.ndarray:
    """Greedy (epsilon = 0) success of the action values ``q`` on each task of the
    ``(B, n_agents, 4)`` block stack ``blocks``, checked as ``train_on_tasks`` checks it: a
    bool array of length B. Never mutates ``q``.

    The environment is deterministic and a greedy episode draws no random numbers, so one
    episode per task gives its exact success rate: task b's is that of ``rollout`` without
    draws. The tasks are lanes that step together, at most ``max_steps`` times. Each step,
    every live lane reads ``q[agents, offsets]`` at its agents' current cells, takes each
    row's first action of highest value, moves, and tests its goals. A lane stops when it
    wins, or when no agent moved. The second stop is exact: an agent's greedy action
    depends only on its cell, its fixed goal and ``q``, so a step that leaves every cell
    where it was repeats until the step cap. The goal test comes first, so a task that
    starts on its goals still wins at step 1. Longer cycles run to the cap.
    """
    starts, goals = _start_and_goal_cells(blocks, env_cfg)
    won = np.zeros(len(starts), bool)
    if not len(starts):
        return won
    offsets, first, successor, on_goal = _lane_tables(goals, env_cfg)
    # q[agents, offsets] is q_rows[q_row], over the rows of _lane_tables. Rows are intp, so
    # that each step's arithmetic stays in one dtype.
    q_rows = q.reshape(-1, N_ACTIONS)
    q_row = (offsets + np.arange(env_cfg.n_agents)[:, None] * env_cfg.n_states).reshape(-1)
    successor = successor.astype(np.intp)
    # The live lanes, one entry (or row of agents) each: the task and its agents' rows.
    lanes, row = np.arange(len(starts)), (first + starts).astype(np.intp)
    for _ in range(env_cfg.max_steps):
        greedy = q_rows.take(q_row.take(row), axis=0).argmax(axis=2)
        next_row = successor.take(row * N_ACTIONS + greedy)
        wins = np.logical_and.reduce(on_goal.take(next_row), axis=1)
        live = np.logical_or.reduce(next_row != row, axis=1) & ~wins
        if np.count_nonzero(live) < len(live):  # a lane won, or none of its agents moved
            won[lanes[wins]] = True
            lanes, next_row = lanes[live], next_row[live]
            if not len(lanes):
                break
        row = next_row
    return won


def evaluate_target(q: np.ndarray, target: TaskGenome, env_cfg: EnvConfig) -> float:
    """Greedy (epsilon = 0) success of the action values ``q`` on ``target``, 1.0 or 0.0:
    ``greedy_success`` on the one task. Never mutates ``q``."""
    return float(greedy_success(q, target.blocks[None], env_cfg)[0])
