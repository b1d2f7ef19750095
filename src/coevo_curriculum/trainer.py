"""Independent tabular Q-learners sharing one binary team reward."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import chain

import numpy as np

from .gridworld import MOVES, EnvConfig, GridSpread, N_ACTIONS, obs_index
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
    """``move_cell`` of every flat cell ``x * width + y`` under each action, as flat cells:
    shape (width^2, N_ACTIONS), int32."""
    x, y = np.divmod(np.arange(width * width, dtype=np.int32)[:, None], width)
    dx, dy = np.array(MOVES, dtype=np.int32).T
    table = np.clip(x + dx, 0, width - 1) * width + np.clip(y + dy, 0, width - 1)
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


def _lane_tables(starts: np.ndarray, goals: np.ndarray,
                 env_cfg: EnvConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Tables over the rows ``(task * n_agents + agent) * n_cells + cell`` of a batch whose
    agents start on the flat cells ``starts`` and have the flat goal cells ``goals`` (tasks,
    agents). A lane's goals are fixed, so a row stands for its agent's cell and goal offset
    at once. Returns: each row's row in ``q.reshape(-1, N_ACTIONS)``, ``agent * n_states +
    obs_index``; the start row of each (task, agent), as intp; each row's successor under
    each action, flat over ``row * N_ACTIONS + action`` (int32 keeps it small); and whether
    a row is its agent's goal cell."""
    width = env_cfg.grid_width
    n_cells = width * width
    # obs_index broadcasts over coordinate arrays.
    cell_x, cell_y = np.divmod(np.arange(n_cells, dtype=np.int32), width)
    goal_x, goal_y = np.divmod(goals[..., None], width)
    q_row = (obs_index((cell_x, cell_y), (goal_x, goal_y), env_cfg)
             + np.arange(env_cfg.n_agents)[:, None] * env_cfg.n_states).reshape(-1)
    first = np.arange(0, goals.size * n_cells, n_cells, dtype=np.int32)
    successor = (first[:, None, None] + _successor_table(width)).reshape(-1)
    on_goal = (np.arange(n_cells) == goals[..., None]).reshape(-1)
    return q_row, (first.reshape(goals.shape) + starts).astype(np.intp), successor, on_goal


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
    Then come three phases, each looked up as a global of this module: ``_prepass``,
    only while every bit of ``q`` is zero (an update turns ``-0.0`` into +0.0), which
    may decide the call; ``_lockstep`` on the private tables; and ``_replay`` into ``q``.
    """
    if episodes_per_task < 1:
        raise ValueError("episodes_per_task must be at least 1")
    starts, goals = _start_and_goal_cells(blocks, env_cfg)
    n_tasks, n_agents = starts.shape
    if not n_tasks:
        return np.zeros(0, int), np.zeros(0, int)
    draws = rng.random((n_tasks, episodes_per_task, env_cfg.max_steps, n_agents, 2))
    explore = (draws[..., 1] * N_ACTIONS).astype(np.int8)
    code = np.where(draws[..., 0] < epsilon, (explore + 1) * N_ACTIONS, 0)
    del draws, explore  # the phases read only the codes, and run faster with these freed
    if not np.count_nonzero(q.view(np.uint64)) and not _prepass(code, starts, goals, env_cfg):
        return np.zeros(n_tasks, int), np.full(n_tasks, episodes_per_task * env_cfg.max_steps)
    tasks, positions, next_rows, wins = _lockstep(q, code, starts, goals, env_cfg, learner)
    _replay(q, positions, next_rows, wins, learner)
    return np.bincount(tasks[wins], minlength=n_tasks), np.bincount(tasks, minlength=n_tasks)


def _prepass(code: np.ndarray, starts: np.ndarray, goals: np.ndarray, env_cfg: EnvConfig) -> bool:
    """The all-zero walk of ``train_on_tasks``: whether an episode ever stood on its goals.

    While every bit of ``q`` is zero, the greedy first-argmax of every row is action 0, so
    each action is its draw's ``_PICK[code]`` alone, and until some lane wins, each update
    writes ``+0.0 + lr * (discount * +0.0 - +0.0) = +0.0`` over +0.0. No episode then
    depends on another: each walks from its task's start cells. The pre-pass walks every
    episode of the batch at once to the step cap, recording each step's cells, and then
    tests the goals once over the whole walk. If no episode stood on its goals at any step,
    every episode of ``_lockstep`` would be that walk and leave every bit of ``q`` as it
    was, so the call returns without ``_lockstep`` and ``_replay``. Otherwise they run as
    they would have. A vanilla run whose target is out of reach is decided by the pre-pass
    in every epoch; a ccl run passes through it only in its first epoch, where a lane wins
    on the first step.
    """
    _, episodes_per_task, max_steps, n_agents = code.shape
    # Every episode's actions step by step, and the cells they lead to as cell *
    # N_ACTIONS: (max_steps, tasks * episodes, agents) each. cell_moves maps cell *
    # N_ACTIONS + action to the successor times N_ACTIONS, so a step has no multiply.
    moves = _PICK.take(code.reshape(-1, max_steps, n_agents).transpose(1, 0, 2))
    cell_moves = (_successor_table(env_cfg.grid_width) * N_ACTIONS).astype(np.intp).reshape(-1)
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
    return bool(np.count_nonzero(on_goals))


def _lockstep(q: np.ndarray, code: np.ndarray, starts: np.ndarray, goals: np.ndarray,
              env_cfg: EnvConfig, learner: LearnerParams) -> tuple[np.ndarray, ...]:
    """Run the episodes on private copies of ``q``'s rows (see ``_lane_tables``); returns
    every step's updates in the scalar episodes' order (task, step, agent), in ``q``'s
    coordinates: the step's task, its agents' flat positions ``q_row * N_ACTIONS + action``
    and next Q rows, (steps, agents) each, and whether it won the team reward.

    The tasks are lanes that run their episodes back to back and step in lockstep on numpy
    arrays, with the arithmetic and order of ``_replay``. A lane's private rows map one to
    one onto Q rows, so its updates are those that ``_replay`` makes in ``q``.
    """
    n_tasks, episodes_per_task, max_steps, n_agents = code.shape
    lr, discount = learner.learning_rate, learner.discount
    q_row, start, successor, on_goal = _lane_tables(starts, goals, env_cfg)
    private = q.reshape(-1, N_ACTIONS).take(q_row, axis=0)
    code = code.reshape(-1, n_agents)
    values = private.reshape(-1)
    # The state of the live lanes, one entry (or row of agents) each: the private rows of
    # the agents' cells, a lane's position in ``code``, where its episode meets the step
    # cap there and the end of its last episode. ``left`` counts down to the first
    # iteration at which a lane may meet its cap. ``draw`` and ``stop`` are changed in
    # place; the arrays in ``records`` never are.
    row, draw = start, np.arange(0, len(code), max_steps * episodes_per_task)
    stop, end = draw + max_steps, draw + episodes_per_task * max_steps
    left = max_steps
    records = []  # per iteration: update indices into private, next rows, rewards
    while True:
        pick = _PICK.take(code.take(draw, axis=0) + private.take(row, axis=0).argmax(axis=2))
        index = row * N_ACTIONS + pick
        next_row = successor.take(index).astype(np.intp)
        won = np.logical_and.reduce(on_goal.take(next_row), axis=1)
        draw = draw + 1
        left -= 1
        any_won = np.count_nonzero(won)
        ends_episode = left == 0 or any_won
        # _replay's target: discount * max(next row), or 1.0 on the team reward.
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
    index, next_row, won = (np.concatenate(column) for column in zip(*records))
    del records, private, values, successor, on_goal  # mapped with these alive, the peak RSS rose
    lanes = index[:, 0] // (len(q_row) // n_tasks * N_ACTIONS)
    order = np.argsort(lanes, kind="stable")
    rows, actions = np.divmod(index.take(order, axis=0), N_ACTIONS)
    return (lanes.take(order), q_row.take(rows) * N_ACTIONS + actions,
            q_row.take(next_row.take(order, axis=0)), won.take(order))


def _replay(q: np.ndarray, positions: np.ndarray, next_rows: np.ndarray, wins: np.ndarray,
            learner: LearnerParams) -> None:
    """Make in ``q``, in order, the updates of ``_lockstep``'s steps: step i's into the
    flat positions ``positions[i]``, toward the rows ``next_rows[i]`` of ``q.reshape(-1,
    N_ACTIONS)``, on the team reward ``wins[i]``. The shared ``q`` never steers an action,
    so its updates wait for the loop's end. Each goes into its row, a list of N_ACTIONS
    Python floats: on rows that short a Python max beats numpy's per-call overhead, and
    the IEEE double arithmetic is the array's, bit for bit.

    The team reward is 1 exactly on an episode's terminal transition, so it also marks the
    updates that do not bootstrap: the target is 1.0 on a win and ``discount * max(next
    row)`` otherwise, which equal ``1 + discount * 0.0`` and ``0 + discount * max(next
    row)`` for finite values.
    """
    lr, discount = learner.learning_rate, learner.discount
    shared = q.reshape(-1, N_ACTIONS).tolist()
    rows, actions = np.divmod(positions.ravel(), N_ACTIONS)
    for row, action, next_row, won in zip(  # memoryviews, not lists: no copy of every update
            map(shared.__getitem__, memoryview(rows)), memoryview(actions),
            map(shared.__getitem__, memoryview(next_rows.ravel())),
            memoryview(np.repeat(wins, positions.shape[1]))):
        old = row[action]
        row[action] = old + lr * ((1.0 if won else discount * max(next_row)) - old)
    q[:] = np.fromiter(chain.from_iterable(shared), float, q.size).reshape(q.shape)


def greedy_success(q: np.ndarray, blocks, env_cfg: EnvConfig) -> np.ndarray:
    """Greedy (epsilon = 0) success of the action values ``q`` on each task of the
    ``(B, n_agents, 4)`` block stack ``blocks``, checked as ``train_on_tasks`` checks it: a
    bool array of length B. Never mutates ``q``.

    The environment is deterministic and a greedy episode draws no random numbers, so one
    episode per task gives its exact success rate: task b's is that of ``rollout`` without
    draws. The tasks are lanes that step together, at most ``max_steps`` times. Each step,
    every live lane reads the rows of ``q`` at its agents' current cells, takes each
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
    q_row, row, successor, on_goal = _lane_tables(starts, goals, env_cfg)
    q_rows = q.reshape(-1, N_ACTIONS)
    # Rows are intp, so that each step's arithmetic stays in one dtype.
    successor = successor.astype(np.intp)
    # The live lanes, one entry (or row of agents) each: the task and its agents' rows.
    lanes = np.arange(len(starts))
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
