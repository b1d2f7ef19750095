"""Task genomes, the normalized task domain, and grid discretization."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

BLOCK_SIZE = 4  # per-agent [start_x, start_y, goal_x, goal_y]
UNIT_DIAMETER = math.sqrt(2.0)  # diagonal of the unit square each agent lives in
DEFAULT_DISTANCE_THRESHOLD = 0.01 * UNIT_DIAMETER


def _checked_blocks(blocks, ndim: int) -> np.ndarray:
    """``blocks`` as a read-only C-ordered float array with ``ndim`` dimensions, the last two
    (n_agents >= 1, BLOCK_SIZE), every component finite; the one genome check. It is a copy,
    which leaves the caller's array writable."""
    arr = np.array(blocks, dtype=float, order="C")
    if arr.ndim != ndim or arr.shape[-1] != BLOCK_SIZE:
        raise ValueError(f"genome blocks must have shape (n, {BLOCK_SIZE}), got {arr.shape}")
    if arr.shape[-2] < 1:
        raise ValueError("genome needs at least one agent block")
    if not np.logical_and.reduce(np.isfinite(arr), axis=None):
        raise ValueError("genome components must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False, slots=True)
class TaskGenome:
    """Per-agent [start, goal] coordinate blocks in normalized [0, 1] units.

    ``blocks`` has shape (n_agents, 4) with rows [sx, sy, gx, gy].
    Construction checks shape and finiteness only: out-of-range components
    are representable, and the operators that make genomes keep them in the
    box.
    """

    blocks: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "blocks", _checked_blocks(self.blocks, 2))

    @classmethod
    def batch(cls, blocks) -> list["TaskGenome"]:
        """One genome per row of an ``(m, n_agents, 4)`` array, checked once as a whole with
        the constructor's checks; the genomes' blocks are read-only views of one checked copy."""
        genomes = []
        for rows in _checked_blocks(blocks, 3):
            genome = object.__new__(cls)
            object.__setattr__(genome, "blocks", rows)
            genomes.append(genome)
        return genomes

    @property
    def n_agents(self) -> int:
        return int(self.blocks.shape[0])

    @property
    def in_domain(self) -> bool:
        return bool((self.blocks >= 0.0).all() and (self.blocks <= 1.0).all())

    def starts(self) -> np.ndarray:
        return self.blocks[:, :2]

    def goals(self) -> np.ndarray:
        return self.blocks[:, 2:]


@dataclass(frozen=True)
class TaskDomain:
    """Normalized unit-box task space tied to a W x W grid.

    ``distance_threshold`` bounds the mean start-goal distance of freshly
    initialized tasks; the default is one percent of the unit-square
    diagonal.
    """

    n_agents: int
    grid_width: int
    distance_threshold: float = DEFAULT_DISTANCE_THRESHOLD

    def __post_init__(self) -> None:
        if self.n_agents < 1:
            raise ValueError("domain needs at least one agent")
        if self.grid_width < 2:
            raise ValueError("grid width must be at least 2")
        if not 0.0 < self.distance_threshold <= UNIT_DIAMETER:
            raise ValueError("distance threshold must lie in (0, sqrt(2)]")


def start_goal_distance(genome: TaskGenome) -> float:
    """Mean Euclidean start-goal distance across agent blocks."""
    deltas = genome.goals() - genome.starts()
    return float(np.sqrt((deltas * deltas).sum(axis=1)).mean())


def discretize(genome: TaskGenome, domain: TaskDomain) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Map a valid genome onto grid cells: floor(c * W), clamped to [0, W-1].

    Returns one ((start_x, start_y), (goal_x, goal_y)) cell pair per agent.
    """
    cells = grid_cells(genome.blocks, domain.grid_width).tolist()
    return [((sx, sy), (gx, gy)) for sx, sy, gx, gy in cells]


def grid_cells(blocks: np.ndarray, width: int) -> np.ndarray:
    """``discretize``'s arithmetic on any array of genome blocks: every coordinate as its
    cell index floor(c * width), clamped to [0, width - 1], as int32."""
    # Plain ufuncs rather than np.clip: this runs on every training batch and greedy
    # evaluation, and np.clip's per-call dtype-limit checks cost more than the arithmetic.
    return np.minimum(np.maximum(np.floor(blocks * width), 0), width - 1).astype(np.int32)


def opposite_corner_target(n_agents: int) -> TaskGenome:
    """Hardest default instance: distinct corner starts, opposite-corner goals."""
    corners = [(0.0, 0.0), (1.0, 1.0), (0.0, 1.0), (1.0, 0.0)]
    blocks = []
    for j in range(n_agents):
        cx, cy = corners[j % len(corners)]
        blocks.append((cx, cy, 1.0 - cx, 1.0 - cy))
    return TaskGenome(np.array(blocks, dtype=float))
