"""Task fitness from measured success rates, plus the nearest-prototype estimator."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

FITNESS_MODES = ("sigmoid", "linear")
# The largest gain whose exp(gain * |r - 0.5|) stays finite for every rate: 2 ln(float max).
MAX_GAIN = 2.0 * math.log(sys.float_info.max)


@dataclass(frozen=True)
class FitnessParams:
    """Shape of the difficulty-to-fitness mapping.

    The sigmoid form peaks at success rate 0.5 so moderately hard tasks
    score highest.
    """

    gain: float = 2.0
    mode: str = "sigmoid"

    def __post_init__(self) -> None:
        if self.mode not in FITNESS_MODES:
            raise ValueError(f"fitness mode must be one of {FITNESS_MODES}, got {self.mode!r}")
        # Checked in both modes: the fitness-shape ablation runs a linear config as sigmoid.
        if not 0.0 < self.gain <= MAX_GAIN:
            raise ValueError(f"gain must be positive and at most 2 ln(float max) = {MAX_GAIN!r}, "
                             f"got {self.gain!r}")

    def evaluate(self, success_rate: float) -> float:
        if self.mode == "linear":
            return linear_fitness(success_rate)
        return sigmoid_fitness(success_rate, self)


def _check_rate(success_rate: float) -> None:
    if not 0.0 <= success_rate <= 1.0:
        raise ValueError(f"success rate must lie in [0, 1], got {success_rate}")


def sigmoid_fitness(success_rate: float, params: FitnessParams) -> float:
    """Fitness 1 / (1 + exp(gain * |r - 0.5|)), maximal (0.5) at r = 0.5."""
    _check_rate(success_rate)
    return 1.0 / (1.0 + math.exp(params.gain * abs(success_rate - 0.5)))


def linear_fitness(success_rate: float) -> float:
    """Ablation shape -|r - 0.5|: same peak location, no saturation.

    No slope: fitness enters a run only through a descending sort and ratios
    of differences, so any positive scale would cancel.
    """
    _check_rate(success_rate)
    return -abs(success_rate - 0.5)


@dataclass(frozen=True, eq=False)
class PrototypeSet:
    """Measured (genome vector, fitness) pairs serving as KNN anchors."""

    vectors: np.ndarray
    fitnesses: np.ndarray

    def __post_init__(self) -> None:
        vecs = np.ascontiguousarray(self.vectors, dtype=float)
        fits = np.ascontiguousarray(self.fitnesses, dtype=float)
        if vecs.ndim != 2:
            raise ValueError(f"prototype vectors must be 2-d, got shape {vecs.shape}")
        if fits.ndim != 1 or fits.shape[0] != vecs.shape[0]:
            raise ValueError("prototype fitnesses must align with vectors")
        if not np.isfinite(vecs).all() or not np.isfinite(fits).all():
            raise ValueError("prototypes must be finite")
        vecs.setflags(write=False)
        fits.setflags(write=False)
        object.__setattr__(self, "vectors", vecs)
        object.__setattr__(self, "fitnesses", fits)

    def __len__(self) -> int:
        return int(self.vectors.shape[0])


def knn_estimate(query, prototypes: PrototypeSet, k: int) -> float | np.ndarray:
    """Mean fitness of the k prototypes closest to ``query`` in Euclidean distance.

    ``query`` is one vector, which gives a float, or an ``(A, D)`` stack of them, which
    gives their A estimates as an array, each the float the single query gives. Distance
    ties resolve toward the lowest prototype index, as in a stable sort. The k fitnesses
    are summed left to right from 0.0, nearest first; ``np.sum`` would sum them pairwise
    once k >= 8.
    """
    count = len(prototypes)
    if count == 0:
        raise ValueError("prototype set is empty")
    if not 1 <= k <= count:
        raise ValueError(f"k must lie in [1, {count}], got {k}")
    queries = np.asarray(query, dtype=float)
    single = queries.ndim < 2
    if single:
        queries = queries.reshape(1, -1)
    if queries.ndim != 2 or queries.shape[1] != prototypes.vectors.shape[1]:
        raise ValueError("query dimension does not match prototypes")
    # (A, B, D), C-contiguous: the same last-axis reduction for every query as for one.
    # Squared in place: a second array this size costs more in fresh pages than the product.
    diffs = prototypes.vectors - queries[:, None, :]
    diffs *= diffs
    squared = diffs.sum(axis=-1)
    # k first-argmin passes, each taken entry set to inf: the first k indices of a stable
    # argsort, ties included, without sorting whole rows. Overflowed distances are capped
    # below inf first, so a taken entry never ties with one still to take.
    np.minimum(squared, np.finfo(float).max, out=squared)
    rows = np.arange(queries.shape[0])
    total = np.zeros(queries.shape[0])
    for _ in range(k):
        nearest = squared.argmin(axis=-1)
        total += prototypes.fitnesses[nearest]
        squared[rows, nearest] = np.inf
    estimates = total / k
    return float(estimates[0]) if single else estimates
