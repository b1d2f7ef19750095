"""Keyed deterministic RNG streams derived from one master seed."""

from __future__ import annotations

import numpy as np

# Stream domains, so distinct phases never share a generator.
DOMAIN_INIT = 0
DOMAIN_EVOLVE = 1
DOMAIN_SELECT = 2
DOMAIN_TRAIN = 3


def stream(master_seed: int, *key: int) -> np.random.Generator:
    """Generator keyed by (master_seed, *key); equal keys give equal streams.

    Keying by phase and epoch instead of drawing from one shared generator makes
    resume exact: each phase of each epoch draws from a stream that the seed and
    its key alone fix, whatever ran before it.
    """
    entropy = (int(master_seed),) + tuple(int(part) for part in key)
    return np.random.default_rng(np.random.SeedSequence(entropy=entropy))
