"""Galton-Watson population simulation and martingale-limit sampling.

W is the limit of the population at generation k normed by mu^k.  ``w_chain``
runs the population chain in aggregate: one negative-binomial / Poisson /
binomial-split draw per generation instead of one draw per individual, which
is exact in law and makes k = 12 with a million samples cheap.  W samples and
leaf durations (mean mode is its k = 0 case) both draw through it.

Reproducibility contract: block b of W_BLOCK samples is one vectorized chain on
the substream keyed (STREAM_W, b) under the master seed, and sample i comes from
block i // W_BLOCK, so any chunking of the index range over any number of
workers yields bit-identical ensembles.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, ConfigError
from .rng import STREAM_W, substream

__all__ = ["W_BLOCK", "WEnsemble", "sample_W", "sample_w_range", "w_chain"]
W_BLOCK = 1024   # a constant, never a function of workers: it fixes every sample's stream


@dataclass
class WEnsemble:
    """W samples (population at generation k over mu^k) with E W = 1."""

    samples: np.ndarray
    source: object  # OffspringDistribution


# Realized populations run above their mean mu^k, so the mean is held well
# below the int64 limit of 2^63: 2^52 leaves a 2^10 margin.
MAX_MEAN_POPULATION = 2.0 ** 52


def check_depth(dist, generations):
    """Refuse a population chain whose counts could overflow 64-bit integers."""
    expected = dist.mu ** generations
    if expected > MAX_MEAN_POPULATION:
        raise BudgetError(
            "DEPTH_OVERFLOW",
            f"expected population mu^k = {expected:.3g} exceeds 2^52, "
            "so 64-bit counts could overflow",
        )


def w_chain(dist, rng, counts, generations):
    """``counts`` grown for ``generations`` generations, over mu^k; zero draws nothing."""
    if generations < 0:
        raise ConfigError("INVALID_CONFIG", f"w_generations must be >= 0, got {generations}")
    check_depth(dist, generations)
    for _ in range(generations):
        counts = dist.population_step(rng, counts)
    return counts / dist.mu ** generations


def sample_w_range(dist, generations, start, stop, master_seed):
    """W samples for indices [start, stop), cut from the blocks that cover them."""
    first, ones = start // W_BLOCK, np.ones(W_BLOCK, dtype=np.int64)
    blocks = [w_chain(dist, substream(master_seed, STREAM_W, b), ones, generations)
              for b in range(first, -(-stop // W_BLOCK))]
    return np.concatenate([np.empty(0), *blocks])[start - first * W_BLOCK:stop - first * W_BLOCK]


def sample_W(dist, generations, count, seed):
    """``count`` approximate-W samples at depth ``generations``; sample i depends on (seed, i) only."""
    if generations < 1:
        raise ConfigError("INVALID_CONFIG", f"generations must be >= 1, got {generations}")
    if count < 1:
        raise ConfigError("INVALID_CONFIG", f"count must be >= 1, got {count}")
    return WEnsemble(samples=sample_w_range(dist, generations, 0, count, seed), source=dist)
