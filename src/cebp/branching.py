"""Galton-Watson population simulation and martingale-limit sampling.

W is the limit of the population at generation k normed by mu^k.  Each sample
here runs the population chain in aggregate: one negative-binomial / Poisson /
binomial-split draw per generation instead of one draw per individual, which
is exact in law and makes k = 12 with a million samples cheap.

Reproducibility contract: sample i always uses the substream keyed
(STREAM_W, i) under the master seed, so any chunking of the index range over
any number of workers yields bit-identical ensembles.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, ConfigError
from .rng import STREAM_W, spawn_seed

__all__ = ["WEnsemble", "sample_W", "sample_w_range"]


@dataclass
class WEnsemble:
    """W samples (population at generation k over mu^k) with E W = 1."""

    generations: int
    samples: np.ndarray
    source: object  # OffspringDistribution


# Realized populations run above their mean mu^k, so the mean is held well
# below the int64 limit of 2^63: 2^52 leaves a 2^10 margin.
MAX_MEAN_POPULATION = 2.0 ** 52


def check_depth(dist, generations, node_budget=None):
    """Refuse a population chain whose counts could overflow 64-bit integers."""
    expected = dist.mu ** generations
    if expected > MAX_MEAN_POPULATION:
        raise BudgetError(
            "DEPTH_OVERFLOW",
            f"expected population mu^k = {expected:.3g} exceeds 2^52, "
            "so 64-bit counts could overflow",
        )
    if node_budget is not None and expected > node_budget:
        raise BudgetError(
            "DEPTH_OVERFLOW",
            f"expected population mu^k = {expected:.3g} exceeds node budget {node_budget:g}",
        )


def sample_w_range(dist, generations, start, stop, master_seed):
    """W samples for indices [start, stop) under the per-index substream contract."""
    out = np.empty(stop - start, dtype=np.float64)
    norm = dist.mu ** generations
    for i in range(start, stop):
        rng = np.random.default_rng(spawn_seed(master_seed, STREAM_W, i))
        n = np.asarray(1, dtype=np.int64)
        for _ in range(generations):
            n = dist.population_step(rng, n)
        out[i - start] = float(n) / norm
    return out


def sample_W(dist, generations, count, seed, node_budget=None):
    """Draw ``count`` independent approximate-W samples at depth ``generations``.

    ``seed`` is the master seed; samples are independent via per-index
    substreams.  ``node_budget`` optionally guards the notional population
    size mu^k (the aggregate chain itself uses O(1) memory per sample).
    """
    if generations < 1:
        raise ConfigError("INVALID_CONFIG", f"generations must be >= 1, got {generations}")
    if count < 1:
        raise ConfigError("INVALID_CONFIG", f"count must be >= 1, got {count}")
    check_depth(dist, generations, node_budget)
    samples = sample_w_range(dist, generations, 0, count, seed)
    return WEnsemble(generations=generations, samples=samples, source=dist)
