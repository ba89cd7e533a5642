"""Galton-Watson population simulation and martingale-limit sampling.

W is the limit of the population at generation k normed by mu^k.  ``w_chain``
runs the population chain in aggregate: one negative-binomial / Poisson /
binomial-split draw per generation instead of one draw per individual, which
is exact in law and makes k = 12 with a million samples cheap.  W samples and
leaf durations (mean mode is its k = 0 case) both draw through it.

Reproducibility contract: sample i always uses the substream keyed
(STREAM_W, i) under the master seed, so any chunking of the index range over
any number of workers yields bit-identical ensembles.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, ConfigError
from .rng import STREAM_W, substream

__all__ = ["WEnsemble", "sample_W", "sample_w_range", "w_chain"]


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
    """W samples for indices [start, stop) under the per-index substream contract."""
    one = np.asarray(1, dtype=np.int64)    # 0-d: draws on shape (1,) cost several times more
    return np.array([w_chain(dist, substream(master_seed, STREAM_W, i), one, generations)
                     for i in range(start, stop)], dtype=np.float64)


def sample_W(dist, generations, count, seed):
    """Draw ``count`` independent approximate-W samples at depth ``generations``.

    ``seed`` is the master seed; samples are independent via per-index
    substreams.
    """
    if generations < 1:
        raise ConfigError("INVALID_CONFIG", f"generations must be >= 1, got {generations}")
    if count < 1:
        raise ConfigError("INVALID_CONFIG", f"count must be >= 1, got {count}")
    return WEnsemble(samples=sample_w_range(dist, generations, 0, count, seed), source=dist)
