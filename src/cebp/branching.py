"""Galton-Watson population simulation and martingale-limit sampling.

W is the limit of the population at generation k normed by mu^k.  ``w_chain``
runs the population chain in aggregate: one negative-binomial / Poisson /
binomial-split draw per generation instead of one draw per individual, which
is exact in law and makes k = 12 with a million samples cheap.  ``chain_blocks``
runs it once per block, on the substream (*key, b) of block b, for W samples
and sampled leaf durations alike, and joins the blocks in order.

Reproducibility contract: block b of W_BLOCK samples is keyed (STREAM_W, b)
under the master seed, and sample i comes from block i // W_BLOCK, so neither
the chunking of the index range, nor the worker or thread count, changes a bit.
"""

import os
from concurrent import futures
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, ConfigError
from .rng import STREAM_W, substream

__all__ = ["W_BLOCK", "WEnsemble", "chain_blocks", "sample_W", "sample_w_range", "w_chain"]
W_BLOCK = 1024   # a constant, never a function of workers: it fixes every sample's stream
POOL_CHAINS = 2 ** 15   # fewer chains in all draw faster on one thread than a pool starts


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
    """``counts`` grown for ``generations`` generations, over mu^k; ``chain_blocks`` checks k."""
    for _ in range(generations):
        counts = dist.population_step(rng, counts)
    return counts / dist.mu ** generations


def chain_blocks(dist, generations, key, first, sizes):
    """``w_chain`` from ``sizes[j]`` ones on the substream (*key, first + j), joined in order.

    Blocks of at least POOL_CHAINS chains in all run on a per-call pool, one
    thread per CPU this process may run on (numpy releases the GIL while it
    draws), so no thread outlives the call into a forked worker.
    """
    if generations < 0:
        raise ConfigError("INVALID_CONFIG", f"w_generations must be >= 0, got {generations}")
    check_depth(dist, generations)

    def block(b, size):
        return w_chain(dist, substream(*key, b), np.ones(size, dtype=np.int64), generations)

    blocks = range(first, first + len(sizes))
    if sum(sizes) < POOL_CHAINS:
        return np.concatenate([np.empty(0), *map(block, blocks, sizes)])
    with futures.ThreadPoolExecutor(min(len(sizes), len(os.sched_getaffinity(0)))) as pool:
        return np.concatenate(list(pool.map(block, blocks, sizes)))


def sample_w_range(dist, generations, start, stop, master_seed):
    """W samples for indices [start, stop), cut from the blocks that cover them."""
    first = start // W_BLOCK
    sizes = [W_BLOCK] * (-(-stop // W_BLOCK) - first)
    samples = chain_blocks(dist, generations, (master_seed, STREAM_W), first, sizes)
    return samples[start - first * W_BLOCK:stop - first * W_BLOCK]


def sample_W(dist, generations, count, seed):
    """``count`` approximate-W samples at depth ``generations``; sample i depends on (seed, i) only."""
    if generations < 1:
        raise ConfigError("INVALID_CONFIG", f"generations must be >= 1, got {generations}")
    if count < 1:
        raise ConfigError("INVALID_CONFIG", f"count must be >= 1, got {count}")
    return WEnsemble(samples=sample_w_range(dist, generations, 0, count, seed), source=dist)
