"""Reproducible random-stream plumbing.

All randomness in the package flows from a single master seed through named
substreams built with ``numpy.random.SeedSequence`` spawn keys.  A substream
is identified by a stream constant plus an index tuple (tree index, sample
index, ...), so ensemble members can be generated in any order, on any number
of workers, and still produce bit-identical output.
"""

from concurrent import futures

import numpy as np

__all__ = [
    "STREAM_W",
    "STREAM_TREE",
    "STREAM_DURATION",
    "STREAM_ROOT",
    "STREAM_QUERY",
    "STREAM_INCREMENT",
    "STREAM_GAP",
    "STREAM_PATH",
    "STREAM_MODULUS",
    "substream",
    "spawn_seed",
]

# Stream constants.  Keep these stable: changing them silently changes every
# seeded result in the package.
STREAM_W = 0x57
STREAM_TREE = 0x54
STREAM_DURATION = 0x44
STREAM_ROOT = 0x52
STREAM_QUERY = 0x51
STREAM_INCREMENT = 0x49
STREAM_GAP = 0x47
STREAM_PATH = 0x50
STREAM_MODULUS = 0x4D


def spawn_seed(master_seed, *key):
    """SeedSequence for the substream named by ``key`` under ``master_seed``."""
    return np.random.SeedSequence(master_seed, spawn_key=tuple(int(k) for k in key))


def substream(master_seed, *key):
    """A fresh ``numpy.random.Generator`` for the named substream."""
    return np.random.default_rng(spawn_seed(master_seed, *key))


def map_blocks(fn, n, args, workers=1):
    """``fn(*args, lo, hi)`` on blocks covering range(n); results in block order.

    One block runs in this process when ``workers`` is 1; otherwise 4 blocks
    per worker go to a process pool.  Records keyed by (seed, index) come out
    the same under any blocking, so callers may concatenate the results.
    """
    n_blocks = 1 if workers <= 1 else 4 * workers
    bounds = np.linspace(0, n, n_blocks + 1).astype(int)
    jobs = [(*args, int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
    if len(jobs) <= 1:
        return [fn(*job) for job in jobs]
    with futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, *zip(*jobs)))
