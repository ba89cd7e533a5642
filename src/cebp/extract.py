"""Crossing structure extraction and scaling estimators.

The inverse of path construction: given any continuous piecewise-linear path,
find the passage times of the lattice 2**n * Z (anchored at the starting
value), stack them level by level into a forest of nested crossing records,
and estimate the mean subcrossing count, the Hurst index, and the per-level
duration scaling from that forest.

Passage times nest exactly: a level-n passage is always simultaneously a
level-(n-1) passage, and for dyadic lattices the interpolation arithmetic
below reproduces the shared times bit for bit.  The forest assembly relies on
that by locating subcrossings with plain binary search on the time arrays.
"""

from dataclasses import dataclass

import numpy as np

from .errors import AnalysisError, ConfigError

__all__ = [
    "LevelCrossings",
    "CrossingForest",
    "extract_passage_times",
    "extract_crossing_forest",
    "estimate_hurst",
    "duration_scale_invariance",
    "subcrossing_pmf",
    "forest_matches_tree",
]


def extract_passage_times(path, level):
    """Passage times and lattice values of 2**level * Z along the path.

    The first entry is the path start anchored to its own starting value;
    each subsequent entry is the first time the interpolated path reaches a
    lattice point different from the previous one.  Times come from exact
    linear-interpolation root finding on the knot segments.
    """
    if path.n_knots < 2:
        raise ConfigError("INVALID_CONFIG", "path needs at least 2 knots")
    if not -1022 <= level <= 1023:     # 2**level and the forest's 2**-level stay finite and exact
        raise ConfigError("INVALID_CONFIG", f"lattice level {level} is outside -1022..1023")
    if level < path.resolution_level:
        raise AnalysisError(
            "LEVEL_TOO_FINE",
            f"lattice 2^{level} is below the path resolution 2^{path.resolution_level}",
        )
    a = 2.0 ** level
    t = path.times
    u = (path.values - path.values[0]) / a     # lattice units, anchor at 0
    du = np.diff(u)
    if du.size and np.all(np.abs(du) == 1.0):
        # every knot is already a passage (typical for a simulated path at
        # its own resolution level): no interpolation work to do
        return t.astype(np.float64, copy=False), path.values.astype(np.float64, copy=False)
    u1, u2 = u[:-1], u[1:]
    up = u2 > u1
    lo_f, hi_f = np.floor(u1), np.floor(u2)
    ce_f, ce2_f = np.ceil(u1), np.ceil(u2)
    n_events = np.where(
        up,
        np.maximum(hi_f - lo_f, 0.0),
        np.maximum(ce_f - ce2_f, 0.0),
    ).astype(np.int64)
    total = int(n_events.sum())
    seg = np.repeat(np.arange(n_events.size), n_events)
    offset = np.arange(total) - np.repeat(
        np.concatenate([[0], np.cumsum(n_events)[:-1]]), n_events
    )
    start_k = np.where(up, lo_f + 1.0, ce_f - 1.0)
    direction = np.where(up, 1.0, -1.0)
    k = start_k[seg] + direction[seg] * offset
    frac = (k - u1[seg]) / (u2[seg] - u1[seg])
    times = t[seg] + frac * (t[1:][seg] - t[:-1][seg])
    # prepend the anchored start, then keep only moves to a new lattice point
    k = np.concatenate([[0.0], k])
    times = np.concatenate([[t[0]], times])
    keep = np.empty(k.size, dtype=bool)
    keep[0] = True
    np.not_equal(k[1:], k[:-1], out=keep[1:])
    return times[keep], path.values[0] + a * k[keep]


@dataclass
class LevelCrossings:
    """Complete crossings of one lattice level, in path order."""

    level: int
    start_times: np.ndarray
    end_times: np.ndarray
    orientations: np.ndarray          # int8, +1 up / -1 down
    subcrossing_counts: np.ndarray    # int64; zeros at the forest base level

    @property
    def durations(self):
        return self.end_times - self.start_times

    @property
    def n(self):
        return int(self.start_times.size)


@dataclass
class CrossingForest:
    """Nested per-level crossing records extracted from one path."""

    base_level: int
    levels: dict  # level -> LevelCrossings

    def __getitem__(self, level):
        return self.levels[level]


def extract_crossing_forest(path, level_range):
    """Extract complete crossing records for every level in [lo, hi].

    Each level-n record spans two consecutive level-n passage times;
    ``subcrossing_counts`` holds the number of level-(n-1) records inside
    (zero on the base level, where no finer level was extracted).  Trailing
    incomplete crossings simply never form a record.
    """
    lo, hi = int(level_range[0]), int(level_range[1])
    if lo > hi:
        raise ConfigError("INVALID_CONFIG", f"level range [{lo}, {hi}] is empty")
    times, values = extract_passage_times(path, lo)
    # integer lattice units; passages of coarser levels are a subsequence of
    # these, so each level is derived from the one below instead of rescanning
    # the raw path, and subcrossing counts fall out as index differences
    u = np.rint((values - values[0]) * 2.0 ** -lo).astype(np.int64)
    levels = {}
    z = np.zeros(max(u.size - 1, 0), dtype=np.int64)
    for n in range(lo, hi + 1):
        if n == hi and times.size < 2:
            raise AnalysisError(
                "NO_COMPLETE_CROSSING",
                f"no complete crossing at top level {hi} (path too short)",
            )
        levels[n] = LevelCrossings(
            level=n, start_times=times[:-1], end_times=times[1:],
            orientations=np.diff(u).astype(np.int8), subcrossing_counts=z,
        )
        if n < hi:
            idx = np.nonzero((u & 1) == 0)[0]
            uu = u[idx] >> 1
            keep = np.empty(uu.size, dtype=bool)
            if uu.size:
                keep[0] = True
                np.not_equal(uu[1:], uu[:-1], out=keep[1:])
            kept = idx[keep]
            z = np.diff(kept)
            times, u = times[kept], uu[keep]
    return CrossingForest(base_level=lo, levels=levels)


def _parent_counts(forest):
    """Subcrossing counts pooled over all levels above the base."""
    arrays = [
        rec.subcrossing_counts
        for n, rec in forest.levels.items()
        if n > forest.base_level and rec.n
    ]
    return np.concatenate(arrays) if arrays else np.empty(0, dtype=np.int64)


def estimate_hurst(forest):
    """Pooled-count estimate of mu and the Hurst index log 2 / log mu.

    stderr comes from the delta method on the pooled count mean.  Also fits
    log mean duration against level as an independent check: that slope
    estimates log mu per level.
    """
    if len(forest.levels) < 2:
        raise AnalysisError("INSUFFICIENT_CROSSINGS", "need at least 2 extracted levels")
    counts = _parent_counts(forest)
    if counts.size < 30:
        raise AnalysisError(
            "INSUFFICIENT_CROSSINGS",
            f"only {counts.size} complete parent crossings (need 30)",
        )
    mu_hat = float(counts.mean())
    sd = float(counts.std(ddof=1))
    se_mu = sd / np.sqrt(counts.size)
    hurst_hat = float(np.log(2.0) / np.log(mu_hat))
    stderr = float(np.log(2.0) / (mu_hat * np.log(mu_hat) ** 2) * se_mu)
    ns, log_mean_dur = [], []
    for n in sorted(forest.levels):
        rec = forest.levels[n]
        if rec.n:
            ns.append(n)
            log_mean_dur.append(np.log(rec.durations.mean()))
    slope = None
    if len(ns) >= 2:
        slope = float(np.polyfit(ns, log_mean_dur, 1)[0])
    return {
        "mu_hat": mu_hat,
        "hurst_hat": hurst_hat,
        "stderr": stderr,
        "per_level_counts": {int(n): forest.levels[n].n for n in sorted(forest.levels)},
        "duration_log_mu_slope": slope,
        "duration_mu_hat": float(np.exp(slope)) if slope is not None else None,
    }


def _ks_distance(a, b):
    """Two-sample Kolmogorov-Smirnov distance sup |F_a - F_b|.

    Up to 10,000 points a side, d is rounded onto the 1/lcm(n1, n2) grid, the
    value an exact-mode two-sample KS test reports; larger samples keep it raw.
    """
    a, b = np.sort(a), np.sort(b)
    both = np.concatenate([a, b])
    diff = np.searchsorted(a, both, side="right") / a.size - np.searchsorted(b, both, side="right") / b.size
    d = float(np.abs(diff).max())
    if max(a.size, b.size) <= 10_000:
        lcm = int(np.lcm(a.size, b.size))
        d = round(d * lcm) / lcm
    return d


def duration_scale_invariance(forest, mu, min_crossings=100):
    """KS distances between scaled duration laws of adjacent levels.

    Scaled duration at level n is mu**(-n) * D^n; under the canonical
    construction its law does not depend on n, so adjacent-level KS distances
    stay at the two-sample noise floor.  KS ignores a common scale, so a pair
    compares D^n with D^(n+1) / mu.  A wrong ``mu`` inflates them (negative control).
    """
    if not 0 < mu < np.inf:
        raise ConfigError("INVALID_CONFIG", f"mu must be finite and > 0, got {mu!r}")
    if min_crossings < 1:
        raise ConfigError("INVALID_CONFIG", f"min_crossings must be >= 1, got {min_crossings}")
    eligible = [
        n for n in sorted(forest.levels) if forest.levels[n].n >= min_crossings
    ]
    pairs = []
    for n in eligible:
        if n + 1 not in forest.levels or forest.levels[n + 1].n < min_crossings:
            continue
        lower = forest.levels[n].durations
        upper = forest.levels[n + 1].durations / float(mu)
        pairs.append({
            "levels": (int(n), int(n + 1)),
            "ks": _ks_distance(lower, upper),
            "n_lower": int(lower.size),
            "n_upper": int(upper.size),
        })
    if not pairs:
        raise AnalysisError(
            "INSUFFICIENT_CROSSINGS",
            f"no adjacent level pair has {min_crossings} crossings each",
        )
    return {
        "mu": float(mu),
        "pairs": pairs,
        "max_ks": max(p["ks"] for p in pairs),
    }


def subcrossing_pmf(forest):
    """Empirical pmf of subcrossing counts pooled over all levels above the base."""
    counts = _parent_counts(forest)
    if counts.size == 0:
        raise AnalysisError("INSUFFICIENT_CROSSINGS", "no parent crossings to tabulate")
    values, freq = np.unique(counts, return_counts=True)
    return {int(v): float(f) / counts.size for v, f in zip(values, freq)}


def forest_matches_tree(forest, tree):
    """Verify the round trip: extracted records equal the generating tree.

    Returns None on success or a string describing the first mismatch.
    Checks counts, orientations, passage times (to 1e-9), and subcrossing
    counts at every tree level present in the forest.
    """
    durations, starts = tree.timing()
    for g in range(tree.depth + 1):
        n = tree.root_level - g
        if n not in forest.levels:
            continue
        rec = forest.levels[n]
        size = tree.orientations[g].size
        if rec.n != size:
            return f"level {n}: {rec.n} extracted crossings, tree has {size}"
        if not np.array_equal(rec.orientations, tree.orientations[g]):
            return f"level {n}: orientation mismatch"
        if durations is not None:
            if np.max(np.abs(rec.start_times - starts[g])) > 1e-9:
                return f"level {n}: start times differ beyond 1e-9"
            ends = starts[g] + durations[g]
            if np.max(np.abs(rec.end_times - ends)) > 1e-9:
                return f"level {n}: end times differ beyond 1e-9"
        if g < tree.depth and n - 1 >= forest.base_level:
            if not np.array_equal(rec.subcrossing_counts, tree.z(g)):
                return f"level {n}: subcrossing count mismatch"
    return None
