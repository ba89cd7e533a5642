"""Increment tails and remaining-time tails of simulated paths.

Two ensemble experiments:

* Increment records: each record simulates a fresh tiled path, draws one
  uniform anchor s, and measures both the plain increment |X(s+t) - X(s)|
  and the running supremum sup_{0<=r<=t} |X(s+r) - X(s)|.  The sup tail is
  fitted against exp(-c * u) in the scaled variable
  u = (x / t**H)**(1/(1-H)), so the fitted exponent targets 1; the plain
  increment is dominated by the sup record by record, giving a sandwich
  check with an exact zero-violation expectation.

* Remaining-time records: uniform query times s on one path; the gap to the
  next lattice passage at a fixed level n, rescaled by mu**-n, has
  P(gap <= u) whose log(-log) chord against log u targets slope -1 on a
  moderate-u window.  Each record also carries y, the 1-based index of the
  current level-n subcrossing within its enclosing level-(n+1) crossing.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import AnalysisError, ConfigError
from .extract import coarser_passages, extract_passage_times
from .paths import SimulationConfig, path_records, window_deviation
from .rng import STREAM_GAP, STREAM_INCREMENT, STREAM_QUERY, substream
from .tailfit import TailFit, fit_log_minus_log, quantile_grid

__all__ = [
    "INCREMENT_WINDOW",
    "INCREMENT_POINTS",
    "REMAINING_WINDOW",
    "REMAINING_POINTS",
    "IncrementRecords",
    "IncrementTailFit",
    "increment_records",
    "increment_tail",
    "RemainingTimeRecords",
    "RemainingTimeFit",
    "remaining_time_records",
    "remaining_time_tail",
]

# Span each increment record's tiled path covers; its lag t stays below 0.9 of it.
INCREMENT_HORIZON = 1.0

# Tail-probability window for the sup-increment quantile grid, and the
# scaled-gap window for the remaining-time chord.  Both calibrated so the
# fitted chords sit within a few percent of their targets at 1e5 records.
INCREMENT_WINDOW = (2e-3, 0.2)
INCREMENT_POINTS = 14
REMAINING_WINDOW = (0.25, 1.0)
REMAINING_POINTS = 12


@dataclass
class IncrementRecords:
    """Paired (plain, sup) increment magnitudes from independent paths."""

    t: float
    hurst: float
    plain: np.ndarray
    sup: np.ndarray

    @property
    def n_records(self):
        return int(self.plain.size)


def _increment_record(t, path):
    rng = substream(path.meta["seed"], STREAM_QUERY)   # (master_seed, STREAM_INCREMENT, i)
    s = rng.uniform(path.times[0], path.times[0] + 0.9 * path.span - t)
    v_s = np.interp(s, path.times, path.values)
    plain = abs(np.interp(s + t, path.times, path.values) - v_s)
    return plain, window_deviation(path, np.array([s]), np.array([s + t]), v_s)[0]


def increment_records(dist, t, n_records, master_seed,
                      depth=7, workers=1):
    """Collect n_records independent (plain, sup) increment pairs.

    One path and one anchor per record; record i depends only on
    (master_seed, i), so results are bit-identical for any worker count.
    """
    config = SimulationConfig(
        offspring=dist, depth=depth, duration_mode="mean", root_mode="tile",
        target_horizon=INCREMENT_HORIZON, keep_trees=False,
    )
    if not 0 < t < 0.9 * INCREMENT_HORIZON:
        raise ConfigError(
            "INVALID_CONFIG", f"need 0 < t < 0.9 * horizon {INCREMENT_HORIZON}, got t={t}"
        )
    plain, sup = np.array(path_records(
        config, (master_seed, STREAM_INCREMENT), n_records,
        partial(_increment_record, t), workers,
    )).T
    return IncrementRecords(t=float(t), hurst=float(config.offspring.hurst), plain=plain, sup=sup)


@dataclass
class IncrementTailFit(TailFit):
    """Sup-increment tail fit plus the plain-increment sandwich curve."""

    n_records: int = 0
    plain_p_hat: np.ndarray = None
    sandwich_violations: int = 0


def increment_tail(records, window=INCREMENT_WINDOW, n_points=INCREMENT_POINTS):
    """Fit the sup-increment tail exponent; target 1 in scaled coordinates.

    ``sandwich_violations`` counts records whose plain increment exceeds
    their sup, which is impossible by construction, so any nonzero count
    flags a measurement bug rather than a statistical fluctuation.
    """
    h = records.hurst
    sup_sorted = np.sort(records.sup)
    x = quantile_grid(records.sup, *window, n_points, tail="upper")
    x = x[x > 0]
    p_sup = 1.0 - np.searchsorted(sup_sorted, x, side="right") / sup_sorted.size
    plain_sorted = np.sort(records.plain)
    p_plain = 1.0 - np.searchsorted(plain_sorted, x, side="right") / plain_sorted.size
    u = (x / records.t ** h) ** (1.0 / (1.0 - h))
    violations = int(np.sum(records.plain > records.sup))
    keep = (p_sup > 0.0) & (p_sup < 1.0)
    return fit_log_minus_log(
        u, p_sup, 1.0, cls=IncrementTailFit,
        n_records=records.n_records, plain_p_hat=p_plain[keep],
        sandwich_violations=violations,
    )


@dataclass
class RemainingTimeRecords:
    """Gap-to-next-passage records at one lattice level of one path."""

    level: int
    mu: float
    s: np.ndarray
    gap: np.ndarray
    next_time: np.ndarray
    y: np.ndarray           # subcrossing index within the enclosing crossing
    n_dropped: int

    @property
    def n_records(self):
        return int(self.gap.size)


def remaining_time_records(path, level, n_queries, master_seed, query_index=0):
    """Uniform query times with the wait until the next level-n passage.

    Queries land uniformly on the first 90 percent of the span.  Queries
    with no later passage at the level are dropped (counted in n_dropped).
    y is 1-based within the enclosing level-(n+1) crossing and 0 when the
    query does not sit strictly inside a complete one.
    """
    if n_queries < 1:
        raise ConfigError("INVALID_CONFIG", f"need n_queries >= 1, got {n_queries}")
    rng = substream(master_seed, STREAM_GAP, query_index)
    tau, values = extract_passage_times(path, level)
    parents = coarser_passages(np.rint((values - values[0]) * 2.0 ** -level).astype(np.int64))
    t0 = float(path.times[0])
    s = rng.uniform(t0, t0 + 0.9 * path.span, size=n_queries)
    nxt = np.searchsorted(tau, s, side="left")
    ok = nxt < tau.size
    s, nxt = s[ok], nxt[ok]
    at = np.searchsorted(tau, s, side="right") - 1      # the last passage at or before s
    j = np.searchsorted(parents, at, side="right") - 1  # the level-(n+1) crossing it starts in
    y = np.where(j + 1 < parents.size, at - parents[j] + 1, 0)
    return RemainingTimeRecords(
        level=int(level), mu=path.mu, s=s, gap=tau[nxt] - s, next_time=tau[nxt], y=y,
        n_dropped=int(n_queries - s.size),
    )


@dataclass
class RemainingTimeFit(TailFit):
    """Chord fit of log(-log P(scaled gap <= u)) against log u."""

    levels: tuple = ()
    n_records: int = 0
    interior_fraction: float = 0.0   # share of records with y >= 1


def remaining_time_tail(records, window=REMAINING_WINDOW, n_points=REMAINING_POINTS):
    """Pooled remaining-time chord fit; target slope -1.

    ``records`` is one RemainingTimeRecords or a list (possibly at different
    levels); each batch is rescaled by its own mu**-level before pooling.
    """
    batches = records if isinstance(records, (list, tuple)) else [records]
    if not batches:
        raise ConfigError("INVALID_CONFIG", "no remaining-time records")
    scaled, y_all, levels = [], [], []
    for rec in batches:
        if rec.mu is None:
            raise ConfigError("INVALID_CONFIG", "remaining-time records carry no mu")
        scaled.append(rec.gap * float(rec.mu) ** (-rec.level))
        y_all.append(rec.y)
        levels.append(rec.level)
    scaled = np.sort(np.concatenate(scaled))
    if scaled.size == 0:
        raise AnalysisError("INSUFFICIENT_TAIL_POINTS", "every remaining-time query was dropped")
    y_all = np.concatenate(y_all)
    u = np.exp(np.linspace(np.log(window[0]), np.log(window[1]), n_points))
    p_le = np.searchsorted(scaled, u, side="right") / scaled.size
    return fit_log_minus_log(
        u, p_le, -1.0, cls=RemainingTimeFit,
        levels=tuple(sorted(set(levels))),
        n_records=int(scaled.size),
        interior_fraction=float(np.mean(y_all >= 1)),
    )
