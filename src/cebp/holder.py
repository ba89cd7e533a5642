"""Pointwise regularity estimation on sample paths.

Estimates local Holder exponents by regressing the log of the windowed
oscillation sup |X(s) - X(t)|, |s - t| <= eps, against log eps over a dyadic
range eps = 2**-j.  A histogram of grid-point exponents plus the log-count
normalization gives a coarse multifractal spectrum; a monofractal path puts
essentially all mass in one bin.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import AnalysisError, ConfigError

__all__ = [
    "HolderEstimate",
    "window_oscillation",
    "holder_histogram",
]


def _window_extrema(times, values, lo, hi):
    """Max and min of the interpolated path on each closed window [lo, hi].

    Interior knots are scanned with maximum/minimum.reduceat on interleaved
    slice bounds; the window endpoints enter through exact interpolation, so
    knots sitting exactly on a boundary are covered either way.
    """
    il = np.searchsorted(times, lo, side="right")
    ih = np.searchsorted(times, hi, side="left")
    edges = np.empty(2 * il.size, dtype=np.int64)
    edges[0::2] = il
    edges[1::2] = ih
    has_knots = ih > il
    if np.any(has_knots):
        kmax = np.maximum.reduceat(values, np.minimum(edges, values.size - 1))[0::2]
        kmin = np.minimum.reduceat(values, np.minimum(edges, values.size - 1))[0::2]
    else:
        kmax = np.full(il.size, -np.inf)
        kmin = np.full(il.size, np.inf)
    kmax = np.where(has_knots, kmax, -np.inf)
    kmin = np.where(has_knots, kmin, np.inf)
    v_lo = np.interp(lo, times, values)
    v_hi = np.interp(hi, times, values)
    wmax = np.maximum(np.maximum(kmax, v_lo), v_hi)
    wmin = np.minimum(np.minimum(kmin, v_lo), v_hi)
    return wmax, wmin


def window_oscillation(path, centers, eps):
    """sup |X(s) - X(center)| over |s - center| <= eps, vectorized in centers.

    Every window must lie inside the path domain.
    """
    centers = np.atleast_1d(np.asarray(centers, dtype=float))
    t0, t1 = path.times[0], path.times[-1]
    if np.any(centers - eps < t0) or np.any(centers + eps > t1):
        raise AnalysisError(
            "EPS_RANGE_INFEASIBLE",
            f"window half-width {eps} leaves the path domain [{t0}, {t1}]",
        )
    wmax, wmin = _window_extrema(path.times, path.values, centers - eps, centers + eps)
    at_center = np.interp(centers, path.times, path.values)
    return np.maximum(wmax - at_center, at_center - wmin)


@dataclass
class HolderEstimate:
    """Grid of local exponent estimates with histogram and coarse spectrum."""

    grid_times: np.ndarray
    exponents: np.ndarray          # NaN where the oscillation vanished
    eps_levels: list
    bin_edges: np.ndarray
    counts: np.ndarray
    coarse_spectrum: np.ndarray    # log count / log(1 / grid step), NaN for empty bins
    grid_step: float
    meta: dict = field(default_factory=dict)

    @property
    def valid(self):
        return self.exponents[np.isfinite(self.exponents)]

    def summary(self):
        v = self.valid
        return {
            "n_grid": int(self.grid_times.size),
            "n_valid": int(v.size),
            "mean": float(v.mean()) if v.size else float("nan"),
            "std": float(v.std(ddof=1)) if v.size > 1 else float("nan"),
            "mode_bin": (
                [float(self.bin_edges[k]) for k in
                 (int(np.argmax(self.counts)), int(np.argmax(self.counts)) + 1)]
                if self.counts.size else None
            ),
        }


def holder_histogram(path, n_grid, eps_levels, bins=20, bin_range=None):
    """Local exponents on a uniform interior grid, binned into a spectrum.

    The grid is placed so every window at the largest eps stays inside the
    path domain; raises EPS_RANGE_INFEASIBLE when the domain is too short
    for that.
    """
    if n_grid < 2:
        raise ConfigError("INVALID_CONFIG", f"need n_grid >= 2, got {n_grid}")
    levels = sorted(int(j) for j in eps_levels)
    if len(levels) < 2:
        raise ConfigError("INVALID_CONFIG", "need at least 2 eps levels for a slope")
    if len(set(levels)) != len(levels):
        raise ConfigError("INVALID_CONFIG", "eps levels must be distinct")
    eps = 2.0 ** -np.array(levels, dtype=float)
    eps_max = eps.max()
    t0, t1 = float(path.times[0]), float(path.times[-1])
    lo, hi = t0 + eps_max, t1 - eps_max
    if hi <= lo:
        raise AnalysisError(
            "EPS_RANGE_INFEASIBLE",
            f"span {t1 - t0} cannot hold windows of half-width {eps_max}",
        )
    grid = np.linspace(lo, hi, n_grid)
    log_osc = np.empty((eps.size, n_grid))
    for row, e in enumerate(eps):
        osc = window_oscillation(path, grid, e)
        with np.errstate(divide="ignore"):
            log_osc[row] = np.log(osc)
    x = np.log(eps) - np.log(eps).mean()
    denom = float(np.dot(x, x))
    finite = np.all(np.isfinite(log_osc), axis=0)
    slopes = np.full(n_grid, np.nan)
    if np.any(finite):
        centered = log_osc[:, finite] - log_osc[:, finite].mean(axis=0)
        slopes[finite] = x @ centered / denom
    valid = slopes[np.isfinite(slopes)]
    if bin_range is None:
        if valid.size == 0:
            raise AnalysisError("EPS_RANGE_INFEASIBLE", "no finite exponent estimates")
        pad = 0.05
        bin_range = (valid.min() - pad, valid.max() + pad)
    counts, bin_edges = np.histogram(valid, bins=bins, range=bin_range)
    grid_step = float(grid[1] - grid[0])
    with np.errstate(divide="ignore"):
        spectrum = np.where(
            counts > 0, np.log(np.maximum(counts, 1)) / np.log(1.0 / grid_step), np.nan
        )
    return HolderEstimate(
        grid_times=grid,
        exponents=slopes,
        eps_levels=levels,
        bin_edges=bin_edges,
        counts=counts,
        coarse_spectrum=spectrum,
        grid_step=grid_step,
        meta={
            "hurst": path.hurst,
            "mu": path.mu,
            "origin": path.origin,
            "n_invalid": int(n_grid - valid.size),
        },
    )
