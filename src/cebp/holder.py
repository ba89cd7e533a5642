"""Pointwise regularity estimation on sample paths.

Estimates local Holder exponents by regressing the log of the windowed
oscillation sup |X(s) - X(t)|, |s - t| <= eps, against log eps over a dyadic
range eps = 2**-j.  A histogram of grid-point exponents plus the log-count
normalization gives a coarse multifractal spectrum; a monofractal path puts
essentially all mass in one bin.  The window scan itself is
``paths.window_deviation``.
"""

from dataclasses import dataclass

import numpy as np

from .errors import AnalysisError, ConfigError
from .paths import window_deviation

__all__ = [
    "HolderEstimate",
    "window_oscillation",
    "holder_histogram",
]


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
    return window_deviation(path, centers - eps, centers + eps,
                            np.interp(centers, path.times, path.values))


@dataclass
class HolderEstimate:
    """Grid of local exponent estimates with histogram and coarse spectrum."""

    grid_times: np.ndarray
    exponents: np.ndarray          # NaN where the oscillation vanished
    bin_edges: np.ndarray
    counts: np.ndarray
    coarse_spectrum: np.ndarray    # log count / log(1 / grid step), NaN for empty bins

    @property
    def valid(self):
        return self.exponents[np.isfinite(self.exponents)]


def holder_histogram(path, n_grid, eps_levels, bins=20):
    """Local exponents on a uniform interior grid, binned into a spectrum.

    The grid is placed so every window at the largest eps stays inside the
    path domain; raises EPS_RANGE_INFEASIBLE when the domain is too short
    for that.  The bins span the finite exponents, padded by 0.05 each side.
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
    if valid.size == 0:
        raise AnalysisError("EPS_RANGE_INFEASIBLE", "no finite exponent estimates")
    counts, bin_edges = np.histogram(valid, bins=bins,
                                     range=(valid.min() - 0.05, valid.max() + 0.05))
    grid_step = float(grid[1] - grid[0])
    with np.errstate(divide="ignore"):
        spectrum = np.where(
            counts > 0, np.log(np.maximum(counts, 1)) / np.log(1.0 / grid_step), np.nan
        )
    return HolderEstimate(
        grid_times=grid,
        exponents=slopes,
        bin_edges=bin_edges,
        counts=counts,
        coarse_spectrum=spectrum,
    )
