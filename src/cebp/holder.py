"""Pointwise regularity estimation on sample paths.

Estimates local Holder exponents by regressing the log of the windowed
oscillation sup |X(s) - X(t)|, |s - t| <= eps, against log eps over a dyadic
range eps = 2**-j.  A monofractal path measures the same exponent at every
grid point.  One ``paths.window_deviation`` call scans the windows of every
(eps, grid point) pair.
"""

from dataclasses import dataclass

import numpy as np

from .errors import AnalysisError, ConfigError
from .paths import window_deviation

__all__ = ["HolderEstimate", "holder_histogram"]


@dataclass
class HolderEstimate:
    """Local exponent estimates on a uniform grid of times."""

    grid_times: np.ndarray
    exponents: np.ndarray          # NaN where the oscillation vanished

    @property
    def valid(self):
        return self.exponents[np.isfinite(self.exponents)]


def holder_histogram(path, n_grid, eps_levels):
    """Local exponents on a uniform interior grid.

    The grid is placed so every window at the largest eps stays inside the
    path domain; raises EPS_RANGE_INFEASIBLE when the domain is too short
    for that, or when no grid point has a finite exponent.
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
    # Row i holds the windows of half-width eps[i]; an end rounded past the
    # domain by an ulp clamps to the end knot, which the window holds anyway.
    osc = window_deviation(path, (grid - eps[:, None]).ravel(), (grid + eps[:, None]).ravel(),
                           np.tile(np.interp(grid, path.times, path.values), eps.size))
    with np.errstate(divide="ignore"):
        log_osc = np.log(osc).reshape(eps.size, n_grid)
    x = np.log(eps) - np.log(eps).mean()
    finite = np.all(np.isfinite(log_osc), axis=0)
    if not np.any(finite):
        raise AnalysisError("EPS_RANGE_INFEASIBLE", "no finite exponent estimates")
    slopes = np.full(n_grid, np.nan)
    centered = log_osc[:, finite] - log_osc[:, finite].mean(axis=0)
    slopes[finite] = x @ centered / float(np.dot(x, x))
    return HolderEstimate(grid_times=grid, exponents=slopes)
