"""Log-log tail exponent fitting.

The verification lemmas all assert bounds of the form
P ~ exp(-c * x**a) with unknown constants, so the measurable object is the
exponent a: least squares of log(-log p_hat) against log(abscissa).  Grid
points where the empirical probability is 0 or 1 carry no information and are
excluded before fitting.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import AnalysisError, ConfigError

__all__ = ["TailFit", "fit_log_minus_log", "quantile_grid", "w_left_tail_fit"]


@dataclass
class TailFit:
    """A fitted tail exponent with its regression inputs.

    ``abscissa`` holds the regression abscissa (already transformed, e.g.
    lambda**(1/H)/t for increment fits), ``p_hat`` the empirical
    probabilities, and ``log_minus_log_prob`` the ordinates actually used.
    """

    abscissa: np.ndarray
    p_hat: np.ndarray
    log_minus_log_prob: np.ndarray
    slope: float
    intercept: float
    r_squared: float
    target_exponent: float

    @property
    def relative_error(self):
        if self.target_exponent == 0:
            return np.inf
        return abs(self.slope - self.target_exponent) / abs(self.target_exponent)

    def summary(self):
        return {
            "slope": self.slope,
            "intercept": self.intercept,
            "r_squared": self.r_squared,
            "target_exponent": self.target_exponent,
        }


def fit_log_minus_log(abscissa, p_hat, target_exponent, min_points=4, cls=TailFit, **extra):
    """Fit log(-log p_hat) vs log(abscissa) over points with 0 < p_hat < 1."""
    abscissa = np.asarray(abscissa, dtype=np.float64)
    p_hat = np.asarray(p_hat, dtype=np.float64)
    if abscissa.size == 0:
        raise ConfigError("INVALID_CONFIG", "empty abscissa grid")
    ok = (p_hat > 0.0) & (p_hat < 1.0)
    if int(ok.sum()) < min_points:
        raise AnalysisError(
            "INSUFFICIENT_TAIL_POINTS",
            f"only {int(ok.sum())} grid points have 0 < p_hat < 1 (need {min_points})",
        )
    x = np.log(abscissa[ok])
    y = np.log(-np.log(p_hat[ok]))
    design = np.vstack([x, np.ones_like(x)]).T
    (slope, intercept), residual, *_ = np.linalg.lstsq(design, y, rcond=None)
    total = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if total == 0 else 1.0 - float(residual[0]) / total
    return cls(
        abscissa=abscissa[ok],
        p_hat=p_hat[ok],
        log_minus_log_prob=y,
        slope=float(slope),
        intercept=float(intercept),
        r_squared=r2,
        target_exponent=float(target_exponent),
        **extra,
    )


def quantile_grid(samples, p_lo, p_hi, n_points, tail="lower"):
    """Grid of sample quantiles at log-spaced tail probabilities.

    ``tail="lower"`` returns thresholds whose empirical CDF spans
    [p_lo, p_hi]; ``tail="upper"`` does the same for the survival function.
    """
    levels = np.exp(np.linspace(np.log(p_lo), np.log(p_hi), n_points))
    if tail == "upper":
        levels = 1.0 - levels
    grid = np.quantile(np.asarray(samples, dtype=np.float64), np.sort(levels))
    return np.unique(grid)


# Default tail-probability window for the W left-tail grid.  Calibrated so the
# chord of log(-log P(W < x)) over the window tracks -H/(1-H) to within ~10%
# for the geometric-pairs families at a million samples.
W_TAIL_WINDOW = (2e-5, 0.02)
W_TAIL_POINTS = 16


def w_left_tail_fit(ensemble, x_grid=None):
    """Fit the left-tail exponent of W; target is -H/(1-H).

    With no explicit grid, thresholds are empirical quantiles at tail
    probabilities log-spaced across W_TAIL_WINDOW.
    """
    w = np.asarray(ensemble.samples, dtype=np.float64)
    if x_grid is None:
        x_grid = quantile_grid(w, *W_TAIL_WINDOW, W_TAIL_POINTS, tail="lower")
    else:
        x_grid = np.asarray(x_grid, dtype=np.float64)
        if x_grid.size and np.any(np.diff(x_grid) <= 0):
            raise ConfigError("INVALID_CONFIG", "x_grid must be strictly increasing")
    p_hat = np.searchsorted(np.sort(w), x_grid, side="left") / w.size
    h = ensemble.source.hurst
    return fit_log_minus_log(x_grid, p_hat, -h / (1.0 - h))
