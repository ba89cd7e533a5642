import numpy as np
import pytest

from cebp.branching import sample_W
from cebp.errors import AnalysisError, ConfigError
from cebp.offspring import make_offspring
from cebp.tailfit import fit_log_minus_log, quantile_grid, w_left_tail_fit


def test_exact_law_recovered_perfectly():
    # P(X < x) = exp(-c x^-a) is exactly linear in the fit coordinates
    c, a = 2.0, 0.7
    x = np.exp(np.linspace(np.log(0.1), np.log(2.0), 10))
    p = np.exp(-c * x ** -a)
    fit = fit_log_minus_log(x, p, target_exponent=-a)
    assert fit.slope == pytest.approx(-a, abs=1e-12)
    assert fit.intercept == pytest.approx(np.log(c), abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_planted_exponent_from_samples(a):
    # inverse-CDF sampling of P(X < x) = exp(-x^-a); thresholds fixed at
    # exact-law tail probabilities so p_hat is an unbiased binomial estimate
    rng = np.random.default_rng(31)
    u = rng.uniform(size=2000000)
    samples = np.sort((-np.log(u)) ** (-1.0 / a))
    levels = np.exp(np.linspace(np.log(1e-4), np.log(0.05), 16))
    grid = (-np.log(levels)) ** (-1.0 / a)
    p_hat = np.searchsorted(samples, grid) / samples.size
    fit = fit_log_minus_log(grid, p_hat, target_exponent=-a)
    # slope errors scale linearly with the planted exponent (log-log geometry)
    assert fit.slope == pytest.approx(-a, abs=0.02 * max(1.0, a))
    assert fit.r_squared > 0.999


def test_insufficient_points():
    x = np.array([1.0, 2.0, 3.0])
    p = np.array([0.0, 0.0, 1.0])
    with pytest.raises(AnalysisError) as err:
        fit_log_minus_log(x, p, target_exponent=-1.0)
    assert err.value.code == "INSUFFICIENT_TAIL_POINTS"


def test_empty_grid():
    with pytest.raises(ConfigError):
        fit_log_minus_log(np.array([]), np.array([]), target_exponent=-1.0)


def test_degenerate_points_excluded():
    c, a = 1.0, 1.0
    x = np.exp(np.linspace(np.log(0.05), np.log(5.0), 12))
    p = np.exp(-c * x ** -a)
    p[0] = 0.0   # simulate an empty tail bucket
    p[-1] = 1.0  # and a saturated one
    fit = fit_log_minus_log(x, p, target_exponent=-a)
    assert fit.abscissa.size == 10
    assert fit.slope == pytest.approx(-a, abs=1e-9)


def test_quantile_grid_monotone():
    rng = np.random.default_rng(0)
    s = rng.exponential(size=10000)
    lo = quantile_grid(s, 1e-3, 0.1, 8, tail="lower")
    hi = quantile_grid(s, 1e-3, 0.1, 8, tail="upper")
    assert np.all(np.diff(lo) > 0)
    assert np.all(np.diff(hi) > 0)
    assert lo[-1] < np.median(s) < hi[0]


def test_w_left_tail_smoke():
    dist = make_offspring("geometric-pairs", p=0.5)
    ens = sample_W(dist, generations=10, count=60000, seed=13)
    fit = w_left_tail_fit(ens)
    assert fit.target_exponent == pytest.approx(-1.0)
    # loose unit-test band; the acceptance run uses 10^6 samples
    assert fit.slope == pytest.approx(-1.0, abs=0.3)
    assert fit.r_squared > 0.98
