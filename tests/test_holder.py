"""Tests for windowed oscillation and local Holder exponent estimation."""

import functools

import numpy as np
import pytest

from cebp.errors import AnalysisError, ConfigError
from cebp.holder import holder_histogram
from cebp.paths import SamplePath, SimulationConfig, simulate, window_deviation


def _path(times, values):
    return SamplePath(
        times=np.asarray(times, dtype=float),
        values=np.asarray(values, dtype=float),
        resolution_level=0, hurst=None, mu=None, origin="ingested",
    )


def _exponent_at(path, t, eps_levels, n_grid):
    """holder_histogram's exponent at grid point t; asserts t lies on its grid."""
    est = holder_histogram(path, n_grid, eps_levels)
    k = int(np.argmin(np.abs(est.grid_times - t)))
    assert est.grid_times[k] == pytest.approx(t, abs=1e-12)
    return est.exponents[k]


def _oscillation(path, centers, eps):
    """sup |X(s) - X(c)| over |s - c| <= eps for each center c."""
    centers = np.asarray(centers, dtype=float)
    return window_deviation(path, centers - eps, centers + eps,
                            np.interp(centers, path.times, path.values))


def reference_holder_exponents(path, n_grid, eps_levels):
    """One window scan per half-width, kept as the reference for holder_histogram.

    Returns (grid_times, exponents).  Asserts that every window lies inside
    the path domain in floating point, as this loop required of its windows.
    """
    eps = 2.0 ** -np.array(sorted(int(j) for j in eps_levels), dtype=float)
    t0, t1 = path.times[0], path.times[-1]
    grid = np.linspace(float(t0) + eps.max(), float(t1) - eps.max(), n_grid)
    log_osc = np.empty((eps.size, n_grid))
    for row, e in enumerate(eps):
        assert np.all(grid - e >= t0) and np.all(grid + e <= t1)
        with np.errstate(divide="ignore"):
            log_osc[row] = np.log(_oscillation(path, grid, e))
    x = np.log(eps) - np.log(eps).mean()
    finite = np.all(np.isfinite(log_osc), axis=0)
    slopes = np.full(n_grid, np.nan)
    centered = log_osc[:, finite] - log_osc[:, finite].mean(axis=0)
    slopes[finite] = x @ centered / float(np.dot(x, x))
    return grid, slopes


@functools.cache
def _criterion_7_path():
    """The depth-16 H = 1/2 path of acceptance criterion 7 (1,826,663 knots)."""
    return simulate(SimulationConfig(
        offspring={"family": "geometric-pairs", "p": 0.5}, depth=10,
        duration_mode="sampled", w_generations=6, root_mode="tile", target_horizon=1.0,
        seed=(0, 0x4D, 7, 0), keep_trees=False, node_budget=60_000_000,
    ))


def _oscillation_oracle(path, center, eps):
    """Direct per-window evaluation: interior knots plus interpolated ends."""
    lo, hi = center - eps, center + eps
    inside = (path.times > lo) & (path.times < hi)
    candidates = list(path.values[inside])
    candidates.append(np.interp(lo, path.times, path.values))
    candidates.append(np.interp(hi, path.times, path.values))
    at_c = np.interp(center, path.times, path.values)
    return max(abs(v - at_c) for v in candidates)


def test_ramp_oscillation_is_eps():
    ramp = _path([0.0, 1.0], [0.0, 1.0])
    for eps in (0.25, 0.125, 2.0 ** -8):
        osc = _oscillation(ramp, [0.5], eps)
        assert osc[0] == pytest.approx(eps, rel=1e-12)


def test_ramp_exponent_is_one():
    ramp = _path([0.0, 1.0], [0.0, 1.0])
    assert _exponent_at(ramp, 0.5, range(2, 6), 3) == pytest.approx(1.0, abs=1e-9)


def test_oscillation_matches_bruteforce_oracle():
    rng = np.random.default_rng(42)
    times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 0.05, size=200))])
    values = np.cumsum(rng.normal(size=201)) * 0.1
    path = _path(times, values)
    span = times[-1]
    centers = rng.uniform(0.2 * span, 0.8 * span, size=50)
    for eps in (0.03, 0.1, 0.17):
        got = _oscillation(path, centers, eps)
        want = [_oscillation_oracle(path, c, eps) for c in centers]
        assert np.allclose(got, want, rtol=0, atol=1e-12)


def test_square_root_cusp_exponent():
    t = np.linspace(0.0, 1.0, 20001)
    path = _path(t, np.sqrt(np.abs(t - 0.5)))
    # the grid of 15 points from 1/16 to 15/16 holds both 1/2 and 1/4
    assert _exponent_at(path, 0.5, range(4, 9), 15) == pytest.approx(0.5, abs=0.02)
    # away from the cusp the function is smooth with nonzero slope
    assert _exponent_at(path, 0.25, range(4, 9), 15) == pytest.approx(1.0, abs=0.05)


def test_eps_levels_validation():
    ramp = _path([0.0, 1.0], [0.0, 1.0])
    with pytest.raises(ConfigError):
        holder_histogram(ramp, 16, [3])
    with pytest.raises(ConfigError):
        holder_histogram(ramp, 16, [3, 3])


def test_histogram_ramp_control():
    ramp = _path([0.0, 1.0], [0.0, 1.0])
    est = holder_histogram(ramp, n_grid=64, eps_levels=range(3, 7))
    assert est.valid.size == 64
    assert np.all(np.abs(est.exponents - 1.0) < 1e-9)
    assert est.valid.mean() == pytest.approx(1.0, abs=1e-9)
    assert est.valid.std(ddof=1) == pytest.approx(0.0, abs=1e-9)


def test_histogram_infeasible_span():
    ramp = _path([0.0, 0.1], [0.0, 0.1])
    with pytest.raises(AnalysisError) as err:
        holder_histogram(ramp, n_grid=16, eps_levels=range(1, 4))
    assert err.value.code == "EPS_RANGE_INFEASIBLE"


def test_grid_at_an_offset_start_is_measured():
    # (t0 + 2**-4) - 2**-4 rounds to one ulp below t0: the first window
    # leaves the domain in floating point and clamps to the first knot.
    t0, t1 = 31.9681636282665, 36.53081022709441
    times = np.linspace(t0, t1, 2001)
    est = holder_histogram(_path(times, times - t0), 100, range(4, 9))
    assert est.grid_times[0] - 2.0 ** -4 < t0
    assert est.valid.size == 100
    assert np.all(np.abs(est.exponents - 1.0) < 1e-9)


def _walk():
    rng = np.random.default_rng(1)
    values = np.cumsum(rng.choice([-1.0, 1.0], size=4097)) / 64.0
    return _path(np.linspace(0.0, 1.0, 4097), values), 128, range(4, 8)


def _cusp():
    t = np.linspace(0.0, 1.0, 20001)
    return _path(t, np.sqrt(np.abs(t - 0.5))), 15, range(4, 9)


def _offset_start():
    rng = np.random.default_rng(5)
    times = 7.25 + np.concatenate([[0.0], np.cumsum(rng.uniform(0.001, 0.002, size=2999))])
    return _path(times, np.cumsum(rng.normal(size=3000))), 200, range(3, 8)


@pytest.mark.parametrize("case", [
    pytest.param(lambda: (_criterion_7_path(), 1000, range(4, 9)), id="criterion-7-eps-4-8"),
    pytest.param(lambda: (_criterion_7_path(), 1000, range(6, 13)), id="criterion-7-eps-6-12"),
    pytest.param(_cusp, id="sqrt-cusp"),
    pytest.param(_walk, id="random-walk"),
    pytest.param(_offset_start, id="start-7.25"),
])
def test_exponents_equal_the_reference_loop(case):
    path, n_grid, eps_levels = case()
    grid, exponents = reference_holder_exponents(path, n_grid, eps_levels)
    est = holder_histogram(path, n_grid, eps_levels)
    assert np.array_equal(est.grid_times, grid)
    assert np.array_equal(est.exponents, exponents, equal_nan=True)
    assert est.valid.size > 0


def test_histogram_concentrates_near_hurst():
    cfg = SimulationConfig(
        offspring={"family": "geometric-pairs", "p": 0.5},
        depth=10, duration_mode="sampled", seed=17,
    )
    path = simulate(cfg)
    est = holder_histogram(path, n_grid=256, eps_levels=range(3, 7))
    assert est.valid.size == 256
    assert est.valid.mean() == pytest.approx(0.5, abs=0.1)
    counts, bin_edges = np.histogram(est.valid, bins=20,
                                     range=(est.valid.min() - 0.05, est.valid.max() + 0.05))
    peak = np.argmax(counts)
    assert bin_edges[peak] - 0.15 < 0.5 < bin_edges[peak + 1] + 0.15
