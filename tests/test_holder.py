"""Tests for windowed oscillation and local Holder exponent estimation."""

import numpy as np
import pytest

from cebp.errors import AnalysisError, ConfigError
from cebp.holder import holder_histogram, window_oscillation
from cebp.paths import SamplePath, SimulationConfig, simulate


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
        osc = window_oscillation(ramp, [0.5], eps)
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
        got = window_oscillation(path, centers, eps)
        want = [_oscillation_oracle(path, c, eps) for c in centers]
        assert np.allclose(got, want, rtol=0, atol=1e-12)


def test_window_leaving_domain_rejected():
    ramp = _path([0.0, 1.0], [0.0, 1.0])
    with pytest.raises(AnalysisError) as err:
        window_oscillation(ramp, [0.05], 0.25)
    assert err.value.code == "EPS_RANGE_INFEASIBLE"


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


def test_histogram_spectrum_shape():
    rng = np.random.default_rng(1)
    times = np.linspace(0.0, 1.0, 4097)
    values = np.cumsum(rng.choice([-1.0, 1.0], size=4097)) / 64.0
    est = holder_histogram(_path(times, values), n_grid=128,
                           eps_levels=range(4, 8), bins=12)
    assert est.counts.sum() == est.valid.size
    assert est.counts.size == 12 and est.bin_edges.size == 13
    empty = est.counts == 0
    assert np.all(np.isnan(est.coarse_spectrum[empty]))
    assert np.all(np.isfinite(est.coarse_spectrum[~empty]))


def test_histogram_concentrates_near_hurst():
    cfg = SimulationConfig(
        offspring={"family": "geometric-pairs", "p": 0.5},
        depth=10, duration_mode="sampled", seed=17,
    )
    path = simulate(cfg)
    est = holder_histogram(path, n_grid=256, eps_levels=range(3, 7))
    assert est.valid.size == 256
    assert est.valid.mean() == pytest.approx(0.5, abs=0.1)
    peak = np.argmax(est.counts)
    assert est.bin_edges[peak] - 0.15 < 0.5 < est.bin_edges[peak + 1] + 0.15
