"""Tests for block oscillation tables and modulus-of-continuity ratios."""

import numpy as np
import pytest

from cebp.errors import AnalysisError, BudgetError, ConfigError
from cebp.modulus import (
    MAX_BLOCKS,
    brute_force_modulus,
    h_modulus,
    modulus_ratio,
    oscillation_table,
)
from cebp.paths import SamplePath, SimulationConfig, simulate


def _path(times, values, hurst=None):
    return SamplePath(
        times=np.asarray(times, dtype=float),
        values=np.asarray(values, dtype=float),
        resolution_level=0, hurst=hurst, mu=None, origin="ingested",
    )


def test_gauge_function_closed_form():
    assert h_modulus(np.exp(-1.0), 0.5) == pytest.approx(np.exp(-0.5), rel=1e-12)
    assert h_modulus(0.25, 1.0) == pytest.approx(0.25, rel=1e-12)
    # at H=0 only the log factor remains
    assert h_modulus(0.25, 0.0) == pytest.approx(np.log(4.0), rel=1e-12)


def test_table_on_zigzag():
    table = oscillation_table(_path([0, 1, 2], [0, 1, 0]), 1.0)
    assert table.n_blocks == 2
    assert np.array_equal(table.boundary_values, [0.0, 1.0, 0.0])
    assert np.array_equal(table.phi, [1.0, 1.0])
    assert table.chaining_sup == 3.0


def test_ramp_table_and_brute_force():
    ramp = _path([0.0, 1.0], [0.0, 1.0])
    table = oscillation_table(ramp, 0.25)
    assert table.n_blocks == 4
    assert np.allclose(table.phi, 0.25)
    assert table.chaining_sup == pytest.approx(0.75, rel=1e-12)
    assert brute_force_modulus(ramp, 0.25) == pytest.approx(0.25, rel=1e-12)


def test_ramp_ratio_is_flat_at_hurst_one():
    ramp = _path([0.0, 1.0], [0.0, 1.0])
    report = modulus_ratio(ramp, (2, 6), hurst=1.0)
    # S = 3 delta and h = delta, so every ratio is exactly 3
    assert np.allclose(report.ratios, 3.0, rtol=1e-12)
    assert report.stable
    assert report.ratio_max / report.ratio_min == pytest.approx(1.0, rel=1e-12)


def test_chaining_sandwich_against_brute_force():
    rng = np.random.default_rng(3)
    values = np.concatenate([[0.0], np.cumsum(rng.choice([-1.0, 1.0], 4096))]) / 64.0
    path = _path(np.linspace(0.0, 1.0, 4097), values)
    for l in (2, 4, 6):
        delta = 2.0 ** -l
        s = oscillation_table(path, delta).chaining_sup
        exact = brute_force_modulus(path, delta)
        assert exact <= s * (1 + 1e-12)
        assert s <= 3.0 * exact * (1 + 1e-12)


def test_single_block_is_infeasible():
    ramp = _path([0.0, 1.0], [0.0, 1.0])
    with pytest.raises(AnalysisError) as err:
        oscillation_table(ramp, 0.6)
    assert err.value.code == "L_RANGE_INFEASIBLE"


def test_ratio_requires_hurst():
    ramp = _path([0.0, 1.0], [0.0, 1.0])
    with pytest.raises(ConfigError):
        modulus_ratio(ramp, (2, 4))
    with pytest.raises(ConfigError):
        modulus_ratio(ramp, (4, 2), hurst=0.5)


@pytest.mark.parametrize("l_range", [(0, 4), (-1, 2)])
def test_ratio_levels_start_at_one(l_range):
    # the gauge is 0 at level 0 (delta = 1), so the ratio there would be inf
    ramp = _path([0.0, 4.0], [0.0, 4.0])
    with pytest.raises(ConfigError) as err:
        modulus_ratio(ramp, l_range, hurst=0.5)
    assert err.value.code == "INVALID_CONFIG"


def test_simulated_path_band():
    cfg = SimulationConfig(
        offspring={"family": "geometric-pairs", "p": 0.5},
        depth=10, duration_mode="mean", seed=23,
    )
    path = simulate(cfg)
    report = modulus_ratio(path, (3, 7))
    assert report.hurst == pytest.approx(0.5)
    assert np.all(np.isfinite(report.ratios)) and np.all(report.ratios > 0)
    assert report.ratio_max < 10.0 * report.ratio_min
    assert report.halves["split_level"] == 5


def test_simulated_sandwich_small_tree():
    cfg = SimulationConfig(
        offspring={"family": "geometric-pairs", "p": 0.5},
        depth=6, duration_mode="sampled", seed=2,
    )
    path = simulate(cfg)
    for l in (2, 3, 4):
        delta = 2.0 ** -l
        s = oscillation_table(path, delta).chaining_sup
        exact = brute_force_modulus(path, delta)
        assert exact <= s * (1 + 1e-12) <= 3.0 * exact * (1 + 2e-12)


def test_constant_path_is_not_stable():
    flat = _path(np.linspace(0.0, 1.0, 65), np.zeros(65), hurst=0.5)
    report = modulus_ratio(flat, (2, 4))
    assert np.all(report.ratios == 0)
    assert report.stable is False


def test_block_budget_refused_before_allocating():
    ramp = _path([0.0, 1.0], [0.0, 1.0])
    assert oscillation_table(ramp, 2.0 ** -20).n_blocks == MAX_BLOCKS
    with pytest.raises(BudgetError) as err:
        oscillation_table(ramp, 2.0 ** -21)
    assert err.value.code == "BLOCK_BUDGET_EXCEEDED"
