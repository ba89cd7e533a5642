"""Tests for passage-time extraction, forest assembly, and scaling estimates."""

import numpy as np
import pytest

from cebp.errors import AnalysisError, ConfigError
from cebp.extract import (
    duration_scale_invariance,
    estimate_hurst,
    extract_crossing_forest,
    extract_passage_times,
    forest_matches_tree,
    subcrossing_pmf,
)
from cebp.paths import SamplePath, SimulationConfig, ingest_csv, simulate


def _raw_path(times, values, resolution_level):
    return SamplePath(
        times=np.asarray(times, dtype=float),
        values=np.asarray(values, dtype=float),
        resolution_level=resolution_level,
        hurst=None, mu=None, origin="ingested",
    )


def _simulated(family, depth, mode="mean", seed=0):
    cfg = SimulationConfig(
        offspring=family, depth=depth, duration_mode=mode, seed=seed,
    )
    path = simulate(cfg)
    return path, path.trees[0]


def test_ramp_passages_unit_lattice():
    path = _raw_path([0.0, 4.0], [0.0, 4.0], 0)
    times, values = extract_passage_times(path, 0)
    assert np.array_equal(times, [0.0, 1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(values, [0.0, 1.0, 2.0, 3.0, 4.0])


def test_ramp_passages_doubled_lattice():
    path = _raw_path([0.0, 4.0], [0.0, 4.0], 0)
    times, values = extract_passage_times(path, 1)
    assert np.array_equal(times, [0.0, 2.0, 4.0])
    assert np.array_equal(values, [0.0, 2.0, 4.0])


def test_zigzag_passages_and_orientations():
    # 0 -> 1 -> -1 -> 1 at constant speed 1
    path = _raw_path([0.0, 1.0, 3.0, 5.0], [0.0, 1.0, -1.0, 1.0], 0)
    times, values = extract_passage_times(path, 0)
    assert np.array_equal(times, [0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
    assert np.array_equal(values, [0.0, 1.0, 0.0, -1.0, 0.0, 1.0])
    forest = extract_crossing_forest(path, (0, 0))
    rec = forest[0]
    assert np.array_equal(rec.orientations, [1, -1, -1, 1, 1])
    assert np.array_equal(rec.durations, np.ones(5))


def test_touch_without_crossing_is_not_a_passage():
    # reaches 1, backs off without reaching 0, then returns to 1: the
    # second visit to lattice point 1 must not create a new passage
    path = _raw_path([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 0.5, 1.2], 0)
    times, values = extract_passage_times(path, 0)
    assert np.array_equal(values, [0.0, 1.0])
    assert np.array_equal(times, [0.0, 1.0])


def test_anchor_is_starting_value_not_zero():
    path = _raw_path([0.0, 2.0], [0.25, 2.25], 0)
    times, values = extract_passage_times(path, 0)
    assert np.array_equal(values, [0.25, 1.25, 2.25])
    assert np.array_equal(times, [0.0, 1.0, 2.0])


def test_level_too_fine_rejected():
    path = _raw_path([0.0, 1.0], [0.0, 1.0], 0)
    with pytest.raises(AnalysisError) as err:
        extract_passage_times(path, -1)
    assert err.value.code == "LEVEL_TOO_FINE"


def test_no_complete_crossing_at_top_level():
    path = _raw_path([0.0, 0.5], [0.0, 0.5], -1)
    with pytest.raises(AnalysisError) as err:
        extract_crossing_forest(path, (-1, 1))
    assert err.value.code == "NO_COMPLETE_CROSSING"


def test_empty_level_range_rejected():
    path = _raw_path([0.0, 1.0], [0.0, 1.0], 0)
    with pytest.raises(ConfigError) as err:
        extract_crossing_forest(path, (1, 0))
    assert err.value.code == "INVALID_CONFIG"


@pytest.mark.parametrize("family", [
    {"family": "fixed-pairs", "b": 2},
    {"family": "geometric-pairs", "p": 0.5},
    {"family": "poisson-pairs", "lam": 1.0},
])
def test_round_trip_recovers_generating_tree(family):
    depth = 6
    for seed in range(4):
        path, tree = _simulated(family, depth, mode="mean", seed=seed)
        forest = extract_crossing_forest(path, (-depth, 0))
        assert forest_matches_tree(forest, tree) is None


def test_round_trip_with_sampled_durations():
    for seed in range(3):
        path, tree = _simulated(
            {"family": "geometric-pairs", "p": 0.5}, 5, mode="sampled", seed=seed,
        )
        forest = extract_crossing_forest(path, (-5, 0))
        assert forest_matches_tree(forest, tree) is None


def test_passage_times_nest_bit_exactly():
    path, _ = _simulated({"family": "geometric-pairs", "p": 0.5}, 7, seed=11)
    coarse, _ = extract_passage_times(path, -3)
    fine, _ = extract_passage_times(path, -4)
    pos = np.searchsorted(fine, coarse)
    assert np.array_equal(fine[pos], coarse)


def test_forest_counts_follow_population_sizes():
    path, tree = _simulated({"family": "fixed-pairs", "b": 2}, 4, seed=1)
    forest = extract_crossing_forest(path, (-4, 0))
    for g in range(5):
        assert forest[-g].n == 4 ** g
        if g < 4:
            assert np.all(forest[-g].subcrossing_counts == 4)


def test_estimate_hurst_fixed_pairs_is_exact():
    path, _ = _simulated({"family": "fixed-pairs", "b": 2}, 4, seed=2)
    est = estimate_hurst(extract_crossing_forest(path, (-4, 0)))
    assert est["mu_hat"] == 4.0
    assert est["hurst_hat"] == pytest.approx(0.5, abs=1e-12)
    assert est["stderr"] == 0.0
    assert est["duration_mu_hat"] == pytest.approx(4.0, rel=1e-9)
    assert est["per_level_counts"][-4] == 256


def test_estimate_hurst_geometric_pairs():
    path, _ = _simulated({"family": "geometric-pairs", "p": 0.5}, 8, seed=3)
    est = estimate_hurst(extract_crossing_forest(path, (-8, -2)))
    assert est["mu_hat"] == pytest.approx(4.0, rel=0.1)
    assert est["hurst_hat"] == pytest.approx(0.5, abs=0.05)
    assert 0 < est["stderr"] < 0.05


def test_estimate_hurst_needs_enough_data():
    path = _raw_path([0.0, 4.0], [0.0, 4.0], 0)
    with pytest.raises(AnalysisError) as err:
        estimate_hurst(extract_crossing_forest(path, (0, 1)))
    assert err.value.code == "INSUFFICIENT_CROSSINGS"


def test_scale_invariance_true_mu_small_ks():
    path, _ = _simulated(
        {"family": "geometric-pairs", "p": 0.5}, 8, mode="sampled", seed=5,
    )
    forest = extract_crossing_forest(path, (-7, -3))
    report = duration_scale_invariance(forest, mu=4.0)
    assert report["mu"] == 4.0
    assert len(report["pairs"]) >= 2
    assert report["max_ks"] < 0.12


def test_scale_invariance_wrong_mu_inflates_ks():
    path, _ = _simulated(
        {"family": "geometric-pairs", "p": 0.5}, 8, mode="sampled", seed=5,
    )
    forest = extract_crossing_forest(path, (-7, -3))
    report = duration_scale_invariance(forest, mu=16.0)
    assert report["max_ks"] > 0.5


def test_scale_invariance_needs_populated_pair():
    path, _ = _simulated({"family": "fixed-pairs", "b": 2}, 3, seed=0)
    forest = extract_crossing_forest(path, (-3, 0))
    with pytest.raises(AnalysisError) as err:
        duration_scale_invariance(forest, mu=4.0, min_crossings=100)
    assert err.value.code == "INSUFFICIENT_CROSSINGS"


def test_subcrossing_pmf_geometric():
    path, _ = _simulated({"family": "geometric-pairs", "p": 0.5}, 8, seed=7)
    forest = extract_crossing_forest(path, (-8, -4))
    pmf = subcrossing_pmf(forest)
    assert sum(pmf.values()) == pytest.approx(1.0, abs=1e-12)
    # geometric-pairs(1/2): P(Z = 2k) = 2^-k
    tv = 0.5 * sum(
        abs(pmf.get(2 * k, 0.0) - 0.5 ** k) for k in range(1, 30)
    )
    assert tv < 0.05


def test_forest_matches_tree_reports_mismatch():
    path, tree = _simulated({"family": "fixed-pairs", "b": 2}, 3, seed=9)
    forest = extract_crossing_forest(path, (-3, 0))
    forest[-1].orientations[0] *= -1
    message = forest_matches_tree(forest, tree)
    assert message is not None and "orientation" in message


def test_ingest_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    steps = rng.choice([-1, 1], size=2000)
    walk = np.concatenate([[0], np.cumsum(steps)]).astype(float)
    csv = tmp_path / "walk.csv"
    lines = ["time,value"]
    lines += [f"{i},{v}" for i, v in enumerate(walk)]
    csv.write_text("\n".join(lines) + "\n")

    path = ingest_csv(csv)
    assert path.origin == "ingested"
    assert path.resolution_level == 0
    assert np.array_equal(path.values, walk)
    times, values = extract_passage_times(path, 0)
    # every step of a unit walk is a passage of the unit lattice
    assert times.size == walk.size
    est = estimate_hurst(extract_crossing_forest(path, (0, 4)))
    assert est["hurst_hat"] == pytest.approx(0.5, abs=0.12)


def test_ingest_infers_fractional_resolution(tmp_path):
    csv = tmp_path / "fine.csv"
    csv.write_text("0,0.0\n1,0.25\n2,0.5\n3,0.25\n")
    path = ingest_csv(csv)
    assert path.resolution_level == -2


def test_ingest_non_monotone_time(tmp_path):
    csv = tmp_path / "bad.csv"
    csv.write_text("time,value\n0,0\n2,1\n1,2\n")
    with pytest.raises(ConfigError) as err:
        ingest_csv(csv)
    assert err.value.code == "NON_MONOTONE_TIME"
    assert "line 4" in str(err.value)


def test_ingest_parse_error_reports_line(tmp_path):
    csv = tmp_path / "bad.csv"
    csv.write_text("time,value\n0,0\n1,oops\n")
    with pytest.raises(ConfigError) as err:
        ingest_csv(csv)
    assert err.value.code == "PARSE_ERROR"
    assert "line 3" in str(err.value)


def test_ingest_anchor_origin(tmp_path):
    csv = tmp_path / "shifted.csv"
    csv.write_text("0,5.0\n1,6.0\n2,7.0\n")
    path = ingest_csv(csv, anchor_origin=True)
    assert path.values[0] == 0.0
    assert np.array_equal(path.values, [0.0, 1.0, 2.0])
