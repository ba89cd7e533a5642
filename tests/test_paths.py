import numpy as np
import pytest
from scipy import stats

from cebp.errors import BudgetError, ConfigError
from cebp.offspring import make_offspring
from cebp.paths import (
    SimulationConfig,
    build_path,
    ingest_csv,
    read_path_csv,
    rescale_path,
    simulate,
    write_path_csv,
)
from cebp.tree import UP, assign_durations, expand_tree


def make_tree(dist, depth, seed, mode="mean"):
    tree = expand_tree(dist, UP, depth, np.random.default_rng((100, seed)))
    return assign_durations(tree, dist, mode, np.random.default_rng((101, seed)))


def test_missing_durations():
    dist = make_offspring("fixed-pairs", b=2)
    tree = expand_tree(dist, UP, 2, np.random.default_rng(0))
    with pytest.raises(ConfigError) as err:
        build_path(tree)
    assert err.value.code == "MISSING_DURATIONS"


def test_fixed_pairs_m1_path():
    dist = make_offspring("fixed-pairs", b=2)
    tree = make_tree(dist, 1, 0)
    path = build_path(tree)
    assert np.allclose(path.times, [0, 0.25, 0.5, 0.75, 1.0])
    # one excursion then the direct pair; both variants end at +1 via +-1/2 steps
    assert path.values[0] == 0.0
    assert path.values[-1] == 1.0
    assert np.all(np.abs(np.diff(path.values)) == 0.5)


def test_crossing_property():
    dist = make_offspring("geometric-pairs", p=0.5)
    for seed in range(10):
        tree = make_tree(dist, 7, seed)
        path = build_path(tree)
        root = tree.orientations[0][0]
        assert path.values[-1] == root * 1.0
        # interior values stay strictly inside (-1, 1)
        assert np.max(np.abs(path.values[:-1])) < 1.0
        assert np.all(np.abs(np.diff(path.values)) == 2.0 ** -7)


def test_knot_count_matches_leaves():
    dist = make_offspring("poisson-pairs", lam=1.0)
    tree = make_tree(dist, 6, 3)
    path = build_path(tree)
    assert path.n_knots == tree.generation_sizes[-1] + 1
    assert path.resolution_level == -6


def test_simulate_deterministic():
    dist = make_offspring("geometric-pairs", p=0.5)
    cfg = SimulationConfig(offspring=dist, depth=6, seed=42)
    p1, p2 = simulate(cfg), simulate(cfg)
    assert np.array_equal(p1.times, p2.times)
    assert np.array_equal(p1.values, p2.values)


def test_simulate_family_spec_dict():
    cfg = SimulationConfig(offspring={"family": "fixed-pairs", "b": 2}, depth=2, seed=1)
    path = simulate(cfg)
    assert path.mu == 4.0
    assert abs(path.values[-1]) == 1.0


@pytest.mark.parametrize("mode, root_mode", [("mean", "single"), ("sampled", "tile")])
def test_dropping_trees_leaves_the_path_unchanged(mode, root_mode):
    def run(keep_trees):
        return simulate(SimulationConfig(
            offspring={"family": "geometric-pairs", "p": 0.5}, depth=6, duration_mode=mode,
            root_mode=root_mode, target_horizon=3.0, seed=12, keep_trees=keep_trees))

    kept, dropped = run(True), run(False)
    assert np.array_equal(kept.times, dropped.times)
    assert np.array_equal(kept.values, dropped.values)
    assert len(kept.trees) == kept.meta.get("n_roots", 1)
    assert dropped.trees is None


def test_tile_mode_fixed_pairs_exact_horizon():
    dist = make_offspring("fixed-pairs", b=2)
    cfg = SimulationConfig(offspring=dist, depth=3, root_mode="tile",
                           target_horizon=1.0, seed=5)
    path = simulate(cfg)
    assert path.meta["n_roots"] == 1
    assert path.times[-1] == pytest.approx(1.0, abs=1e-12)


def test_tile_mode_continues_value():
    dist = make_offspring("geometric-pairs", p=0.5)
    cfg = SimulationConfig(offspring=dist, depth=4, root_mode="tile",
                           target_horizon=3.0, seed=6)
    path = simulate(cfg)
    assert path.meta["n_roots"] >= 3
    assert np.all(np.diff(path.times) > 0)
    # each tile moves the value by exactly +-1 from the previous root endpoint
    ends = np.cumsum([t.orientations[0][0] for t in path.trees])
    assert abs(path.values[-1] - ends[-1]) < 1e-9


def test_single_mode_sampled_root_duration_mean():
    dist = make_offspring("geometric-pairs", p=0.5)
    spans = []
    for seed in range(500):
        cfg = SimulationConfig(offspring=dist, depth=4, duration_mode="sampled",
                               w_generations=8, seed=seed, keep_trees=False)
        spans.append(simulate(cfg).span)
    assert np.mean(spans) == pytest.approx(1.0, abs=0.1)


def test_budget_propagates():
    dist = make_offspring("geometric-pairs", p=0.5)
    cfg = SimulationConfig(offspring=dist, depth=12, seed=0, node_budget=10 ** 5)
    with pytest.raises(BudgetError):
        simulate(cfg)


def test_rescale_identity_and_scaling():
    path = simulate(SimulationConfig(offspring={"family": "fixed-pairs", "b": 2},
                                     depth=3, seed=1))
    assert rescale_path(path, 0) is path
    scaled = rescale_path(path, 1)
    assert np.allclose(scaled.times, path.times / 4.0)
    assert np.allclose(scaled.values, path.values / 2.0)
    assert scaled.resolution_level == path.resolution_level - 1


def test_rescale_distributional_invariance():
    # |X(D_root)| is 1 for originals; rescaled paths end at 2^-n: compare the
    # whole-path law instead through the midpoint value distribution
    dist = make_offspring("geometric-pairs", p=0.5)
    mids, mids_scaled = [], []
    for seed in range(800):
        cfg = SimulationConfig(offspring=dist, depth=5, seed=(7, seed), keep_trees=False)
        path = simulate(cfg)
        mids.append(np.interp(path.span / 2.0, path.times, path.values))
        deeper = simulate(SimulationConfig(offspring=dist, depth=6, seed=(8, seed),
                                           keep_trees=False))
        scaled = rescale_path(deeper, 1)
        mids_scaled.append(2.0 * np.interp(scaled.span / 2.0, scaled.times, scaled.values))
    ks = stats.ks_2samp(mids, mids_scaled)
    assert ks.pvalue > 1e-3


def test_csv_round_trip(tmp_path):
    dist = make_offspring("geometric-pairs", p=0.5)
    path = build_path(make_tree(dist, 5, 4, mode="sampled"))
    csv_file = tmp_path / "p.csv"
    side_file = tmp_path / "p.json"
    write_path_csv(path, csv_file, side_file)
    back = read_path_csv(csv_file, side_file)
    assert np.array_equal(back.times, path.times)
    assert np.array_equal(back.values, path.values)
    assert back.resolution_level == path.resolution_level
    assert back.hurst == path.hurst
    assert back.origin == "simulated"


def test_csv_rejects_shuffled_time(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("time,value\n0.0,0.0\n2.0,1.0\n1.0,2.0\n")
    with pytest.raises(ConfigError) as err:
        read_path_csv(f)
    assert err.value.code == "NON_MONOTONE_TIME"


def test_csv_parse_error_line_number(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("time,value\n0.0,0.0\nnope\n")
    with pytest.raises(ConfigError) as err:
        read_path_csv(f)
    assert "line 3" in str(err.value)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("column", [0, 1])
def test_csv_rejects_non_finite(tmp_path, bad, column):
    rows = [["0.0", "0.0"], ["1.0", "1.0"], ["2.0", "0.0"]]
    rows[1][column] = bad
    f = tmp_path / "bad.csv"
    f.write_text("time,value\n" + "".join(f"{t},{v}\n" for t, v in rows))
    for reader in (read_path_csv, ingest_csv):
        with pytest.raises(ConfigError) as err:
            reader(f)
        assert err.value.code == "PARSE_ERROR"
        assert "line 3" in str(err.value)


def test_csv_line_numbers_count_skipped_lines(tmp_path):
    f = tmp_path / "gappy.csv"
    f.write_text("time,value\n0.0,0.0\n\n1.0,1.0\n\n0.5,2.0\n")
    with pytest.raises(ConfigError) as err:
        read_path_csv(f)
    assert err.value.code == "NON_MONOTONE_TIME"
    assert "line 6" in str(err.value)


def test_csv_that_is_not_utf8_is_a_parse_error(tmp_path):
    f = tmp_path / "bin.csv"
    f.write_bytes(b"\xff\xfe")
    for reader in (read_path_csv, ingest_csv):
        with pytest.raises(ConfigError) as err:
            reader(f)
        assert err.value.code == "PARSE_ERROR"
        assert "bin.csv" in str(err.value)


@pytest.mark.parametrize("sidecar", [
    b"{bad", b"[1,2]", b"\xff", b'{"resolution_level": "x"}', b'{"resolution_level": true}',
    b'{"resolution_level": 1.5}', b'{"hurst": "a"}', b'{"mu": [4]}', b'{"mu": false}',
])
def test_unreadable_sidecar_is_a_parse_error(tmp_path, sidecar):
    csv_file, side_file = tmp_path / "p.csv", tmp_path / "p.json"
    csv_file.write_text("time,value\n0.0,0.0\n1.0,1.0\n")
    side_file.write_bytes(sidecar)
    with pytest.raises(ConfigError) as err:
        read_path_csv(csv_file, side_file)
    assert err.value.code == "PARSE_ERROR"
    assert "p.json" in str(err.value)


@pytest.mark.parametrize("anchor, rows", [
    (False, ["0,1e308", "1,-1e308"]),
    (True, ["0,-1e308", "1,-1e308", "2,1e308"]),
])
def test_ingest_rejects_value_steps_that_overflow(tmp_path, anchor, rows):
    f = tmp_path / "huge.csv"
    f.write_text("t,x\n" + "\n".join(rows) + "\n")
    with pytest.raises(ConfigError) as err:
        ingest_csv(f, anchor_origin=anchor)
    assert err.value.code == "PARSE_ERROR"
