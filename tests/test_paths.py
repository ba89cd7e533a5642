import itertools
import operator
import threading
import warnings

import numpy as np
import pytest
from scipy import stats

import cebp.branching
import cebp.paths
from cebp.branching import sample_W
from cebp.errors import BudgetError, ConfigError
from cebp.increments import remaining_time_records
from cebp.offspring import make_offspring
from cebp.paths import (SamplePath, SimulationConfig, float_text, ingest_csv, path_records,
                        read_path_csv, simulate, write_path_csv, write_xy_csv)
from cebp.rng import STREAM_DURATION, substream
from cebp.tree import LEAF_BLOCK, UP


def test_fixed_pairs_m1_path():
    dist = make_offspring("fixed-pairs", b=2)
    path = simulate(SimulationConfig(offspring=dist, depth=1, seed=1))
    assert path.trees[0].orientations[0][0] == UP   # seed 1 draws an up root
    assert np.allclose(path.times, [0, 0.25, 0.5, 0.75, 1.0])
    # one excursion then the direct pair; both variants end at +1 via +-1/2 steps
    assert path.values[0] == 0.0
    assert path.values[-1] == 1.0
    assert np.all(np.abs(np.diff(path.values)) == 0.5)


def test_crossing_property():
    dist = make_offspring("geometric-pairs", p=0.5)
    for seed in range(10):
        path = simulate(SimulationConfig(offspring=dist, depth=7, seed=seed))
        root = path.trees[0].orientations[0][0]
        assert path.values[-1] == root * 1.0
        # interior values stay strictly inside (-1, 1)
        assert np.max(np.abs(path.values[:-1])) < 1.0
        assert np.all(np.abs(np.diff(path.values)) == 2.0 ** -7)


def test_knot_count_matches_leaves():
    dist = make_offspring("poisson-pairs", lam=1.0)
    path = simulate(SimulationConfig(offspring=dist, depth=6, seed=3))
    tree = path.trees[0]
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


@pytest.mark.parametrize("mode", ["mean", "sampled"])
def test_kept_tree_leaf_start_times_are_the_knot_times(mode):
    # mu = 3 makes the durations non-dyadic, so sums in another order differ in the last bits
    for root_mode, offspring in itertools.product(
            ("single", "tile"),
            ({"family": "geometric-pairs", "p": 0.5}, {"family": "custom", "pmf": {2: .5, 4: .5}})):
        path = simulate(SimulationConfig(offspring=offspring, depth=6, duration_mode=mode,
                                         root_mode=root_mode, target_horizon=3.0, seed=13))
        assert len(path.trees) == path.meta.get("n_roots", 1)
        assert (len(path.trees) > 1) == (root_mode == "tile")
        # each root's leaves start where the roots before it end
        starts, end = [], 0.0
        for tree in path.trees:
            leaf_starts = tree.timing()[1][-1]
            starts.append(leaf_starts + end)
            end += leaf_starts[-1] + tree.leaf_durations[-1]
        assert np.array_equal(np.concatenate(starts), path.times[:-1])


@pytest.mark.parametrize("mode, w_generations, opens", [
    ("mean", 12, False), ("sampled", 0, False), ("sampled", 4, True)])
def test_only_a_chain_with_generations_opens_a_duration_stream(
        monkeypatch, mode, w_generations, opens):
    opened = []

    def recording_substream(seed, *key):
        opened.append(key[0])
        return substream(seed, *key)

    monkeypatch.setattr(cebp.paths, "substream", recording_substream)
    monkeypatch.setattr(cebp.branching, "substream", recording_substream)
    path = simulate(SimulationConfig(
        offspring={"family": "geometric-pairs", "p": 0.5}, depth=8, duration_mode=mode,
        w_generations=w_generations, root_mode="tile", target_horizon=3.0, seed=2))
    # one stream per block of LEAF_BLOCK leaves of each root
    blocks = sum(-(-tree.orientations[-1].size // LEAF_BLOCK) for tree in path.trees)
    assert blocks > path.meta["n_roots"] > 1
    assert opened.count(STREAM_DURATION) == (blocks if opens else 0)


def test_no_thread_outlives_a_sampled_simulate():
    config = SimulationConfig(offspring={"family": "geometric-pairs", "p": 0.5}, depth=8,
                              duration_mode="sampled", w_generations=4, seed=3)
    before = threading.active_count()
    assert simulate(config).n_knots > 2 * LEAF_BLOCK
    assert threading.active_count() == before
    # forked workers draw their blocks on threads of their own
    knots = path_records(config, (3,), 2, operator.attrgetter("n_knots"), workers=2)
    assert knots == path_records(config, (3,), 2, operator.attrgetter("n_knots"))


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
        # the scale-invariance map t -> t/mu, x -> x/2 takes depth 6 to depth 5
        times, values = deeper.times / deeper.mu, deeper.values * 0.5
        mids_scaled.append(2.0 * np.interp(times[-1] / 2.0, times, values))
    ks = stats.ks_2samp(mids, mids_scaled)
    assert ks.pvalue > 1e-3


def test_csv_round_trip(tmp_path):
    dist = make_offspring("geometric-pairs", p=0.5)
    path = simulate(SimulationConfig(offspring=dist, depth=5, duration_mode="sampled", seed=4))
    csv_file = tmp_path / "p.csv"
    side_file = tmp_path / "p.json"
    write_path_csv(path, csv_file, side_file)
    back = read_path_csv(csv_file, side_file)
    assert np.array_equal(back.times, path.times)
    assert np.array_equal(back.values, path.values)
    assert back.resolution_level == path.resolution_level
    assert back.hurst == path.hurst
    assert back.origin == "simulated"


def signed_zero_path():
    """Values on which a value-keyed dedup would lose the sign of -0.0."""
    values = np.tile([0.0, -0.0, 0.5, -0.0, 0.0], 4)
    return SamplePath(times=np.arange(values.size, dtype=np.float64), values=values,
                      resolution_level=-1, hurst=None, mu=None)


@pytest.mark.parametrize("make_path", [
    lambda: simulate(SimulationConfig(offspring={"family": "geometric-pairs", "p": 0.5},
                                      depth=7, seed=3)),
    lambda: simulate(SimulationConfig(offspring={"family": "geometric-pairs", "p": 0.5},
                                      depth=6, duration_mode="sampled", seed=4)),
    lambda: simulate(SimulationConfig(offspring={"family": "custom", "pmf": {2: 0.5, 4: 0.5}},
                                      depth=5, root_mode="tile", target_horizon=3.0, seed=5)),
    signed_zero_path,
], ids=["mean", "sampled", "tile", "signed-zero"])
def test_csv_writer_matches_repr_reference(tmp_path, make_path):
    path = make_path()
    write_path_csv(path, tmp_path / "p.csv", tmp_path / "p.json")
    with open(tmp_path / "p.csv") as fh:
        written = fh.readlines()
    assert written == ["time,value\n"] + [
        f"{t!r},{v!r}\n" for t, v in zip(path.times.tolist(), path.values.tolist())]


def test_xy_csv_writes_integers_as_floats(tmp_path):
    write_xy_csv(tmp_path / "xy.csv", "level,mean", [-10, -9, -9], [0.25, -0.0, 0.25])
    assert (tmp_path / "xy.csv").read_text() == "level,mean\n-10.0,0.25\n-9.0,-0.0\n-9.0,0.25\n"


@pytest.mark.parametrize("values", [
    [], [0.1], [0.0, -0.0] * 8, np.arange(40) % 3 * 0.1, np.linspace(0, 1, 33),
    np.linspace(0, 1, 2 * cebp.paths.TEXT_BLOCK + 5),
], ids=["empty", "one", "signed-zeros", "repeating", "distinct", "distinct-past-two-blocks"])
def test_float_text_is_repr(values):
    assert list(float_text(values)) == [repr(x) for x in np.asarray(values, float).tolist()]


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


def reference_columns(csv_file, time_col=0, value_col=1):
    """The line loop that read every path CSV before the C reader was tried first."""
    times, values, skipped = [], [], []
    with open(csv_file, encoding="utf-8") as fh:
        try:
            for line_no, line in enumerate(fh, start=1):
                parts = line.split(",")
                try:
                    t = float(parts[time_col])
                    v = float(parts[value_col])
                except (ValueError, IndexError) as exc:
                    if line_no > 1 and line.strip():
                        raise ConfigError(
                            "PARSE_ERROR", f"line {line_no}: cannot parse {line.strip()!r}"
                        ) from exc
                    skipped.append(line_no)
                    continue
                times.append(t)
                values.append(v)
        except UnicodeDecodeError as exc:
            raise ConfigError("PARSE_ERROR", f"{csv_file}: not UTF-8 text ({exc.reason})") from exc
    times = np.asarray(times)
    values = np.asarray(values)
    if times.size < 2:
        raise ConfigError("PARSE_ERROR", "a path needs at least 2 rows")

    def line_of(row):
        return np.setdiff1d(np.arange(1, times.size + len(skipped) + 1), skipped)[row]

    finite = np.isfinite(times) & np.isfinite(values)
    if not finite.all():
        raise ConfigError(
            "PARSE_ERROR", f"line {line_of(np.argmin(finite))}: time and value must be finite"
        )
    rising = np.diff(times) > 0
    if not rising.all():
        raise ConfigError(
            "NON_MONOTONE_TIME",
            f"time column is not strictly increasing at line {line_of(np.argmin(rising) + 1)}",
        )
    return times, values


READER_CASES = {
    "plain": b"time,value\n0.0,0.0\n0.5,0.25\n1.0,-0.25\n",
    "no-header": b"0,0\n1,1\n2,0\n",
    "no-final-newline": b"time,value\n0,0\n1,1\n2,0",
    "crlf": b"time,value\r\n0,0\r\n1,1\r\n2,0\r\n",
    "lone-cr": b"time,value\r0,0\r1,1\r2,0\r",
    "blank-lines": b"\ntime,value\n\n0,0\n\n1,1\n2,0\n\n",
    "whitespace-only-line": b"time,value\n0,0\n \t \n1,1\n2,0\n",
    "spaces-around-fields": b"0 , 0\n 1,1 \n2,\t0\n",
    "signed-zero-and-subnormal": b"-0.0,-0.0\n5e-324,1\n1,2.2250738585072014e-308\n",
    "many-digits": b"0,0.1000000000000000055511151231257827\n1,1.0000000000000002\n2,1e-300\n",
    "three-columns": b"t,x,note\n0,0,a\n1,1,b\n2,0,c\n",
    "ragged-extra-columns": b"0,0\n1,1,x,y\n2,0\n",
    "missing-column": b"time,value\n0,0\n1\n2,0\n",
    "trailing-comma": b"0,0,\n1,1,\n2,0,\n",
    "empty-field": b"0,0\n1,\n2,0\n",
    "nan": b"0,0\n1,nan\n2,0\n",
    "inf-time": b"0,0\ninf,1\n",
    "overflow-to-inf": b"0,0\n1,1e400\n2,0\n",
    "underflow-to-zero": b"0,1e-400\n1,1\n",
    "underscore": b"0,0\n1_0,1\n20,0\n",
    "quoted": b'0,0\n"1",1\n2,0\n',
    "hash-row": b"0,0\n1,1\n#2,0\n",
    "hash-header": b"# time,value\n0,0\n1,1\n",
    "fortran-exponent": b"0,0\n1d0,1\n",
    "hex": b"0,0\n0x10,1\n",
    "fullwidth-digits": "0,0\n\uff11,1\n2,0\n".encode(),
    "nbsp-around-field": "0,\xa00\n1,1\xa0\n".encode(),
    "next-line-char": "0,0\x851,1\n2,0\n".encode(),
    "nul-in-row": b"0,0\n1,1\x00\n2,0\n",
    "bom-header": b"\xef\xbb\xbftime,value\n0,0\n1,1\n",
    "bom-on-a-row": b"\xef\xbb\xbf0,0\n1,1\n2,0\n",
    "not-utf8": b"0,0\n1,\xff\n",
    "not-utf8-header": b"\xfftime,value\n0,0\n1,1\n",
    "decreasing-time": b"0,0\n2,1\n1,0\n",
    "repeated-time": b"time,value\n0,0\n\n1,1\n1,0\n",
    "empty": b"",
    "only-blank-lines": b"\n\n \n",
    "header-only": b"time,value\n",
    "single-row": b"time,value\n0,0\n",
    "unparsable-line-2": b"0,0\nnope\n1,1\n",
}
COLUMNS = [(0, 1), (1, 0), (0, 2), (2, 1), (0, 0), (1, 1), (5, 1), (2**64, 1)]


def path_columns(read):
    """``read`` with its path's times and values as the result."""
    def columns(*args):
        path = read(*args)
        return path.times, path.values
    return columns


def outcome(read, *args):
    """("rows", times bits, values bits), or ("error", code, message)."""
    try:
        times, values = read(*args)
    except ConfigError as exc:
        return "error", exc.code, str(exc)
    return "rows", times.view(np.int64).tolist(), values.view(np.int64).tolist()


@pytest.mark.parametrize("case", READER_CASES)
def test_readers_match_the_line_loop_reference(tmp_path, case):
    f = tmp_path / "p.csv"
    f.write_bytes(READER_CASES[case])
    assert outcome(path_columns(read_path_csv), f) == outcome(reference_columns, f)
    for cols in COLUMNS:
        assert outcome(path_columns(ingest_csv), f, *cols) == outcome(reference_columns, f, *cols)


@pytest.mark.parametrize("case, reader", [
    ("plain", "loadtxt"), ("crlf", "loadtxt"), ("three-columns", "loadtxt"),
    ("whitespace-only-line", "loop"), ("underscore", "loop"), ("decreasing-time", "loop"),
    ("header-only", "loop"),
])
def test_c_reader_takes_well_formed_files_only(tmp_path, case, reader):
    """A well-formed file is read by loadtxt; the loop reads or names the fault of the rest."""
    f = tmp_path / "p.csv"
    f.write_bytes(READER_CASES[case])
    assert (cebp.paths._load_columns(f, 0, 1) is not None) == (reader == "loadtxt")


@pytest.mark.parametrize("case", ["empty", "only-blank-lines", "header-only"])
def test_file_without_rows_prints_no_warning(tmp_path, case):
    """loadtxt warns on a file with no rows; outside the test suite's error filter
    that warning would reach stderr ahead of the PARSE_ERROR."""
    f = tmp_path / "p.csv"
    f.write_bytes(READER_CASES[case])
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        with pytest.raises(ConfigError, match="at least 2 rows"):
            read_path_csv(f)
    assert seen == []


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


@pytest.mark.parametrize("seed", [-1, (3, -2, 0)])
def test_negative_seed_is_config_error(seed):
    with pytest.raises(ConfigError) as err:
        simulate(SimulationConfig(offspring={"family": "geometric-pairs", "p": 0.5}, depth=3, seed=seed))
    assert err.value.code == "INVALID_CONFIG"


@pytest.mark.parametrize("draw", [
    lambda path: sample_W(make_offspring("geometric-pairs", p=0.5), 12, 10, seed=-1),
    lambda path: remaining_time_records(path, -2, 10, master_seed=-1),
    lambda path: remaining_time_records(path, -2, 10, master_seed=0, query_index=-1),
], ids=["sample-W", "remaining-time-seed", "remaining-time-query-index"])
def test_stream_under_a_negative_seed_or_key_is_config_error(draw):
    """Every stream opens through ``rng.spawn_seed``, which refuses what numpy would."""
    path = simulate(SimulationConfig(offspring={"family": "geometric-pairs", "p": 0.5}, depth=3))
    with pytest.raises(ConfigError) as err:
        draw(path)
    assert err.value.code == "INVALID_CONFIG"


@pytest.mark.parametrize("n", [0, -2])
def test_path_records_refuses_fewer_than_one_path(monkeypatch, n):
    monkeypatch.setattr(cebp.paths, "simulate", lambda config: pytest.fail("a path was simulated"))
    config = SimulationConfig(offspring={"family": "geometric-pairs", "p": 0.5}, depth=3)
    with pytest.raises(ConfigError) as err:
        path_records(config, (0,), n, len)
    assert err.value.code == "INVALID_CONFIG"


def test_a_record_sees_its_path_and_seed():
    config = SimulationConfig(offspring={"family": "geometric-pairs", "p": 0.5}, depth=3)
    seeds = path_records(config, (5, 6), 3, lambda path: path.meta["seed"])
    assert seeds == [(5, 6, 0), (5, 6, 1), (5, 6, 2)]


def reference_assembly(config):
    """The per-root assembly loop of ``simulate``, kept as its oracle: (times, values)."""
    dist, m = config.offspring, config.depth
    chunks_t, chunks_v = [np.array([0.0])], [np.array([0.0])]
    n_roots = 0
    while n_roots == 0 or (config.root_mode == "tile"
                           and chunks_t[-1][-1] < config.target_horizon):
        tree = cebp.paths._one_tree(dist, config, n_roots)
        n_roots += 1
        chunks_t.append(np.cumsum(tree.leaf_durations) + chunks_t[-1][-1])
        chunks_v.append(np.cumsum(tree.orientations[m] * 2.0 ** -m) + chunks_v[-1][-1])
    return np.concatenate(chunks_t), np.concatenate(chunks_v)


@pytest.mark.parametrize("keep_trees", [True, False])
@pytest.mark.parametrize("mode", ["mean", "sampled"])
@pytest.mark.parametrize("offspring", [
    {"family": "geometric-pairs", "p": 0.25},
    {"family": "custom", "pmf": {2: 0.3, 8: 0.7}},      # mu = 6.2, not a power of two
])
def test_path_assembly_matches_the_per_root_reference(offspring, mode, keep_trees):
    config = SimulationConfig(offspring=offspring, depth=4, duration_mode=mode, w_generations=4,
                              root_mode="tile", target_horizon=4.0, seed=21,
                              keep_trees=keep_trees)
    path = simulate(config)
    times, values = reference_assembly(config)
    assert path.meta["n_roots"] > 1
    assert np.array_equal(path.times.view(np.int64), times.view(np.int64))
    assert np.array_equal(path.values.view(np.int64), values.view(np.int64))
