import json

import numpy as np
import pytest

from cebp.errors import ConfigError
from cebp.offspring import make_offspring
from cebp.paths import SimulationConfig, simulate
from cebp.tree import DOWN, UP, assign_durations, expand_tree, validate_tree
from cebp.treeio import read_trees, write_trees


def trees_equal(a, b):
    if (a.root_level, a.depth) != (b.root_level, b.depth):
        return False
    for g in range(a.depth + 1):
        if not np.array_equal(a.orientations[g], b.orientations[g]):
            return False
    for g in range(a.depth):
        if not np.array_equal(a.z[g], b.z[g]):
            return False
    if (a.leaf_durations is None) != (b.leaf_durations is None):
        return False
    return a.leaf_durations is None or np.array_equal(a.leaf_durations, b.leaf_durations)


def round_trip(tree, tmp_path):
    path = tmp_path / "tree.ndjson"
    write_trees([tree], path)
    (back,) = read_trees(path)
    return back


def tree_text(tree, tmp_path):
    path = tmp_path / "text.ndjson"
    write_trees([tree], path)
    return path.read_text()


def read_text(text, tmp_path):
    path = tmp_path / "tree.ndjson"
    path.write_text(text)
    return read_trees(path)


def test_round_trip_fixed_pairs(tmp_path):
    dist = make_offspring("fixed-pairs", b=2)
    tree = expand_tree(dist, UP, 2, np.random.default_rng(0))
    text = tree_text(tree, tmp_path)
    assert len(text.strip().splitlines()) == 21
    back = round_trip(tree, tmp_path)
    assert trees_equal(tree, back)
    assert validate_tree(back) is None


def test_round_trip_with_durations_exact(tmp_path):
    dist = make_offspring("geometric-pairs", p=0.5)
    tree = expand_tree(dist, UP, 5, np.random.default_rng(1))
    assign_durations(tree, dist, np.random.default_rng(2), 5)
    back = round_trip(tree, tmp_path)
    assert trees_equal(tree, back)  # bit-exact floats via round-trip repr


def test_round_trip_preserves_duration_absence(tmp_path):
    dist = make_offspring("geometric-pairs", p=0.5)
    tree = expand_tree(dist, UP, 3, np.random.default_rng(3))
    first_line = tree_text(tree, tmp_path).splitlines()[0]
    assert "duration" not in json.loads(first_line)
    back = round_trip(tree, tmp_path)
    assert back.leaf_durations is None


@pytest.mark.parametrize("line, key", [(0, "duration"), (9, "start_time")])
def test_internal_timing_one_ulp_off_the_leaves_rejected(tmp_path, line, key):
    lines = tree_text(sampled_tree(4), tmp_path).splitlines()
    rec = json.loads(lines[line])
    assert rec["z"] > 0 and rec[key] > 0
    rec[key] = float(np.nextafter(rec[key], np.inf))
    lines[line] = json.dumps(rec)
    with pytest.raises(ConfigError) as err:
        read_text("\n".join(lines), tmp_path)
    assert err.value.code == "MALFORMED_RECORD"
    assert f"line {line + 1}:" in str(err.value)
    assert "leaf-duration sums" in str(err.value)


def test_empty_stream_rejected(tmp_path):
    with pytest.raises(ConfigError) as err:
        read_text("", tmp_path)
    assert err.value.code == "MALFORMED_RECORD"


def test_bad_json_line_reported(tmp_path):
    dist = make_offspring("fixed-pairs", b=2)
    text = tree_text(expand_tree(dist, UP, 1, np.random.default_rng(4)), tmp_path)
    lines = text.splitlines()
    lines[2] = "{broken"
    with pytest.raises(ConfigError) as err:
        read_text("\n".join(lines), tmp_path)
    assert err.value.code == "MALFORMED_RECORD"
    assert "line 3" in str(err.value)


def test_non_utf8_bytes_reported(tmp_path):
    path = tmp_path / "bin.ndjson"
    path.write_bytes(b"\n\xff\xfe")
    with pytest.raises(ConfigError) as err:
        read_trees(path)
    assert err.value.code == "MALFORMED_RECORD"
    assert "line 2" in str(err.value)


def test_overlong_integer_reported(tmp_path):
    rec = {"id": 0, "parent_id": None, "level": 0, "position": 0, "orientation": "+", "z": 0}
    line = json.dumps(rec).replace('"id": 0', '"id": ' + "9" * 5000)
    with pytest.raises(ConfigError) as err:
        read_text(line, tmp_path)
    assert err.value.code == "MALFORMED_RECORD"
    assert "line 1" in str(err.value)


def test_missing_field_reported(tmp_path):
    rec = {"id": 0, "parent_id": None, "level": 0, "position": 0, "orientation": "+"}
    with pytest.raises(ConfigError) as err:
        read_text(json.dumps(rec), tmp_path)
    assert "z" in str(err.value)


def test_inconsistent_counts_rejected(tmp_path):
    dist = make_offspring("fixed-pairs", b=2)
    tree = expand_tree(dist, UP, 1, np.random.default_rng(5))
    lines = tree_text(tree, tmp_path).splitlines()
    del lines[-1]  # drop one child: root's z no longer matches
    with pytest.raises(ConfigError) as err:
        read_text("\n".join(lines), tmp_path)
    assert err.value.code == "MALFORMED_RECORD"


def test_multi_tree_file(tmp_path):
    dist = make_offspring("geometric-pairs", p=0.5)
    trees = []
    for seed in range(3):
        t = expand_tree(dist, UP, 3, np.random.default_rng((6, seed)))
        assign_durations(t, dist, None, 0)
        trees.append(t)
    path = tmp_path / "forest.ndjson"
    write_trees(trees, path)
    back = read_trees(path)
    assert len(back) == 3
    assert all(trees_equal(t, b) for t, b in zip(trees, back))


def test_single_tree_file_omits_tree_field(tmp_path):
    dist = make_offspring("fixed-pairs", b=2)
    tree = expand_tree(dist, UP, 1, np.random.default_rng(7))
    path = tmp_path / "one.ndjson"
    write_trees([tree], path)
    assert "tree" not in json.loads(path.read_text().splitlines()[0])
    back = read_trees(path)
    assert len(back) == 1 and trees_equal(tree, back[0])


def reference_lines(trees):
    """The NDJSON lines of ``trees``, one ``json.dumps`` call per node."""
    for index, tree in enumerate(trees):
        durations, starts = tree.timing()
        gen_start = np.concatenate([[0], np.cumsum(tree.generation_sizes)])
        for g in range(tree.depth + 1):
            orient = tree.orientations[g]
            if g > 0:
                off = tree.child_offsets(g - 1)
                parent_of = np.searchsorted(off, np.arange(orient.size), side="right") - 1
            for i in range(orient.size):
                rec = {
                    "id": int(gen_start[g] + i),
                    "parent_id": None if g == 0 else int(gen_start[g - 1] + parent_of[i]),
                    "level": tree.root_level - g,
                    "position": i,
                    "orientation": "+" if orient[i] > 0 else "-",
                    "z": int(tree.z[g][i]) if g < tree.depth else 0,
                }
                if durations is not None:
                    rec["duration"] = float(durations[g][i])
                    rec["start_time"] = float(starts[g][i])
                if len(trees) > 1:
                    rec["tree"] = index
                yield json.dumps(rec) + "\n"


def sampled_tree(depth, root_level=0, seed=8):
    dist = make_offspring("geometric-pairs", p=0.5)
    tree = expand_tree(dist, DOWN, depth, np.random.default_rng(seed), root_level=root_level)
    return assign_durations(tree, dist, np.random.default_rng(seed + 1), 6)


def mean_tree(depth, seed, **family):
    dist = make_offspring(**family)
    tree = expand_tree(dist, UP, depth, np.random.default_rng(seed))
    return assign_durations(tree, dist, None, 0)


def tile_trees():
    config = SimulationConfig(offspring={"family": "geometric-pairs", "p": 0.5}, depth=7,
                              duration_mode="sampled", root_mode="tile",
                              target_horizon=3.0, seed=5)
    return simulate(config).trees


@pytest.mark.parametrize("make_trees", [
    lambda: [sampled_tree(7)],
    lambda: [sampled_tree(4, root_level=3)],
    lambda: [expand_tree(make_offspring("poisson-pairs", lam=1.5), UP, 4,
                         np.random.default_rng(9), root_level=-2)],
    tile_trees,
    lambda: [mean_tree(7, 3, family="geometric-pairs", p=0.5)],
    lambda: [mean_tree(6, 4, family="custom", pmf={2: 0.5, 4: 0.5})],
], ids=["sampled-depth-7", "root-level-3", "no-durations-root-level-minus-2", "tile",
        "mean-depth-7", "mean-custom-mu-3"])
def test_writer_matches_json_reference(tmp_path, make_trees):
    trees = make_trees()
    path = tmp_path / "trees.ndjson"
    write_trees(trees, path)
    with open(path) as fh:
        written = fh.readlines()
    assert written == list(reference_lines(trees))


def test_reference_cases_cover_exponent_reprs_and_tree_tags():
    deep = "".join(reference_lines([sampled_tree(7)]))
    assert "e-05, " in deep
    trees = tile_trees()
    assert len(trees) > 1
    assert '"tree": 1}' in "".join(reference_lines(trees))


def test_two_roots_rejected(tmp_path):
    recs = [{"id": i, "parent_id": None, "level": 0, "position": i, "orientation": "+", "z": 2}
            for i in range(2)]
    recs += [{"id": 2 + i, "parent_id": 7, "level": -1, "position": i, "orientation": "+", "z": 0}
             for i in range(4)]
    with pytest.raises(ConfigError) as err:
        read_text("".join(json.dumps(rec) + "\n" for rec in recs), tmp_path)
    assert err.value.code == "MALFORMED_RECORD"
    assert "exactly one node" in str(err.value)


@pytest.mark.parametrize("key, value", [("parent_id", 2), ("parent_id", None), ("id", 9)])
def test_ids_off_the_generation_major_layout_rejected(tmp_path, key, value):
    dist = make_offspring("fixed-pairs", b=2)
    lines = tree_text(expand_tree(dist, UP, 2, np.random.default_rng(4)), tmp_path).splitlines()
    rec = json.loads(lines[7])
    rec[key] = value
    lines[7] = json.dumps(rec)
    with pytest.raises(ConfigError) as err:
        read_text("\n".join(lines), tmp_path)
    assert err.value.code == "MALFORMED_RECORD"
    assert "line 8" in str(err.value)


# a valid three-node tree: the root and its direct pair, with durations
THREE_NODES = [
    {"id": 0, "parent_id": None, "level": 0, "position": 0, "orientation": "+", "z": 2,
     "duration": 1.0, "start_time": 0.0},
    {"id": 1, "parent_id": 0, "level": -1, "position": 0, "orientation": "+", "z": 0,
     "duration": 0.5, "start_time": 0.0},
    {"id": 2, "parent_id": 0, "level": -1, "position": 1, "orientation": "+", "z": 0,
     "duration": 0.5, "start_time": 0.5},
]


@pytest.mark.parametrize("index, key, value", [
    (0, "z", 2.7), (0, None, 5), (1, "level", "a"), (2, "duration", "x"), (0, None, [1]),
    (0, "z", True), (1, "id", 1.0), (1, "parent_id", "0"), (2, "position", None),
    (2, "start_time", float("nan")), (1, "orientation", ["+"]), (0, "tree", "a"),
])
def test_field_of_the_wrong_json_type_rejected(tmp_path, index, key, value):
    recs = [dict(rec) for rec in THREE_NODES]
    assert read_text("".join(json.dumps(rec) + "\n" for rec in recs), tmp_path)
    if key is None:
        recs[index] = value
    else:
        recs[index][key] = value
    with pytest.raises(ConfigError) as err:
        read_text("".join(json.dumps(rec) + "\n" for rec in recs), tmp_path)
    assert err.value.code == "MALFORMED_RECORD"
    assert f"line {index + 1}" in str(err.value)
