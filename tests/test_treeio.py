import json

import numpy as np
import pytest

from cebp.errors import ConfigError
from cebp.offspring import make_offspring
from cebp.tree import UP, assign_durations, expand_tree, validate_tree
from cebp.treeio import read_trees, serialize_tree, write_trees


def trees_equal(a, b):
    if (a.root_level, a.depth) != (b.root_level, b.depth):
        return False
    for g in range(a.depth + 1):
        if not np.array_equal(a.orientations[g], b.orientations[g]):
            return False
    for g in range(a.depth):
        if not np.array_equal(a.z[g], b.z[g]):
            return False
    if a.has_durations != b.has_durations:
        return False
    if a.has_durations:
        for g in range(a.depth + 1):
            if not np.array_equal(a.durations[g], b.durations[g]):
                return False
            if not np.array_equal(a.start_times[g], b.start_times[g]):
                return False
    return True


def round_trip(tree, tmp_path):
    path = tmp_path / "tree.ndjson"
    write_trees([tree], path)
    (back,) = read_trees(path)
    return back


def read_text(text, tmp_path):
    path = tmp_path / "tree.ndjson"
    path.write_text(text)
    return read_trees(path)


def test_round_trip_fixed_pairs(tmp_path):
    dist = make_offspring("fixed-pairs", b=2)
    tree = expand_tree(dist, UP, 2, np.random.default_rng(0))
    text = serialize_tree(tree)
    assert len(text.strip().splitlines()) == 21
    back = round_trip(tree, tmp_path)
    assert trees_equal(tree, back)
    assert validate_tree(back) is None


def test_round_trip_with_durations_exact(tmp_path):
    dist = make_offspring("geometric-pairs", p=0.5)
    tree = expand_tree(dist, UP, 5, np.random.default_rng(1))
    assign_durations(tree, dist, "sampled", np.random.default_rng(2), w_generations=5)
    back = round_trip(tree, tmp_path)
    assert trees_equal(tree, back)  # bit-exact floats via round-trip repr


def test_round_trip_preserves_duration_absence(tmp_path):
    dist = make_offspring("geometric-pairs", p=0.5)
    tree = expand_tree(dist, UP, 3, np.random.default_rng(3))
    first_line = serialize_tree(tree).splitlines()[0]
    assert "duration" not in json.loads(first_line)
    back = round_trip(tree, tmp_path)
    assert not back.has_durations


def test_empty_stream_rejected(tmp_path):
    with pytest.raises(ConfigError) as err:
        read_text("", tmp_path)
    assert err.value.code == "MALFORMED_RECORD"


def test_bad_json_line_reported(tmp_path):
    dist = make_offspring("fixed-pairs", b=2)
    text = serialize_tree(expand_tree(dist, UP, 1, np.random.default_rng(4)))
    lines = text.splitlines()
    lines[2] = "{broken"
    with pytest.raises(ConfigError) as err:
        read_text("\n".join(lines), tmp_path)
    assert err.value.code == "MALFORMED_RECORD"
    assert "line 3" in str(err.value)


def test_missing_field_reported(tmp_path):
    rec = {"id": 0, "parent_id": None, "level": 0, "position": 0, "orientation": "+"}
    with pytest.raises(ConfigError) as err:
        read_text(json.dumps(rec), tmp_path)
    assert "z" in str(err.value)


def test_inconsistent_counts_rejected(tmp_path):
    dist = make_offspring("fixed-pairs", b=2)
    tree = expand_tree(dist, UP, 1, np.random.default_rng(5))
    lines = serialize_tree(tree).splitlines()
    del lines[-1]  # drop one child: root's z no longer matches
    with pytest.raises(ConfigError) as err:
        read_text("\n".join(lines), tmp_path)
    assert err.value.code == "MALFORMED_RECORD"


def test_multi_tree_file(tmp_path):
    dist = make_offspring("geometric-pairs", p=0.5)
    trees = []
    for seed in range(3):
        t = expand_tree(dist, UP, 3, np.random.default_rng((6, seed)))
        assign_durations(t, dist, "mean", np.random.default_rng(0))
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
