import json
import re

import numpy as np
import pytest

from cebp.errors import ConfigError
from cebp.offspring import make_offspring
from cebp.paths import SimulationConfig, simulate
from cebp.tree import DOWN, UP, CrossingTree, assign_durations, expand_tree, validate_tree
from cebp.treeio import read_trees, write_trees


def trees_equal(a, b):
    if (a.root_level, a.depth) != (b.root_level, b.depth):
        return False
    for g in range(a.depth + 1):
        if not np.array_equal(a.orientations[g], b.orientations[g]):
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
    assign_durations(tree, dist, (2,), 5)
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
    assert "where write_trees writes" in str(err.value)


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
    one_node = expand_tree(make_offspring("fixed-pairs", b=2), UP, 0, np.random.default_rng(4))
    path.write_bytes(tree_text(one_node, tmp_path).encode() + b"\xff\xfe")
    with pytest.raises(ConfigError) as err:
        read_trees(path)
    assert err.value.code == "MALFORMED_RECORD"
    assert "line 2" in str(err.value)


def test_overlong_integer_reported(tmp_path):
    rec = {"level": 0, "position": 0, "orientation": "+", "z": 0}
    line = json.dumps(rec).replace('"level": 0', '"level": ' + "9" * 5000)
    with pytest.raises(ConfigError) as err:
        read_text(line, tmp_path)
    assert err.value.code == "MALFORMED_RECORD"
    assert "line 1" in str(err.value)


def test_missing_field_reported(tmp_path):
    rec = {"level": 0, "position": 0, "orientation": "+"}
    with pytest.raises(ConfigError) as err:
        read_text(json.dumps(rec), tmp_path)
    assert err.value.code == "MALFORMED_RECORD"
    assert "line 1:" in str(err.value)


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
        for g in range(tree.depth + 1):
            orient = tree.orientations[g]
            z = tree.z(g) if g < tree.depth else np.zeros(orient.size, dtype=np.int64)
            for i in range(orient.size):
                rec = {
                    "level": tree.root_level - g,
                    "position": i,
                    "orientation": "+" if orient[i] > 0 else "-",
                    "z": int(z[i]),
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
    return assign_durations(tree, dist, (seed + 1,), 6)


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


@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
def test_non_finite_leaf_duration_rejected_at_its_line(tmp_path, text):
    lines = tree_text(mean_tree(1, 12, family="fixed-pairs", b=2), tmp_path).splitlines(keepends=True)
    lines[3] = re.sub(r'"duration": [^,]+', f'"duration": {text}', lines[3])
    with pytest.raises(ConfigError) as err:
        read_text("".join(lines), tmp_path)
    assert err.value.code == "MALFORMED_RECORD"
    assert str(err.value).startswith(f"MALFORMED_RECORD: line 4: leaf 2: duration {text} is not finite")


def arena(orientations):
    return CrossingTree(root_level=0, orientations=[np.array(o, dtype=np.int8) for o in orientations])


@pytest.mark.parametrize("trees, why", [
    ([arena([[UP, UP]])], "generation 0: 2 nodes, where the root generation must hold exactly one node"),
    ([arena([[UP], [UP, UP, UP]])], "generation 1: 3 nodes, an odd number"),
    ([mean_tree(1, 13, family="fixed-pairs", b=2), arena([[UP], [UP, DOWN]])],
     "generation 0: 1 node(s) over 0 direct pair(s)"),
    ([], "no trees to write"),
], ids=["two-roots", "odd-generation", "no-direct-pair", "no-trees"])
def test_writer_refuses_what_validate_tree_refuses(tmp_path, trees, why):
    path = tmp_path / "trees.ndjson"
    with pytest.raises(ConfigError) as err:
        write_trees(trees, path)
    assert (err.value.code, err.value.exit_code) == ("INVALID_Z", 2)
    assert str(err.value) == f"INVALID_Z: {why}"
    assert not path.exists()


def test_two_roots_rejected(tmp_path):
    recs = [{"level": 0, "position": i, "orientation": "+", "z": 2} for i in range(2)]
    recs += [{"level": -1, "position": i, "orientation": "+", "z": 0} for i in range(4)]
    with pytest.raises(ConfigError) as err:
        read_text("".join(json.dumps(rec) + "\n" for rec in recs), tmp_path)
    assert err.value.code == "MALFORMED_RECORD"
    assert "exactly one node" in str(err.value)
    assert "line 1:" in str(err.value)


def test_file_with_node_ids_rejected_at_line_1(tmp_path):
    """Trees files once led each line with an ``id`` and a ``parent_id``; such a file no longer reads."""
    recs = [{"id": i, "parent_id": None if i == 0 else 0, **rec} for i, rec in enumerate(THREE_NODES)]
    with pytest.raises(ConfigError) as err:
        read_text("".join(json.dumps(rec) + "\n" for rec in recs), tmp_path)
    assert err.value.code == "MALFORMED_RECORD"
    assert str(err.value).startswith("MALFORMED_RECORD: line 1: ")


@pytest.mark.parametrize("key, value", [("parent_id", 2), ("parent_id", None), ("id", 9)])
def test_ids_off_the_generation_major_layout_rejected(tmp_path, key, value):
    """Lines carry no ids: one id put back into line 8 of a valid file is refused at line 8."""
    dist = make_offspring("fixed-pairs", b=2)
    lines = tree_text(expand_tree(dist, UP, 2, np.random.default_rng(4)), tmp_path).splitlines()
    assert read_text("".join(line + "\n" for line in lines), tmp_path)
    lines[7] = json.dumps({key: value, **json.loads(lines[7])})
    with pytest.raises(ConfigError) as err:
        read_text("".join(line + "\n" for line in lines), tmp_path)
    assert err.value.code == "MALFORMED_RECORD"
    assert str(err.value).startswith("MALFORMED_RECORD: line 8: ")


# a valid three-node tree: the root and its direct pair, with durations
THREE_NODES = [
    {"level": 0, "position": 0, "orientation": "+", "z": 2, "duration": 1.0, "start_time": 0.0},
    {"level": -1, "position": 0, "orientation": "+", "z": 0, "duration": 0.5, "start_time": 0.0},
    {"level": -1, "position": 1, "orientation": "+", "z": 0, "duration": 0.5, "start_time": 0.5},
]


@pytest.mark.parametrize("index, key, value", [
    (0, "z", 2.7), (0, None, 5), (1, "level", "a"), (2, "duration", "x"), (0, None, [1]),
    (0, "z", True), (2, "position", None),
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


@pytest.mark.parametrize("edit, line", [
    (lambda recs: recs[2].update(position=2), 3),
    (lambda recs: recs[2].update(position=0), 3),
    (lambda recs: [recs[0].pop(key) for key in ("duration", "start_time")], 2),
    (lambda recs: [rec.update(level=-2) for rec in recs[1:]], 2),
    (lambda recs: recs[2].pop("duration"), 3),
    (lambda recs: recs[0].update(z=4), 1),
], ids=["position-gap", "duplicate-position", "root-without-durations", "missing-level",
        "no-duration", "z-off-the-children"])
def test_records_off_the_writer_layout_rejected(tmp_path, edit, line):
    recs = [dict(rec) for rec in THREE_NODES]
    edit(recs)
    with pytest.raises(ConfigError) as err:
        read_text("".join(json.dumps(rec) + "\n" for rec in recs), tmp_path)
    assert err.value.code == "MALFORMED_RECORD"
    assert f"line {line}:" in str(err.value)


def reference_malformed(line_no, why):
    return ConfigError("MALFORMED_RECORD", f"line {line_no}: {why}")


def reference_int(value):
    return type(value) is int and abs(value) < 2 ** 63     # a JSON true is no integer


# field -> (check, what it wants); a present field that fails its check is malformed
REFERENCE_FIELDS = {
    **dict.fromkeys(("level", "position", "z", "tree"), (reference_int, "an integer")),
    "orientation": (lambda v: v in ("+", "-"), "'+' or '-'"),
    **dict.fromkeys(("duration", "start_time"), (
        lambda v: reference_int(v) or type(v) is float and bool(np.isfinite(v)), "a finite number")),
}

CHAR_ORIENTS = {"+": UP, "-": DOWN}


def reference_build_tree(rows):
    """A per-record JSON reader that accepts any line order, kept as the reference."""
    root_level = max(rec["level"] for rec, _ in rows)
    by_level = {}
    for rec, line_no in rows:
        by_level.setdefault(root_level - rec["level"], []).append((rec, line_no))
    depth = max(by_level)
    ordered, orientations, zs = [], [], []
    with_durations = "duration" in rows[0][0]
    for g in range(depth + 1):
        if g not in by_level:
            raise reference_malformed(rows[-1][1], f"no records at level {root_level - g}")
        recs = sorted(by_level[g], key=lambda rl: rl[0]["position"])
        for want, (rec, line_no) in enumerate(recs):
            if rec["position"] != want:
                raise reference_malformed(
                    line_no, f"positions at level {rec['level']} are not 0..{len(recs) - 1}")
            if ("duration" in rec, "start_time" in rec) != (with_durations,) * 2:
                raise reference_malformed(line_no, "inconsistent duration fields across records")
        ordered += recs
        orientations.append(np.array(
            [CHAR_ORIENTS[rec["orientation"]] for rec, _ in recs], dtype=np.int8
        ))
        if g < depth or any(rec["z"] for rec, _ in recs):
            zs.append(np.array([rec["z"] for rec, _ in recs], dtype=np.int64))
    if len(zs) == depth + 1:        # leaves carried nonzero z
        raise reference_malformed(rows[-1][1], "leaf records must have z = 0")
    if with_durations:
        stored = np.array([[rec[key] for rec, _ in ordered] for key in ("duration", "start_time")],
                          dtype=np.float64)
    tree = CrossingTree(root_level=root_level, orientations=orientations,
                        leaf_durations=stored[0, -orientations[-1].size:] if with_durations else None)
    why = validate_tree(tree)
    if why is None and not all(np.array_equal(z, tree.z(g)) for g, z in enumerate(zs)):
        why = "children counts disagree with the orientations"
    if why is not None:
        raise reference_malformed(rows[-1][1], why)
    if with_durations:
        # every stored duration and start time must be, bit for bit, what the leaves give
        want = np.array([np.concatenate(column) for column in tree.timing()])
        bad = np.flatnonzero(np.any(stored.view(np.int64) != want.view(np.int64), axis=0))
        if bad.size:
            k = int(bad[0])
            raise reference_malformed(ordered[k][1], f"duration and start_time {stored[:, k].tolist()} are "
                             f"not the leaf-duration sums {want[:, k].tolist()}")
    return tree


def reference_read_trees(path):
    groups = {}
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line.decode("utf-8"))
            except ValueError as exc:   # not UTF-8, not JSON, or an integer too long to convert
                raise reference_malformed(line_no, f"not valid UTF-8 JSON ({getattr(exc, 'msg', exc)})") from exc
            if not isinstance(rec, dict):
                raise reference_malformed(line_no, "a record must be a JSON object")
            for key in ("level", "position", "orientation", "z"):
                if key not in rec:
                    raise reference_malformed(line_no, f"missing field {key!r}")
            for key, (ok, what) in REFERENCE_FIELDS.items():
                if key in rec and not ok(rec[key]):
                    raise reference_malformed(line_no, f"{key} must be {what}, got {rec[key]!r}")
            groups.setdefault(rec.get("tree", 0), []).append((rec, line_no))
    if not groups:
        raise reference_malformed(1, "empty tree stream")
    return [reference_build_tree(groups[key]) for key in sorted(groups)]


def mutate(recs, rng):
    """One or two seeded edits of a tree file's records: fields, keys, lines and their order."""
    recs = [dict(rec) for rec in recs]
    for _ in range(rng.integers(1, 3)):
        kind = rng.integers(7)
        a, b = rng.integers(len(recs), size=2)
        key = str(rng.choice(sorted(set(recs[a]) | {"id"})))    # "id": a field no line holds
        if kind == 0:
            pool = [-1, 0, 1, 2, 3, 4, 7, None, True, "+", "-", 0.5, recs[b].get(key)]
            if isinstance(recs[a].get(key), int):
                pool += [recs[a][key] - 1, recs[a][key] + 1]
            if isinstance(recs[a].get(key), float):
                pool.append(float(np.nextafter(recs[a][key], np.inf)))
            recs[a][key] = pool[rng.integers(len(pool))]
        elif kind == 1:
            recs[a].pop(key, None)
        elif kind == 2 and len(recs) > 1:
            del recs[a]
        elif kind == 3:
            recs.insert(b, dict(recs[a]))
        elif kind == 4:
            recs = [recs[i] for i in rng.permutation(len(recs))]
        elif kind == 5:
            recs[a], recs[b] = recs[b], recs[a]
        elif key in recs[b]:
            recs[a][key], recs[b][key] = recs[b][key], recs[a].get(key)
    return recs


def outcome(read, path):
    try:
        return "ok", read(path)
    except Exception as exc:        # any raise, so a raw one shows as a difference
        return type(exc).__name__, getattr(exc, "code", None), str(exc)


def test_reader_accepts_what_the_reference_reader_accepts(tmp_path):
    dist = make_offspring("geometric-pairs", p=0.5)
    bases = [
        [expand_tree(make_offspring("fixed-pairs", b=2), UP, 2, np.random.default_rng(30))],
        [mean_tree(2, 31, family="geometric-pairs", p=0.5)],
        [sampled_tree(2, root_level=1, seed=32)],
        [assign_durations(expand_tree(dist, DOWN, 0, np.random.default_rng(33)), dist, None, 0)],
        [mean_tree(1, 34, family="fixed-pairs", b=2), sampled_tree(1, seed=35)],
    ]
    base_recs = []
    for i, trees in enumerate(bases):
        path = tmp_path / f"base{i}.ndjson"
        write_trees(trees, path)
        base_recs.append([json.loads(line) for line in path.read_text().splitlines()])
    rng = np.random.default_rng(36)
    counts = {"ok": 0, "rejected": 0}
    identical = 0
    for k in range(4000):
        path, again = tmp_path / f"{k}.ndjson", tmp_path / f"{k}.again.ndjson"
        recs = mutate(base_recs[k % len(base_recs)], rng)
        path.write_text("".join(json.dumps(rec) + "\n" for rec in recs))
        got, want = outcome(read_trees, path), outcome(reference_read_trees, path)
        if want[0] == "ok":
            write_trees(want[1], again)
            want = ("ok", want[1], again.read_bytes() == path.read_bytes())
            again.unlink()
        path.unlink()       # now: thousands of files left for pytest to clean up are slow to remove
        if want[0] == "ok" and want[2]:
            assert got[0] == "ok", (k, recs, got)
            assert len(got[1]) == len(want[1]) and all(map(trees_equal, got[1], want[1])), (k, recs)
            identical += 1
        else:
            assert got[:2] == ("ConfigError", "MALFORMED_RECORD"), (k, recs, got)
            assert re.match(r"MALFORMED_RECORD: line [1-9]\d*: ", got[2]), (k, recs, got)
        counts["ok" if want[0] == "ok" else "rejected"] += 1
    assert min(counts.values()) > 400, counts
    assert identical > 400, identical
