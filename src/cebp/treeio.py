"""Crossing-tree serialization: NDJSON, one node per line.

Records carry (id, parent_id, level, position, orientation, z) plus, from
``CrossingTree.timing()``, duration and start_time when the tree has leaf
durations.  Node ids run generation-major (root first, then generation 1 left
to right, and so on), which makes the files diffable; ``_layout`` alone derives
a tree's ids, parent ids, positions and z, the last from ``CrossingTree.z``
(0 at the leaves).  The reader accepts a file exactly when its records are
what ``write_trees`` writes for the trees they describe, in any line order:
each field has its JSON type, each tree passes ``validate_tree``, each record
equals its ``_layout`` entry, and each duration and start_time is, bit for
bit, what ``timing()`` derives from the leaf durations.  Floats go through
Python's shortest round-trip repr, so a file ``write_trees`` wrote reads back
and writes out again byte for byte; ``paths.float_text`` formats them, once
per distinct bit pattern in a column that repeats (mean-mode durations) and
lazily one by one in a mostly-distinct one (start times).  Lines keep the
``json.dumps`` layout (keys in the order above, then ``tree`` in multi-tree
files), each built in one f-string; the sha256 pins in
``tests/test_artifact_oracle.py`` hold those bytes fixed.
"""

import itertools
import json
import re

import numpy as np

from .errors import ConfigError
from .paths import float_text
from .tree import CHAR_ORIENTS, CrossingTree, validate_tree

__all__ = [
    "write_trees",
    "read_trees",
]


def _layout(tree):
    """Per generation, the (level, ids, parent ids, positions, z) columns ``write_trees`` writes."""
    first_id = 0
    for g, orient in enumerate(tree.orientations):
        n = orient.size
        parents = (None,) if g == 0 else np.repeat(
            np.arange(first_id - tree.orientations[g - 1].size, first_id), tree.z(g - 1)).tolist()
        zs = tree.z(g).tolist() if g < tree.depth else itertools.repeat(0, n)
        yield tree.root_level - g, range(first_id, first_id + n), parents, range(n), zs
        first_id += n


def _tree_lines(tree, tree_index=None):
    """The tree's NDJSON lines, one generation's columns at a time, floats from ``float_text``."""
    tail = "" if tree_index is None else f', "tree": {tree_index}'
    durations, starts = tree.timing()
    for g, (level, ids, parents, positions, zs) in enumerate(_layout(tree)):
        columns = (ids, ("null",) if g == 0 else parents, positions,
                   np.where(tree.orientations[g] > 0, "+", "-").tolist(), zs)
        if durations is None:
            yield from (f'{{"id": {i}, "parent_id": {p}, "level": {level}, "position": {j}, '
                        f'"orientation": "{o}", "z": {z}{tail}}}\n'
                        for i, p, j, o, z in zip(*columns))
        else:
            yield from (f'{{"id": {i}, "parent_id": {p}, "level": {level}, "position": {j}, '
                        f'"orientation": "{o}", "z": {z}, "duration": {d}, "start_time": {s}{tail}}}\n'
                        for i, p, j, o, z, d, s in zip(
                            *columns, float_text(durations[g]), float_text(starts[g])))


def _malformed(line_no, why):
    return ConfigError("MALFORMED_RECORD", f"line {line_no}: {why}")


def _int(value):
    return type(value) is int and abs(value) < 2 ** 63     # a JSON true is no integer


# field -> (check, what it wants); a present field that fails its check is malformed
_FIELDS = {
    **dict.fromkeys(("id", "level", "position", "z", "tree"), (_int, "an integer")),
    "parent_id": (lambda v: v is None or _int(v), "an integer or null"),
    "orientation": (lambda v: v in ("+", "-"), "'+' or '-'"),
    **dict.fromkeys(("duration", "start_time"), (
        lambda v: _int(v) or type(v) is float and bool(np.isfinite(v)), "a finite number")),
}


def _build_tree(rows):
    with_durations = "duration" in rows[0][0]
    for rec, line_no in rows:
        if ("duration" in rec, "start_time" in rec) != (with_durations,) * 2:
            raise _malformed(line_no, "inconsistent duration fields across records")
    rows.sort(key=lambda rl: (-rl[0]["level"], rl[0]["position"]))
    gens = [list(grp) for _, grp in itertools.groupby(rows, lambda rl: rl[0]["level"])]
    orientations = [np.array([CHAR_ORIENTS[rec["orientation"]] for rec, _ in gen], dtype=np.int8)
                    for gen in gens]
    if with_durations:
        stored = np.array([[rec[key] for rec, _ in rows] for key in ("duration", "start_time")],
                          dtype=np.float64)
    tree = CrossingTree(root_level=gens[0][0][0]["level"], orientations=orientations,
                        leaf_durations=stored[0, -orientations[-1].size:] if with_durations else None)
    why = validate_tree(tree)
    if why is not None:     # reported at the first record of the generation it names
        named = re.match(r"generation (\d+)", why)
        g = int(named[1]) if named else 0 if why.startswith("root") else -1    # -1: the leaves
        raise _malformed(min(line_no for _, line_no in gens[g]), why)
    # a valid arena holds as many records per generation as its layout, so zip pairs them all
    layout = itertools.chain.from_iterable(
        zip(itertools.repeat(level), *columns) for level, *columns in _layout(tree))
    for (rec, line_no), want in zip(rows, layout):
        got = tuple(map(rec.get, ("level", "id", "parent_id", "position", "z")))
        if got != want:
            raise _malformed(line_no, f"(level, id, parent_id, position, z) = {got}, "
                             f"where write_trees writes {want}")
    if with_durations:
        # every stored duration and start time must be, bit for bit, what the leaves give
        want = np.array([np.concatenate(column) for column in tree.timing()])
        bad = np.flatnonzero(np.any(stored.view(np.int64) != want.view(np.int64), axis=0))
        if bad.size:
            k = int(bad[0])
            raise _malformed(rows[k][1], f"duration and start_time {stored[:, k].tolist()} are "
                             f"not the leaf-duration sums {want[:, k].tolist()}")
    return tree


def write_trees(trees, path):
    """Write one or more trees to an NDJSON file (a `tree` field separates them)."""
    with open(path, "w") as fh:
        for idx, tree in enumerate(trees):
            fh.writelines(_tree_lines(tree, idx if len(trees) > 1 else None))


def read_trees(path):
    """Read an NDJSON file holding one tree or several `tree`-tagged ones."""
    groups = {}
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line.decode("utf-8"))
            except ValueError as exc:   # not UTF-8, not JSON, or an integer too long to convert
                raise _malformed(line_no, f"not valid UTF-8 JSON ({getattr(exc, 'msg', exc)})") from exc
            if not isinstance(rec, dict):
                raise _malformed(line_no, "a record must be a JSON object")
            for key in ("id", "level", "position", "orientation", "z"):
                if key not in rec:
                    raise _malformed(line_no, f"missing field {key!r}")
            for key, (ok, what) in _FIELDS.items():
                if key in rec and not ok(rec[key]):
                    raise _malformed(line_no, f"{key} must be {what}, got {rec[key]!r}")
            groups.setdefault(rec.get("tree", 0), []).append((rec, line_no))
    if not groups:
        raise _malformed(1, "empty tree stream")
    return [_build_tree(groups[key]) for key in sorted(groups)]
