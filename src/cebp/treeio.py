"""Crossing-tree serialization: NDJSON, one node per line.

Records carry (id, parent_id, level, position, orientation, z) plus duration
and start_time when assigned.  Node ids run generation-major (root first, then
generation 1 left to right, and so on), which makes the files diffable and
lets the reader rebuild the arena without a link-resolution pass; the reader
checks each field's JSON type, each tree with ``validate_tree``, and every id
and parent_id against that layout.  Floats go through Python's shortest
round-trip repr, so write/read is exact.  Lines
keep the ``json.dumps`` layout (keys in the order above, then ``tree`` in
multi-tree files), formatted a generation's columns at a time; the sha256
pins in ``tests/test_artifact_oracle.py`` hold those bytes fixed.
"""

import itertools
import json

import numpy as np

from .errors import ConfigError
from .tree import CHAR_ORIENTS, CrossingTree, validate_tree

__all__ = [
    "write_trees",
    "read_trees",
]


def _tree_lines(tree, tree_index=None):
    """The tree's NDJSON lines, formatted a generation's columns at a time."""
    tail = "" if tree_index is None else f', "tree": {tree_index}'
    first_id = 0
    for g in range(tree.depth + 1):
        n = tree.orientations[g].size
        level = tree.root_level - g
        parents = ["null"] * n
        if g > 0:
            parents = np.repeat(np.arange(first_id - tree.z[g - 1].size, first_id),
                                tree.z[g - 1]).tolist()
        zs = tree.z[g].tolist() if g < tree.depth else itertools.repeat(0, n)
        timing = itertools.repeat("", n)
        if tree.has_durations:
            timing = (f', "duration": {d!r}, "start_time": {s!r}'
                      for d, s in zip(tree.durations[g].tolist(), tree.start_times[g].tolist()))
        yield from (f'{{"id": {i}, "parent_id": {p}, "level": {level}, "position": {j}, '
                    f'"orientation": "{o}", "z": {z}{t}{tail}}}\n'
                    for i, p, j, o, z, t in zip(
                        range(first_id, first_id + n), parents, range(n),
                        np.where(tree.orientations[g] > 0, "+", "-").tolist(), zs, timing))
        first_id += n


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
    root_level = max(rec["level"] for rec, _ in rows)
    by_level = {}
    for rec, line_no in rows:
        by_level.setdefault(root_level - rec["level"], []).append((rec, line_no))
    depth = max(by_level)
    ordered, orientations, zs, durs, starts = [], [], [], [], []
    with_durations = "duration" in rows[0][0]
    for g in range(depth + 1):
        if g not in by_level:
            raise _malformed(rows[-1][1], f"no records at level {root_level - g}")
        recs = sorted(by_level[g], key=lambda rl: rl[0]["position"])
        for want, (rec, line_no) in enumerate(recs):
            if rec["position"] != want:
                raise _malformed(line_no, f"positions at level {rec['level']} are not 0..{len(recs) - 1}")
            if ("duration" in rec, "start_time" in rec) != (with_durations,) * 2:
                raise _malformed(line_no, "inconsistent duration fields across records")
        ordered += recs
        orientations.append(np.array(
            [CHAR_ORIENTS[rec["orientation"]] for rec, _ in recs], dtype=np.int8
        ))
        if g < depth or any(rec["z"] for rec, _ in recs):
            zs.append(np.array([rec["z"] for rec, _ in recs], dtype=np.int64))
        if with_durations:
            durs.append(np.array([rec["duration"] for rec, _ in recs], dtype=np.float64))
            starts.append(np.array([rec["start_time"] for rec, _ in recs], dtype=np.float64))
    if len(zs) == depth + 1:        # leaves carried nonzero z
        raise _malformed(rows[-1][1], "leaf records must have z = 0")
    tree = CrossingTree(
        root_level=root_level, depth=depth, orientations=orientations, z=zs,
        durations=durs if with_durations else None,
        start_times=starts if with_durations else None,
    )
    why = validate_tree(tree)
    if why is not None:
        raise _malformed(rows[-1][1], why)
    # the arena is valid, so its children counts give every node's parent id
    ids, parents = (np.fromiter((rec.get(key) for rec, _ in ordered), dtype=object,
                                count=len(ordered)) for key in ("id", "parent_id"))
    want_parents = np.concatenate([[None], np.repeat(
        np.arange(ids.size), np.concatenate([*zs, np.zeros(orientations[-1].size, np.int64)]))])
    bad = np.flatnonzero((ids != np.arange(ids.size)) | (parents != want_parents))
    if bad.size:
        k = int(bad[0])
        raise _malformed(ordered[k][1], f"id {ids[k]!r} with parent_id {parents[k]!r} breaks "
                         f"the generation-major layout (want id {k}, parent_id {want_parents[k]!r})")
    return tree


def write_trees(trees, path):
    """Write one or more trees to an NDJSON file (a `tree` field separates them)."""
    with open(path, "w") as fh:
        for idx, tree in enumerate(trees):
            fh.writelines(_tree_lines(tree, idx if len(trees) > 1 else None))


def read_trees(path):
    """Read an NDJSON file holding one tree or several `tree`-tagged ones."""
    groups = {}
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise _malformed(line_no, f"not valid JSON ({exc.msg})") from exc
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
