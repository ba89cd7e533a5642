"""Crossing-tree serialization: NDJSON, one node per line.

Records carry (id, parent_id, level, position, orientation, z) plus duration
and start_time when assigned.  Node ids run generation-major (root first, then
generation 1 left to right, and so on), which makes the files diffable and
lets the reader rebuild the arena without a link-resolution pass.  Floats go
through Python's shortest round-trip repr, so write/read is exact.
"""

import io
import json

import numpy as np

from .errors import ConfigError
from .tree import CHAR_ORIENTS, ORIENT_CHARS, CrossingTree

__all__ = [
    "serialize_tree",
    "write_trees",
    "read_trees",
]


def _records(tree, tree_index=None):
    gen_start = np.concatenate([[0], np.cumsum(tree.generation_sizes)])
    for g in range(tree.depth + 1):
        orient = tree.orientations[g]
        parent_of = None
        if g > 0:
            off = tree.child_offsets(g - 1)
            parent_of = np.searchsorted(off, np.arange(orient.size), side="right") - 1
        z = tree.z[g] if g < tree.depth else np.zeros(orient.size, dtype=np.int64)
        for i in range(orient.size):
            rec = {
                "id": int(gen_start[g] + i),
                "parent_id": None if g == 0 else int(gen_start[g - 1] + parent_of[i]),
                "level": tree.root_level - g,
                "position": i,
                "orientation": ORIENT_CHARS[int(orient[i])],
                "z": int(z[i]),
            }
            if tree.has_durations:
                rec["duration"] = float(tree.durations[g][i])
                rec["start_time"] = float(tree.start_times[g][i])
            if tree_index is not None:
                rec["tree"] = tree_index
            yield rec


def serialize_tree(tree, tree_index=None):
    """Render a tree as NDJSON text."""
    out = io.StringIO()
    for rec in _records(tree, tree_index):
        out.write(json.dumps(rec))
        out.write("\n")
    return out.getvalue()


def _malformed(line_no, why):
    return ConfigError("MALFORMED_RECORD", f"line {line_no}: {why}")


def _build_tree(rows):
    root_level = rows[0][0]["level"]
    by_level = {}
    for rec, line_no in rows:
        by_level.setdefault(root_level - rec["level"], []).append((rec, line_no))
    depth = max(by_level)
    orientations, zs, durs, starts = [], [], [], []
    with_durations = "duration" in rows[0][0]
    for g in range(depth + 1):
        if g not in by_level:
            raise _malformed(rows[-1][1], f"no records at level {root_level - g}")
        recs = sorted(by_level[g], key=lambda rl: rl[0]["position"])
        for want, (rec, line_no) in enumerate(recs):
            if rec["position"] != want:
                raise _malformed(line_no, f"positions at level {rec['level']} are not 0..{len(recs) - 1}")
            if ("duration" in rec) != with_durations:
                raise _malformed(line_no, "inconsistent duration fields across records")
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
    for g in range(depth):
        if int(zs[g].sum()) != orientations[g + 1].size:
            raise _malformed(
                rows[-1][1],
                f"children counts at level {root_level - g} sum to {int(zs[g].sum())}, "
                f"but level {root_level - g - 1} holds {orientations[g + 1].size} nodes",
            )
    return CrossingTree(
        root_level=root_level, depth=depth, orientations=orientations, z=zs,
        durations=durs if with_durations else None,
        start_times=starts if with_durations else None,
    )


def write_trees(trees, path):
    """Write one or more trees to an NDJSON file (a `tree` field separates them)."""
    with open(path, "w") as fh:
        if len(trees) == 1:
            fh.write(serialize_tree(trees[0]))
        else:
            for idx, tree in enumerate(trees):
                fh.write(serialize_tree(tree, tree_index=idx))


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
            for key in ("id", "level", "position", "orientation", "z"):
                if key not in rec:
                    raise _malformed(line_no, f"missing field {key!r}")
            if rec["orientation"] not in CHAR_ORIENTS:
                raise _malformed(line_no, f"orientation must be '+' or '-', got {rec['orientation']!r}")
            groups.setdefault(rec.get("tree", 0), []).append((rec, line_no))
    if not groups:
        raise _malformed(1, "empty tree stream")
    return [_build_tree(groups[key]) for key in sorted(groups)]
