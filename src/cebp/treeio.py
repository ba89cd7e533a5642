"""Crossing-tree serialization: NDJSON, one node per line.

Records carry (level, position, orientation, z) plus, from
``CrossingTree.timing()``, duration and start_time when the tree has leaf
durations.  Lines run generation-major and z is the children count
``CrossingTree.z(g)``, so line order and z give each node's parent.  Floats
are ``paths.float_text``'s shortest round-trip reprs, and lines keep the
``json.dumps`` layout; the sha256 pins in ``tests/test_artifact_oracle.py``
hold the bytes fixed.  A tree is its orientations and leaf durations, so the
reader takes only those from each line, rebuilds the trees, and accepts the
file exactly when it is, byte for byte, what ``write_trees`` writes for
them; the writer writes only trees that pass ``validate_tree``.
"""

import itertools
import re
from operator import itemgetter

import numpy as np

from .errors import ConfigError
from .paths import float_text
from .tree import DOWN, UP, CrossingTree, validate_tree

__all__ = [
    "write_trees",
    "read_trees",
]


def _tree_lines(tree, tree_index=None):
    """The tree's NDJSON lines, one generation's columns at a time, floats from ``float_text``."""
    tail = "" if tree_index is None else f', "tree": {tree_index}'
    durations, starts = tree.timing()
    for g, orient in enumerate(tree.orientations):
        n, level = orient.size, tree.root_level - g
        zs = tree.z(g).tolist() if g < tree.depth else itertools.repeat(0, n)
        columns = (range(n), np.where(orient > 0, "+", "-").tolist(), zs)
        if durations is None:
            yield from (f'{{"level": {level}, "position": {j}, "orientation": "{o}", "z": {z}{tail}}}\n'
                        for j, o, z in zip(*columns))
        else:
            yield from (f'{{"level": {level}, "position": {j}, "orientation": "{o}", "z": {z}, '
                        f'"duration": {d}, "start_time": {s}{tail}}}\n'
                        for j, o, z, d, s in zip(
                            *columns, float_text(durations[g]), float_text(starts[g])))


def _malformed(line_no, why):
    return ConfigError("MALFORMED_RECORD", f"line {line_no}: {why}")


# a whole line shaped as a record, newline optional; groups: level, orientation, duration, tree tag
_RECORD = re.compile(
    r'^\{"level": (-?\d{1,18}), "position": \d+, "orientation": "([+-])", "z": \d+'
    r'(?:, "duration": (-?(?:\d+(?:\.\d+)?(?:e[-+]\d+)?|inf|nan)), "start_time": [^,}\n]+)?'
    r'(?:, "tree": (\d+))?\}$\n?', re.MULTILINE)


def _build_tree(records, line_no):
    """The tree of one tag's records, which start at line ``line_no``."""
    gens = [list(gen) for _, gen in itertools.groupby(records, itemgetter(0))]
    starts = np.cumsum([0] + [len(gen) for gen in gens])   # each generation's first record
    orientations = [np.where(np.frombuffer("".join(map(itemgetter(1), gen)).encode(), np.uint8)
                             == ord("+"), UP, DOWN).astype(np.int8) for gen in gens]
    texts = [record[2] for record in gens[-1]] if gens[0][0][2] else []     # if the root has one
    if "" in texts:
        raise _malformed(line_no + starts[-2] + texts.index(""), "a leaf without a duration")
    tree = CrossingTree(int(gens[0][0][0]), orientations,
                        np.array(texts, dtype=np.float64) if texts else None)
    why = validate_tree(tree)
    if why is not None:     # reported at the leaf it names, else at the first record of its generation
        gen, leaf = re.match(r"(?:generation (\d+)|leaf (\d+))?", why).groups()
        raise _malformed(line_no + (starts[int(gen)] if gen else starts[-2] + int(leaf or 0)), why)
    return tree


def _file_lines(trees):
    return itertools.chain.from_iterable(
        _tree_lines(tree, idx if len(trees) > 1 else None) for idx, tree in enumerate(trees))


def write_trees(trees, path):
    """Write one or more valid trees to an NDJSON file (a `tree` field separates them)."""
    why = next(filter(None, map(validate_tree, trees)), None) if trees else "no trees to write"
    if why is not None:
        raise ConfigError("INVALID_Z", why)
    with open(path, "w") as fh:
        fh.writelines(_file_lines(trees))


def read_trees(path):
    """The trees of a file ``write_trees`` wrote; any other file is MALFORMED_RECORD at a line.

    A tree is a run of one tree tag, and a generation a run of one level.
    """
    # bytes that are not UTF-8 and a "\r" stay in the text, where no record matches them
    with open(path, encoding="utf-8", errors="surrogateescape", newline="") as fh:
        text = fh.read()
    records = _RECORD.findall(text)
    if len(records) < text.count("\n") + (not text.endswith("\n")):   # report the first non-record
        k, line = next((k, line) for k, line in enumerate(text.split("\n"))
                       if not _RECORD.fullmatch(line))
        raise _malformed(k + 1, f"{line!r} is not a record write_trees writes")
    trees, line_no = [], 1
    for _, tree_records in itertools.groupby(records, itemgetter(3)):
        tree_records = list(tree_records)
        trees.append(_build_tree(tree_records, line_no))
        line_no += len(tree_records)
    pos = 0
    for line_no, want in enumerate(_file_lines(trees), start=1):
        if not text.startswith(want, pos):
            got = text[pos:text.find("\n", pos) + 1 or None]     # through its newline, if it has one
            raise _malformed(line_no, f"read {got!r}, where write_trees writes {want!r}")
        pos += len(want)
    return trees
