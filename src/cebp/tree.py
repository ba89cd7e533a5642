"""Crossing-tree construction and validation.

A tree records how one root crossing decomposes, level by level, into
subcrossings: a parent with Z children gets Z/2 - 1 excursion pairs, each
(+,-) or (-,+) with probability 1/2, then one direct pair repeating the
parent orientation.  That forces the up/down child counts Z/2 +- 1 and makes
the last child end where the parent ends.  A generation takes one fair draw
per pair, direct pairs included (see ``_expand_generation``).

A tree stores its orientations and its leaf durations only.
``orientations[g]`` holds generation g in left-to-right path order as signed
bytes (+1 up, -1 down).  The children of node (g, i) are a contiguous slice
of generation g+1 that ends on its one same-sign pair, so
``CrossingTree.child_offsets`` derives every children count from the
orientations.  The leaf crossings laid end to end make the path, so
``CrossingTree.timing()`` derives every node's duration and start time from
the leaf durations.
"""

from dataclasses import dataclass

import numpy as np

from .branching import chain_blocks, grows_past
from .errors import BudgetError, ConfigError

__all__ = [
    "UP",
    "DOWN",
    "DEFAULT_NODE_BUDGET",
    "LEAF_BLOCK",
    "CrossingTree",
    "expand_tree",
    "assign_durations",
    "validate_tree",
]

UP = 1
DOWN = -1

DEFAULT_NODE_BUDGET = 10 ** 7
LEAF_BLOCK = 2 ** 14    # leaves per keyed block of sampled durations: it fixes every leaf's stream

SIGNS = np.array([DOWN, UP], dtype=np.int8)     # orientation of a pair draw of 0 or 1


@dataclass
class CrossingTree:
    """Arena-stored crossing tree; generation g lives at level root_level - g."""

    root_level: int
    orientations: list      # per generation: int8 array, +1/-1
    leaf_durations: np.ndarray | None = None

    @property
    def depth(self):
        return len(self.orientations) - 1

    @property
    def generation_sizes(self):
        return [o.size for o in self.orientations]

    @property
    def n_nodes(self):
        return int(sum(self.generation_sizes))

    def child_offsets(self, g):
        """Children of (g, i) are slice [off[i], off[i+1]), closed by the same-sign pairs."""
        kids = self.orientations[g + 1]
        return np.concatenate([[0], 2 * np.flatnonzero(kids[0::2] == kids[1::2]) + 2])

    def z(self, g):
        """Children counts of generation g, derived on each call."""
        return np.diff(self.child_offsets(g))

    def timing(self):
        """Per-generation (durations, start times), or (None, None) without leaf durations.

        A node lasts as long as its children; it starts where the leaves
        before its left-most leaf end, so the root starts at 0.
        """
        if self.leaf_durations is None:
            return None, None
        leaf_cum = np.concatenate([[0.0], np.cumsum(self.leaf_durations)])
        durations, starts = [self.leaf_durations], [leaf_cum[:-1]]
        leaf_left = np.arange(self.leaf_durations.size)     # each node's left-most leaf
        for g in reversed(range(self.depth)):               # bottom-up
            first_child = self.child_offsets(g)[:-1]
            durations.append(np.add.reduceat(durations[-1], first_child))
            leaf_left = leaf_left[first_child]
            starts.append(leaf_cum[leaf_left])
        return durations[::-1], starts[::-1]


def _expand_generation(orient, z, rng):
    """Children of one generation: a pair's first child is UP on a draw of 1, its second
    the negation, and both children of a parent's last (direct) pair take its sign."""
    last_pair = np.cumsum(z >> 1) - 1
    first = SIGNS[rng.integers(0, 2, size=int(last_pair[-1]) + 1)]
    first[last_pair] = orient
    out = np.empty(2 * first.size, dtype=np.int8)
    out[0::2] = first
    np.negative(first, out=out[1::2])
    out[1::2][last_pair] = orient
    return out


def expand_tree(dist, root_orientation, depth, rng, node_budget=DEFAULT_NODE_BUDGET,
                root_level=0):
    """Grow a crossing tree of the given depth under ``dist``.

    Children counts are drawn per node from the exact family law; orientations
    follow the excursions-then-direct-pair structure, which records the counts.
    Raises NODE_BUDGET_EXCEEDED as soon as the arena would outgrow ``node_budget``.
    """
    if depth < 0:
        raise ConfigError("INVALID_Z", f"depth must be >= 0, got {depth}")
    if root_orientation not in (UP, DOWN):
        raise ConfigError("INVALID_Z", f"root orientation must be +1 or -1, got {root_orientation!r}")
    if grows_past(dist, depth, 4 * node_budget):
        raise BudgetError(
            "NODE_BUDGET_EXCEEDED",
            f"expected population mu^m (mu = {dist.mu:g}, m = {depth}) far exceeds "
            f"node budget {node_budget}",
        )
    orientations = [np.array([root_orientation], dtype=np.int8)]
    total = 1
    for g in range(depth):
        parents = orientations[g]
        z = dist.sample_z(rng, size=parents.size)
        total += int(z.sum())
        if total > node_budget:
            raise BudgetError(
                "NODE_BUDGET_EXCEEDED",
                f"tree grew past {node_budget:g} nodes at generation {g + 1}",
            )
        orientations.append(_expand_generation(parents, z, rng))
    return CrossingTree(root_level=root_level, orientations=orientations)


def assign_durations(tree, dist, key, w_generations):
    """Set the leaf durations; returns the same tree, updated.

    Each leaf lasts mu**(leaf level) times an independent approximate-W draw
    of ``w_generations`` generations.  The leaves are drawn in blocks of
    LEAF_BLOCK (the last one partial), block b as one chain on the substream
    (*key, b).  Zero generations is mean mode: every leaf lasts exactly
    mu**(leaf level), and no stream opens.  ``CrossingTree.timing`` derives
    every other generation's durations and start times from the leaves.
    """
    n = tree.orientations[-1].size
    w = np.ones(n) if w_generations == 0 else chain_blocks(
        dist, w_generations, key, 0, np.diff(np.r_[0:n:LEAF_BLOCK, n]))
    tree.leaf_durations = float(dist.mu) ** (tree.root_level - tree.depth) * w
    return tree


def validate_tree(tree):
    """Check every structural invariant; returns None or the first violation.

    Below each node sit pairs that close on one direct pair repeating it; any
    other pair has opposite signs, an excursion.  Leaf durations must be
    finite, and leaf start times strictly increase, so only the last leaf
    may last 0.
    """
    m = tree.depth
    if tree.orientations[0].size != 1:
        return (f"generation 0: {tree.orientations[0].size} nodes, "
                "where the root generation must hold exactly one node")
    for g in range(m + 1):
        o = tree.orientations[g]
        if not np.all(np.isin(o, (UP, DOWN))):
            return f"generation {g}: orientations must be +1/-1"
        if g == m:
            continue
        kids = tree.orientations[g + 1]
        if kids.size % 2:
            return f"generation {g + 1}: {kids.size} nodes, an odd number"
        direct = kids[0::2] == kids[1::2]
        if int(direct.sum()) != o.size:
            return f"generation {g}: {o.size} node(s) over {int(direct.sum())} direct pair(s)"
        if not direct[-1]:
            return f"generation {g + 1}: ends on an excursion pair"
        if not np.all(kids[0::2][direct] == o):
            return f"generation {g}: a direct pair does not match its parent"
    d = tree.leaf_durations
    if d is not None:
        if d.size != tree.orientations[m].size:
            return f"{d.size} leaf durations for {tree.orientations[m].size} leaves"
        infinite = np.flatnonzero(~np.isfinite(d))
        if infinite.size:
            return f"leaf {infinite[0]}: duration {d[infinite[0]]} is not finite"
        if np.any(d < 0):
            return "negative leaf duration"
        if np.any(d[:-1] == 0):
            return "only the last leaf duration may be 0"
    return None
