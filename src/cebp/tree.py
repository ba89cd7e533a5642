"""Crossing-tree construction and validation.

A tree records how one root crossing decomposes, level by level, into
subcrossings.  Storage is an arena indexed by generation: ``orientations[g]``
holds the generation-g nodes in left-to-right path order as signed bytes
(+1 up, -1 down), and ``z[g]`` their children counts, so the children of node
(g, i) occupy a contiguous slice of generation g+1.  This layout is what the
path builder and the extractors iterate over, and it keeps million-node trees
in a few flat arrays.

Subcrossing orientation structure: a parent with Z children gets Z/2 - 1
excursion pairs, each (+,-) or (-,+) with probability 1/2, followed by one
direct pair repeating the parent orientation.  That forces the up/down child
counts Z/2 +- 1 and makes the last child end where the parent ends.
"""

from dataclasses import dataclass

import numpy as np

from .branching import check_depth
from .errors import BudgetError, ConfigError

__all__ = [
    "UP",
    "DOWN",
    "DEFAULT_NODE_BUDGET",
    "CrossingTree",
    "expand_tree",
    "assign_durations",
    "validate_tree",
]

UP = 1
DOWN = -1

DEFAULT_NODE_BUDGET = 10 ** 7

CHAR_ORIENTS = {"+": UP, "-": DOWN}


@dataclass
class CrossingTree:
    """Arena-stored crossing tree; generation g lives at level root_level - g."""

    root_level: int
    depth: int
    orientations: list      # per generation: int8 array, +1/-1
    z: list                 # per generation 0..depth-1: int64 children counts
    durations: list | None = None
    start_times: list | None = None

    @property
    def generation_sizes(self):
        return [o.size for o in self.orientations]

    @property
    def n_nodes(self):
        return int(sum(self.generation_sizes))

    @property
    def has_durations(self):
        return self.durations is not None

    def child_offsets(self, g):
        """Exclusive prefix sums: children of (g, i) are slice [off[i], off[i+1])."""
        return np.concatenate([[0], np.cumsum(self.z[g])])


def _expand_generation(orient, z, rng):
    """All children orientations of one generation in a single pass."""
    pairs = z >> 1
    total_pairs = int(pairs.sum())
    last_pair = np.cumsum(pairs) - 1
    is_direct = np.zeros(total_pairs, dtype=bool)
    is_direct[last_pair] = True
    parent_of_pair = np.repeat(orient, pairs)
    first = rng.integers(0, 2, size=total_pairs).astype(np.int8) * 2 - 1
    first = np.where(is_direct, parent_of_pair, first)
    second = np.where(is_direct, first, -first)
    out = np.empty(2 * total_pairs, dtype=np.int8)
    out[0::2] = first
    out[1::2] = second
    return out


def expand_tree(dist, root_orientation, depth, rng, node_budget=DEFAULT_NODE_BUDGET,
                root_level=0):
    """Grow a crossing tree of the given depth under ``dist``.

    Children counts are drawn per node from the exact family law; orientations
    follow the excursions-then-direct-pair structure.  Raises
    NODE_BUDGET_EXCEEDED as soon as the arena would outgrow ``node_budget``.
    """
    if depth < 0:
        raise ConfigError("INVALID_Z", f"depth must be >= 0, got {depth}")
    if root_orientation not in (UP, DOWN):
        raise ConfigError("INVALID_Z", f"root orientation must be +1 or -1, got {root_orientation!r}")
    if dist.mu ** depth > 4.0 * node_budget:
        raise BudgetError(
            "NODE_BUDGET_EXCEEDED",
            f"expected population mu^m = {dist.mu ** depth:.3g} far exceeds "
            f"node budget {node_budget:g}",
        )
    orientations = [np.array([root_orientation], dtype=np.int8)]
    zs = []
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
        zs.append(z)
        orientations.append(_expand_generation(parents, z, rng))
    return CrossingTree(
        root_level=root_level, depth=depth, orientations=orientations, z=zs,
    )


def assign_durations(tree, dist, mode, rng, w_generations=12, leaves_only=False):
    """Attach durations and start times; returns the same tree, updated.

    Leaf durations are mu**(leaf level) in mean mode, or that times an
    independent approximate-W draw in sampled mode (one aggregated chain per
    leaf, vectorized over the leaf array).  Internal durations are children
    sums; start times are prefix sums over the leaf order with the root
    starting at 0.  ``leaves_only`` sets the leaf durations alone and leaves
    every other entry None: all that ``build_path`` reads.
    """
    if mode not in ("mean", "sampled"):
        raise ConfigError("INVALID_CONFIG", f"duration mode must be 'mean' or 'sampled', got {mode!r}")
    m = tree.depth
    leaf_scale = float(dist.mu) ** (tree.root_level - m)
    n_leaves = tree.orientations[m].size
    if mode == "mean":
        leaf_dur = np.full(n_leaves, leaf_scale, dtype=np.float64)
    else:
        check_depth(dist, w_generations)
        counts = np.ones(n_leaves, dtype=np.int64)
        for _ in range(w_generations):
            counts = dist.population_step(rng, counts)
        leaf_dur = leaf_scale * (counts / float(dist.mu) ** w_generations)

    durations = [None] * (m + 1)
    starts = [None] * (m + 1)
    durations[m] = leaf_dur
    if not leaves_only:
        leaf_cum = np.concatenate([[0.0], np.cumsum(leaf_dur)])
        starts[m] = leaf_cum[:-1]
        # bottom-up: left-most leaf index and duration sums per node
        leaf_left = np.arange(n_leaves)
        for g in range(m - 1, -1, -1):
            off = tree.child_offsets(g)
            durations[g] = np.add.reduceat(durations[g + 1], off[:-1])
            leaf_left = leaf_left[off[:-1]]
            starts[g] = leaf_cum[leaf_left]
    tree.durations = durations
    tree.start_times = starts
    return tree


def validate_tree(tree):
    """Check every structural invariant; returns None or the first violation."""
    m = tree.depth
    if len(tree.orientations) != m + 1:
        return f"expected {m + 1} generations, found {len(tree.orientations)}"
    if tree.orientations[0].size != 1:
        return "root generation must hold exactly one node"
    if len(tree.z) != m:
        return f"expected {m} children-count arrays, found {len(tree.z)}"
    for g in range(m + 1):
        o = tree.orientations[g]
        if not np.all(np.isin(o, (UP, DOWN))):
            return f"generation {g}: orientations must be +1/-1"
        if g == m:
            continue
        z = tree.z[g]
        if z.size != o.size:
            return f"generation {g}: {o.size} nodes but {z.size} children counts"
        if np.any(z < 2) or np.any(z % 2 != 0):
            return f"generation {g}: children counts must be even >= 2"
        kids = tree.orientations[g + 1]
        if kids.size != int(z.sum()):
            return f"generation {g + 1}: size {kids.size} != sum of parent counts {int(z.sum())}"
        # pair structure: excursions cancel, the final pair repeats the parent
        pairs = z >> 1
        first, second = kids[0::2], kids[1::2]
        direct = np.zeros(first.size, dtype=bool)
        direct[np.cumsum(pairs) - 1] = True
        if not np.all(second[~direct] == -first[~direct]):
            return f"generation {g}: an excursion pair does not cancel"
        parent_of_pair = np.repeat(o, pairs)
        if not (np.all(first[direct] == parent_of_pair[direct])
                and np.all(second[direct] == parent_of_pair[direct])):
            return f"generation {g}: a direct pair does not match its parent"
        # up/down child counts must differ by exactly 2 toward the parent
        off = np.concatenate([[0], np.cumsum(z)])
        net = np.add.reduceat(kids.astype(np.int64), off[:-1])
        if not np.all(net == 2 * o):
            return f"generation {g}: child orientation sums violate Z+/Z- = Z/2 +- 1"
    if tree.has_durations:
        for g in range(m + 1):
            d, s = tree.durations[g], tree.start_times[g]
            if d.size != tree.orientations[g].size or s.size != d.size:
                return f"generation {g}: duration/start arrays sized wrong"
            if np.any(d < 0):
                return f"generation {g}: negative duration"
        if abs(float(tree.start_times[0][0])) > 1e-12:
            return "root start time must be 0"
        root_dur = float(tree.durations[0][0])
        for g in range(m):
            off = tree.child_offsets(g)
            sums = np.add.reduceat(tree.durations[g + 1], off[:-1])
            err = np.abs(tree.durations[g] - sums)
            if np.any(err > 1e-12 * np.maximum(tree.durations[g], 1e-300)):
                return f"generation {g}: duration not additive over children"
            if abs(tree.durations[g].sum() - root_dur) > 1e-9 * max(root_dur, 1e-300):
                return f"generation {g}: durations do not partition the root duration"
            starts = tree.start_times[g + 1]
            ends = starts + tree.durations[g + 1]
            if np.any(np.abs(starts[1:] - ends[:-1]) > 1e-9 * max(root_dur, 1e-300)):
                return f"generation {g + 1}: sibling crossings not contiguous in time"
        leaf_starts = tree.start_times[m]
        if leaf_starts.size > 1 and np.any(np.diff(leaf_starts) <= 0):
            return "leaf start times must be strictly increasing"
    return None
