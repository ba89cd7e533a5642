import numpy as np
import pytest

from cebp.errors import BudgetError, ConfigError
from cebp.offspring import OffspringDistribution, make_offspring
from cebp.tree import (
    DOWN,
    UP,
    CrossingTree,
    _expand_generation,
    assign_durations,
    expand_tree,
    validate_tree,
)


def orientations(parent, z, n, rng):
    """Children orientations of n parents with the same orientation and z, one row each."""
    out = _expand_generation(np.full(n, parent, dtype=np.int8),
                             np.full(n, z, dtype=np.int64), rng)
    return out.reshape(n, z)


def test_orientations_z2_deterministic():
    rng = np.random.default_rng(0)
    for parent in (UP, DOWN):
        out = orientations(parent, 2, 1, rng)[0]
        assert np.array_equal(out, [parent, parent])


def test_orientations_z4_structure():
    draws = orientations(DOWN, 4, 200, np.random.default_rng(1))
    assert np.all(draws[:, 2:] == DOWN)
    assert np.all(draws[:, 0] == -draws[:, 1])
    assert {tuple(row[:2]) for row in draws} == {(1, -1), (-1, 1)}


def test_orientations_z6_frequencies():
    rng = np.random.default_rng(2)
    n = 100000
    draws = orientations(UP, 6, n, rng)
    # two independent excursion pairs; all four patterns equally likely
    patterns, counts = np.unique(draws[:, [0, 2]], axis=0, return_counts=True)
    assert patterns.shape[0] == 4
    assert np.all(np.abs(counts / n - 0.25) < 0.01)
    # first-pair sign is a fair coin within 3 sigma
    p_up = np.mean(draws[:, 0] == 1)
    assert abs(p_up - 0.5) < 3 * 0.5 / np.sqrt(n)


def test_expand_fixed_pairs_node_count():
    dist = make_offspring("fixed-pairs", b=2)
    tree = expand_tree(dist, UP, 2, np.random.default_rng(3))
    assert tree.generation_sizes == [1, 4, 16]
    assert tree.n_nodes == 21
    assert validate_tree(tree) is None


def test_expand_depth_zero():
    dist = make_offspring("geometric-pairs", p=0.5)
    tree = expand_tree(dist, DOWN, 0, np.random.default_rng(4))
    assert tree.n_nodes == 1
    assert tree.orientations[0][0] == DOWN
    assert validate_tree(tree) is None


def test_expand_population_mean():
    dist = make_offspring("geometric-pairs", p=0.5)
    sizes = []
    for seed in range(300):
        tree = expand_tree(dist, UP, 5, np.random.default_rng((5, seed)))
        sizes.append(tree.generation_sizes[-1])
    sizes = np.array(sizes, dtype=float)
    se = sizes.std(ddof=1) / np.sqrt(sizes.size)
    assert abs(sizes.mean() - 4 ** 5) < 3 * se + 1e-9


def test_expand_structure_validates_across_families():
    for fam, kw in [
        ("geometric-pairs", {"p": 0.4}),
        ("poisson-pairs", {"lam": 1.5}),
        ("custom", {"pmf": {2: 0.5, 6: 0.5}}),
    ]:
        dist = make_offspring(fam, **kw)
        tree = expand_tree(dist, DOWN, 6, np.random.default_rng(6))
        assert validate_tree(tree) is None


def test_expand_budget_trips():
    dist = make_offspring("geometric-pairs", p=0.5)
    with pytest.raises(BudgetError) as err:
        expand_tree(dist, UP, 10, np.random.default_rng(7), node_budget=1000)
    assert err.value.code == "NODE_BUDGET_EXCEEDED"


def test_mean_durations_fixed_pairs():
    dist = make_offspring("fixed-pairs", b=2)
    tree = expand_tree(dist, UP, 3, np.random.default_rng(8))
    assign_durations(tree, dist, None, 0)
    durations, starts = tree.timing()
    assert np.all(tree.leaf_durations == 4.0 ** -3)
    assert durations[0][0] == pytest.approx(1.0, abs=1e-12)
    assert starts[0][0] == 0.0
    assert validate_tree(tree) is None


def test_mean_root_duration_is_w_sample():
    dist = make_offspring("geometric-pairs", p=0.5)
    roots = []
    for seed in range(400):
        tree = expand_tree(dist, UP, 6, np.random.default_rng((10, seed)))
        assign_durations(tree, dist, None, 0)
        roots.append(tree.timing()[0][0][0])
        # root duration equals the generation population over mu^m
        assert roots[-1] == pytest.approx(
            tree.generation_sizes[-1] / dist.mu ** 6, rel=1e-12
        )
    assert np.mean(roots) == pytest.approx(1.0, abs=0.15)


def test_sampled_durations_validate():
    dist = make_offspring("geometric-pairs", p=0.5)
    tree = expand_tree(dist, DOWN, 5, np.random.default_rng(11))
    assign_durations(tree, dist, (12,), 6)
    assert validate_tree(tree) is None
    leaves = tree.leaf_durations
    assert np.all(leaves > 0)
    # sampled leaves vary, mean-mode leaves do not
    assert leaves.std() > 0


def test_sampled_durations_refuse_negative_w_generations():
    dist = make_offspring("geometric-pairs", p=0.5)
    tree = expand_tree(dist, DOWN, 3, np.random.default_rng(11))
    with pytest.raises(ConfigError) as err:
        assign_durations(tree, dist, (12,), -1)
    assert err.value.code == "INVALID_CONFIG"
    # zero generations is mean mode: every leaf gets its mean duration
    assign_durations(tree, dist, (12,), 0)
    assert np.all(tree.leaf_durations == dist.mu ** -3)


def test_sampled_matches_deeper_mean_mode_root_law():
    # a depth-m tree with sampled(k) leaves has the same root duration law as
    # a depth-(m+k) mean-mode tree
    from scipy import stats

    dist = make_offspring("geometric-pairs", p=0.5)
    m, k, reps = 3, 3, 3000
    sampled, mean_deep = [], []
    for seed in range(reps):
        t1 = expand_tree(dist, UP, m, np.random.default_rng((13, seed)))
        assign_durations(t1, dist, (14, seed), k)
        sampled.append(t1.timing()[0][0][0])
        t2 = expand_tree(dist, UP, m + k, np.random.default_rng((15, seed)))
        assign_durations(t2, dist, None, 0)
        mean_deep.append(t2.timing()[0][0][0])
    ks = stats.ks_2samp(sampled, mean_deep)
    assert ks.statistic < 0.04


def test_child_offsets_address_the_arena():
    dist = make_offspring("fixed-pairs", b=2)
    tree = expand_tree(dist, UP, 2, np.random.default_rng(16))
    assign_durations(tree, dist, None, 0)
    root_off = tree.child_offsets(0)
    assert root_off[1] - root_off[0] == 4
    off = tree.child_offsets(1)
    assert np.array_equal(off, 4 * np.arange(5))
    # node (2, 9) sits under node (1, 2), which sits under the root
    assert np.searchsorted(off, 9, side="right") - 1 == 2
    assert np.searchsorted(root_off, 2, side="right") - 1 == 0
    starts = tree.timing()[1]
    assert starts[1][2] == pytest.approx(2 * 0.25)
    assert starts[2][off[2]] == starts[1][2]


def test_validator_catches_corruption():
    dist = make_offspring("fixed-pairs", b=2)
    tree = expand_tree(dist, UP, 2, np.random.default_rng(17))
    tree.orientations[1] = tree.orientations[1].copy()
    tree.orientations[1][0] = -tree.orientations[1][0]
    assert validate_tree(tree) is not None


def test_timing_sums_the_leaf_durations():
    dist = make_offspring("fixed-pairs", b=2)
    tree = expand_tree(dist, UP, 2, np.random.default_rng(18))
    tree.leaf_durations = np.arange(1.0, 17.0)      # integers: every sum is exact
    durations, starts = tree.timing()
    assert durations[0].tolist() == [136.0]
    assert durations[1].tolist() == [10.0, 26.0, 42.0, 58.0]
    assert starts[0].tolist() == [0.0]
    assert starts[1].tolist() == [0.0, 10.0, 36.0, 78.0]
    assert starts[2].tolist() == np.concatenate([[0.0], np.cumsum(np.arange(1.0, 16.0))]).tolist()
    assert durations[2].tolist() == tree.leaf_durations.tolist()


def test_timing_without_leaf_durations_is_none():
    tree = expand_tree(make_offspring("fixed-pairs", b=2), UP, 1, np.random.default_rng(19))
    assert tree.timing() == (None, None)


@pytest.mark.parametrize("leaves, why", [
    ([0.25] * 3, "3 leaf durations for 4 leaves"),
    ([0.25, -0.25, 0.5, 0.5], "negative leaf duration"),
    ([0.25, 0.0, 0.25, 0.5], "only the last leaf duration may be 0"),
    ([0.25, 0.25, 0.5, 0.0], None),
    ([0.25, np.nan, 0.5, 0.5], "leaf 1: duration nan is not finite"),
    ([np.inf, 0.25, 0.5, 0.5], "leaf 0: duration inf is not finite"),
    ([0.25, 0.25, 0.5, -np.inf], "leaf 3: duration -inf is not finite"),
])
def test_validator_checks_the_leaf_durations(leaves, why):
    tree = expand_tree(make_offspring("fixed-pairs", b=2), UP, 1, np.random.default_rng(20))
    tree.leaf_durations = np.array(leaves)
    assert validate_tree(tree) == why


@pytest.mark.parametrize("depth, root", [(-1, UP), (3, 0)])
def test_expand_refuses_a_negative_depth_or_a_zero_root(depth, root):
    with pytest.raises(ConfigError) as err:
        expand_tree(make_offspring("fixed-pairs", b=2), root, depth, np.random.default_rng(21))
    assert err.value.code == "INVALID_Z"


def test_expand_budget_trips_while_growing():
    # mu^5 = 1024 passes the 4x pre-check against 600 nodes; the drawn tree outgrows it
    dist = make_offspring("geometric-pairs", p=0.5)
    with pytest.raises(BudgetError) as err:
        expand_tree(dist, UP, 5, np.random.default_rng(0), node_budget=600)
    assert err.value.code == "NODE_BUDGET_EXCEEDED"
    assert "tree grew past 600 nodes" in str(err.value)


def arena(orientations):
    return CrossingTree(root_level=0, orientations=[np.array(o, dtype=np.int8) for o in orientations])


@pytest.mark.parametrize("tree, why", [
    (arena([[2]]), "generation 0: orientations must be +1/-1"),
    (arena([[UP], [DOWN, DOWN]]), "generation 0: a direct pair does not match its parent"),
    (arena([[UP], [UP, UP, UP]]), "generation 1: 3 nodes, an odd number"),
    (arena([[UP], [UP, UP, UP, DOWN]]), "generation 1: ends on an excursion pair"),
    (arena([[UP], [UP, UP, UP, UP]]), "generation 0: 1 node(s) over 2 direct pair(s)"),
    (arena([[UP], [UP, UP], [UP, DOWN, UP, UP]]), "generation 1: 2 node(s) over 1 direct pair(s)"),
    (arena([[UP], [UP, UP]]), None),
], ids=["orientation-2", "direct-pair", "odd-generation", "ends-on-excursion",
        "direct-pair-too-many", "direct-pair-too-few", "valid"])
def test_validator_checks_hand_built_arenas(tree, why):
    assert validate_tree(tree) == why


@pytest.mark.parametrize("family, params, seed", [
    ("geometric-pairs", {"p": 0.5}, 40),
    ("geometric-pairs", {"p": 0.5}, 41),
    ("poisson-pairs", {"lam": 1.5}, 42),
    ("fixed-pairs", {"b": 3}, 43),
    ("custom", {"pmf": {2: 0.5, 6: 0.3, 10: 0.2}}, 44),
])
def test_derived_counts_equal_the_drawn_counts(monkeypatch, family, params, seed):
    drawn, sample_z = [], OffspringDistribution.sample_z

    def recording(self, rng, size):
        drawn.append(sample_z(self, rng, size))
        return drawn[-1]

    monkeypatch.setattr(OffspringDistribution, "sample_z", recording)
    tree = expand_tree(make_offspring(family, **params), DOWN, 5, np.random.default_rng(seed))
    assert len(drawn) == tree.depth == 5
    for g, z in enumerate(drawn):
        assert np.array_equal(tree.z(g), z)
        assert np.array_equal(tree.child_offsets(g), np.concatenate([[0], np.cumsum(z)]))


def reference_expand_generation(orient, z, rng):
    """The mask-and-where form of ``_expand_generation``, kept as its oracle."""
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


@pytest.mark.parametrize("family, params", [
    ("geometric-pairs", {"p": 0.25}),
    ("poisson-pairs", {"lam": 1.5}),
    ("fixed-pairs", {"b": 3}),
    ("custom", {"pmf": {2: 0.3, 8: 0.7}}),
])
def test_expand_generation_matches_the_reference(family, params):
    dist = make_offspring(family, **params)
    setup = np.random.default_rng(50)
    rng, ref_rng = np.random.default_rng(51), np.random.default_rng(51)
    generations = [(np.array([UP], dtype=np.int8), dist.sample_z(setup, 1)),
                   (np.array([DOWN], dtype=np.int8), dist.sample_z(setup, 1)),
                   (np.where(setup.integers(0, 2, 500) == 1, UP, DOWN).astype(np.int8),
                    np.full(500, 2, dtype=np.int64))]
    for n in (1000, 40_000):
        orient = np.where(setup.integers(0, 2, n) == 1, UP, DOWN).astype(np.int8)
        generations.append((orient, dist.sample_z(setup, n)))
    assert int(generations[-1][1].sum()) // 2 >= 10 ** 5
    for orient, z in generations:
        out = _expand_generation(orient, z, rng)
        ref = reference_expand_generation(orient, z, ref_rng)
        assert out.dtype == ref.dtype == np.int8
        assert np.array_equal(out, ref)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
