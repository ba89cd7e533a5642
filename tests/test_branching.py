import numpy as np
import pytest
from scipy import stats

from cebp.branching import sample_W, sample_w_range
from cebp.errors import BudgetError, ConfigError
from cebp.offspring import make_offspring
from cebp.tree import UP, assign_durations, expand_tree


def naive_population(dist, generations, rng):
    """Individual-level reference implementation: O(mu^k) draws."""
    n = 1
    for _ in range(generations):
        n = int(dist.sample_z(rng, size=n).sum())
    return n


def test_fixed_pairs_deterministic():
    dist = make_offspring("fixed-pairs", b=2)
    ens = sample_W(dist, generations=6, count=50, seed=1)
    assert np.all(ens.samples == 1.0)


def test_mean_is_one():
    dist = make_offspring("geometric-pairs", p=0.5)
    ens = sample_W(dist, generations=12, count=20000, seed=7)
    assert ens.samples.mean() == pytest.approx(1.0, abs=0.02)
    assert np.all(ens.samples >= 0)


def test_variance_closed_form():
    # Var W_k = sigma^2 (1 - mu^-k)/(mu (mu - 1)) for offspring variance sigma^2
    cases = [
        (make_offspring("geometric-pairs", p=0.5), 8.0),
        (make_offspring("poisson-pairs", lam=1.0), 4.0),
    ]
    for dist, sigma2 in cases:
        k = 6
        ens = sample_W(dist, generations=k, count=30000, seed=11)
        expected = sigma2 * (1 - dist.mu ** -k) / (dist.mu * (dist.mu - 1))
        assert ens.samples.var() == pytest.approx(expected, rel=0.08)


def test_chain_matches_individual_level_law():
    dist = make_offspring("geometric-pairs", p=0.5)
    ens = sample_W(dist, generations=4, count=4000, seed=3)
    rng = np.random.default_rng(99)
    naive = np.array(
        [naive_population(dist, 4, rng) / dist.mu ** 4 for _ in range(4000)]
    )
    # same law, independent streams: a two-sample KS test should not reject
    assert stats.ks_2samp(ens.samples, naive).pvalue > 1e-3


def test_custom_chain_matches_choice_sampling():
    dist = make_offspring("custom", pmf={2: 0.3, 4: 0.5, 8: 0.2})
    ens = sample_W(dist, generations=5, count=4000, seed=5)
    rng = np.random.default_rng(21)
    naive = np.array(
        [naive_population(dist, 5, rng) / dist.mu ** 5 for _ in range(4000)]
    )
    assert stats.ks_2samp(ens.samples, naive).pvalue > 1e-3


def test_chunking_invariance():
    dist = make_offspring("poisson-pairs", lam=1.0)
    whole = sample_w_range(dist, 8, 0, 40, master_seed=17)
    parts = np.concatenate(
        [sample_w_range(dist, 8, 0, 13, 17), sample_w_range(dist, 8, 13, 40, 17)]
    )
    assert np.array_equal(whole, parts)
    assert np.array_equal(sample_W(dist, 8, 40, seed=17).samples, whole)


def test_count_precondition():
    dist = make_offspring("geometric-pairs", p=0.5)
    with pytest.raises(ConfigError):
        sample_W(dist, generations=4, count=0, seed=1)
    with pytest.raises(ConfigError):
        sample_W(dist, generations=0, count=10, seed=1)


def test_depth_overflow_keeps_headroom_above_the_mean():
    # 4^31 = 2^62 fits int64 on average, but realized populations exceed it
    dist = make_offspring("geometric-pairs", p=0.5)
    with pytest.raises(BudgetError) as err:
        sample_W(dist, 31, 2000, 0)
    assert err.value.code == "DEPTH_OVERFLOW"
    tree = expand_tree(dist, UP, 2, np.random.default_rng(0))
    with pytest.raises(BudgetError) as err:
        assign_durations(tree, dist, "sampled", np.random.default_rng(1), w_generations=33)
    assert err.value.code == "DEPTH_OVERFLOW"
    # 8^12 = 2^36, the deepest chain the suites use, stays allowed
    assert sample_W(make_offspring("geometric-pairs", p=0.25), 12, 2, 0).samples.size == 2
