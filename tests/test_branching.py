import json
import os
import threading

import numpy as np
import pytest
from scipy import stats
from scipy.special import logsumexp

from cebp.branching import W_BLOCK, sample_W, sample_w_range, w_chain
from cebp.errors import BudgetError, ConfigError
from cebp.offspring import make_offspring
from cebp.rng import STREAM_DURATION, substream
from cebp.tree import LEAF_BLOCK, UP, assign_durations, expand_tree
from cebp.verify import verify_w_tail


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
    dist, B = make_offspring("poisson-pairs", lam=1.0), W_BLOCK
    whole = sample_w_range(dist, 8, 0, 40, master_seed=17)
    parts = np.concatenate(
        [sample_w_range(dist, 8, 0, 13, 17), sample_w_range(dist, 8, 13, 40, 17)]
    )
    assert np.array_equal(whole, parts)
    assert np.array_equal(sample_W(dist, 8, 40, seed=17).samples, whole)
    # splits that straddle block boundaries
    whole = sample_w_range(dist, 8, 0, 3 * B + 7, 17)
    bounds = [0, B - 1, B + 1, 3 * B + 7]
    parts = [sample_w_range(dist, 8, lo, hi, 17) for lo, hi in zip(bounds[:-1], bounds[1:])]
    assert [p.size for p in parts] == [B - 1, 2, 2 * B + 6]
    assert np.array_equal(np.concatenate(parts), whole)
    for lo in (5, B):
        empty = sample_w_range(dist, 8, lo, lo, 17)
        assert empty.size == 0 and empty.dtype == np.float64
    # a sample does not depend on how many are drawn
    assert np.array_equal(sample_W(dist, 8, B + 3, seed=17).samples, whole[:B + 3])
    # blocks are independent draws, not copies of block 0
    assert not np.array_equal(whole[:B], whole[B:2 * B])


def test_w_tail_report_is_worker_invariant_across_blocks():
    a = verify_w_tail(n_samples=2 * W_BLOCK + 5, seed=2)
    b = verify_w_tail(n_samples=2 * W_BLOCK + 5, seed=2, workers=3)
    assert json.dumps(a) == json.dumps(b)


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
        assign_durations(tree, dist, (1,), 33)
    assert err.value.code == "DEPTH_OVERFLOW"
    # 8^12 = 2^36, the deepest chain the suites use, stays allowed
    assert sample_W(make_offspring("geometric-pairs", p=0.25), 12, 2, 0).samples.size == 2


HALF = make_offspring("geometric-pairs", p=0.5)


def blocked_root(dist, k, seed=0):
    """A depth-8 root, 54,656 leaves at p = 1/2 (4 LEAF_BLOCKs, the last partial), and its key."""
    tree = expand_tree(dist, UP, 8, np.random.default_rng(5))
    key = (seed, STREAM_DURATION, 0)
    return assign_durations(tree, dist, key, k), key


def test_leaf_durations_are_w_chains_over_keyed_blocks():
    tree, key = blocked_root(HALF, 6)
    n = tree.orientations[-1].size
    assert n // LEAF_BLOCK == 3 and n % LEAF_BLOCK
    reference = [w_chain(HALF, substream(*key, b), np.ones(min(LEAF_BLOCK, n - lo), dtype=np.int64), 6)
                 for b, lo in enumerate(range(0, n, LEAF_BLOCK))]
    assert np.array_equal(tree.leaf_durations, HALF.mu ** -8 * np.concatenate(reference))


def test_leaf_durations_do_not_depend_on_the_thread_count(monkeypatch):
    threaded = blocked_root(HALF, 6)[0].leaf_durations
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert np.array_equal(blocked_root(HALF, 6)[0].leaf_durations, threaded)


def test_depth_overflow_is_raised_before_a_thread_starts(monkeypatch):
    def no_thread(self):
        raise AssertionError("a thread started")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    with pytest.raises(BudgetError) as err:
        blocked_root(HALF, 33)
    assert err.value.code == "DEPTH_OVERFLOW"


# Exact-law oracle: E exp(-lam W_k) = f^(k)(exp(-lam / mu^k)), f the pgf of Z.
LAMBDAS = 2.0 ** np.arange(-2, 6)        # 0.25 ... 32
ORACLE_SAMPLES = 20_000


def w_k_transform(dist, lam, k):
    """E exp(-lam W_k), iterating log f(e^u) = logsumexp(log p_z + z u) over the pmf table.

    Log space keeps large lam from underflowing; the table drops < 1e-12 of mass.
    """
    log_p = np.log(dist.probs)
    u = -np.asarray(lam, dtype=float) / dist.mu ** k
    for _ in range(k):
        u = logsumexp(log_p + np.multiply.outer(u, dist.support), axis=-1)
    return np.exp(u)


def transform_z(samples, phi, phi_twice):
    """(empirical transform, its exact standard error) at LAMBDAS.

    Var exp(-lam W) = E exp(-2 lam W) - phi^2, so the oracle gives the error too.
    """
    empirical = np.exp(-np.multiply.outer(LAMBDAS, samples)).mean(axis=1)
    se = np.sqrt(np.maximum(phi_twice - phi ** 2, 0.0) / samples.size)
    return empirical, se


def sampled_w(dist, k, seed):
    return sample_W(dist, k, ORACLE_SAMPLES, seed).samples


def leaf_w(dist, k, seed):
    """W_k as the leaf durations of ``blocked_root`` times mu^depth, across its block seams."""
    tree = blocked_root(dist, k, seed)[0]
    return tree.leaf_durations * dist.mu ** tree.depth


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("spec, draw", [
    ({"family": "geometric-pairs", "p": 0.25}, sampled_w),
    ({"family": "poisson-pairs", "lam": 1.0}, sampled_w),
    ({"family": "fixed-pairs", "b": 2}, sampled_w),
    ({"family": "custom", "pmf": {2: 0.5, 4: 0.3, 8: 0.2}}, sampled_w),
    ({"family": "geometric-pairs", "p": 0.5}, leaf_w),
], ids=["geometric", "poisson", "fixed", "custom", "leaves-p0.5"])
def test_w_k_matches_its_exact_laplace_transform(spec, draw, seed):
    dist, k = make_offspring(**spec), 10
    samples = draw(dist, k, seed)
    phi = w_k_transform(dist, LAMBDAS, k)
    empirical, se = transform_z(samples, phi, w_k_transform(dist, 2 * LAMBDAS, k))
    # |z| <= 5; fixed-pairs has W_k == 1 and a standard error of 0
    assert np.all(np.abs(empirical - phi) <= 5 * se + 1e-12)


def test_fixed_pairs_transform_is_exp():
    phi = w_k_transform(make_offspring("fixed-pairs", b=2), LAMBDAS, 10)
    assert np.allclose(phi, np.exp(-LAMBDAS), rtol=0, atol=1e-12)


def brownian_exit_transform(lam):
    """E exp(-lam T) for T the exit time of Brownian motion from (-1, 1)."""
    return 1.0 / np.cosh(np.sqrt(2.0 * lam))


@pytest.mark.parametrize("p, within", [(0.5, True), (0.25, False)], ids=["p0.5", "control-p0.25"])
def test_w_at_p_half_is_the_brownian_exit_time(p, within):
    # the p = 1/4 law must be told apart from the Brownian one
    samples = sample_W(make_offspring("geometric-pairs", p=p), 12, ORACLE_SAMPLES, 4).samples
    phi = brownian_exit_transform(LAMBDAS)
    empirical, se = transform_z(samples, phi, brownian_exit_transform(2 * LAMBDAS))
    assert (np.max(np.abs(empirical - phi) / se) <= 5) == within


# Left-tail exponent without Monte Carlo: -log E exp(-lam W) ~ c lam^H as lam -> oo
# (de Bruijn's Tauberian theorem, the Boettcher case: every Z >= 2).
TAIL_LAMBDAS = np.logspace(2, 5, 13)


def transform_tail_slope(dist, k=12):
    """Slope of log(-log phi(lam)) on log lam over TAIL_LAMBDAS, phi the exact W_k transform."""
    phi = w_k_transform(dist, TAIL_LAMBDAS, k)
    return np.polyfit(np.log(TAIL_LAMBDAS), np.log(-np.log(phi)), 1)[0]


SPECS_WITH_KNOWN_H = [
    {"family": "geometric-pairs", "p": 0.5},
    {"family": "geometric-pairs", "p": 0.25},
    {"family": "poisson-pairs", "lam": 1.0},
    {"family": "custom", "pmf": {2: 0.5, 4: 0.3, 8: 0.2}},
]


@pytest.mark.parametrize("spec", SPECS_WITH_KNOWN_H,
                         ids=["geometric-p0.5", "geometric-p0.25", "poisson", "custom"])
def test_transform_left_tail_exponent_is_hurst(spec):
    dist = make_offspring(**spec)
    assert abs(transform_tail_slope(dist) - dist.hurst) <= 0.03


def test_transform_left_tail_exponent_control():
    # the p = 1/4 law (H = 1/3) held to H = 1/2 must fail
    assert abs(transform_tail_slope(make_offspring("geometric-pairs", p=0.25)) - 0.5) > 0.03
