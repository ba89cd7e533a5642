import numpy as np
import pytest

from cebp.errors import ConfigError
from cebp.offspring import (
    check_assumption_gw,
    check_assumption_z,
    make_offspring,
    mean_offspring_matrix,
)


def test_geometric_pairs_closed_form():
    dist = make_offspring("geometric-pairs", p=0.5)
    assert dist.mu == 4.0
    assert dist.hurst == pytest.approx(0.5)
    # pmf(2k) = 2^-k
    table = dict(zip(dist.support.tolist(), dist.probs.tolist()))
    for k in (1, 2, 3, 4):
        assert table[2 * k] == pytest.approx(2.0 ** -k, rel=1e-9)
    assert sum(table.values()) == pytest.approx(1.0, abs=1e-12)
    assert dist.pi == pytest.approx(0.5, abs=1e-9)


def test_poisson_pairs_closed_form():
    dist = make_offspring("poisson-pairs", lam=1.0)
    assert dist.mu == 4.0
    assert dist.hurst == pytest.approx(0.5)
    assert dist.support[0] == 2
    # mean of the truncated table must agree with the closed form
    assert np.dot(dist.support, dist.probs) == pytest.approx(4.0, abs=1e-9)


def test_fixed_pairs_subcritical_rejected():
    with pytest.raises(ConfigError) as err:
        make_offspring("fixed-pairs", b=1)
    assert err.value.code == "MU_NOT_SUPERCRITICAL"


def test_fixed_pairs_ok():
    dist = make_offspring("fixed-pairs", b=2)
    assert dist.mu == 4.0
    # all mass sits above the minimal count, so P(Z > 2) = 1
    assert dist.pi == 1.0
    assert dist.support.tolist() == [4] and dist.probs.tolist() == [1.0]


@pytest.mark.parametrize(
    "table",
    [
        {3: 1.0},                 # odd support
        {0: 0.5, 2: 0.5},         # entry < 2
        {2: 0.4, 4: 0.4},         # mass != 1
    ],
)
def test_invalid_custom_tables(table):
    with pytest.raises(ConfigError) as err:
        make_offspring("custom", pmf=table)
    assert err.value.code in ("INVALID_PMF", "MU_NOT_SUPERCRITICAL")


def test_custom_mu():
    dist = make_offspring("custom", pmf={2: 0.9, 4: 0.1})
    assert dist.mu == pytest.approx(2.2)
    assert check_assumption_gw(dist)["passed"]


def test_unknown_family():
    with pytest.raises(ConfigError):
        make_offspring("zeta-pairs", q=1.0)


def test_table_mean_matches_mu_across_families():
    for dist in (
        make_offspring("geometric-pairs", p=0.3),
        make_offspring("poisson-pairs", lam=2.5),
        make_offspring("fixed-pairs", b=3),
    ):
        assert np.dot(dist.support, dist.probs) == pytest.approx(dist.mu, abs=1e-8)
        assert 0.0 < dist.hurst < 1.0


def test_mean_matrix_symmetric_case():
    m = mean_offspring_matrix(4.0, 4.0)
    assert np.array_equal(m.entries, np.array([[3.0, 1.0], [1.0, 3.0]]))
    assert m.dominant_eigenvalue == 4.0
    assert m.second_eigenvalue == 2.0
    assert np.allclose(m.left_eigenvector, [0.5, 0.5], atol=1e-12)


def test_mean_matrix_right_eigenvector():
    m = mean_offspring_matrix(6.0, 4.0)
    assert np.allclose(m.right_eigenvector, [4.0 / 3.0, 2.0 / 3.0], atol=1e-12)


def test_mean_matrix_against_numpy_eig():
    rng = np.random.default_rng(4)
    for _ in range(50):
        mp, mm = rng.uniform(2.01, 40.0, size=2)
        m = mean_offspring_matrix(mp, mm)
        vals = np.sort(np.linalg.eigvals(m.entries).real)
        assert vals[-1] == pytest.approx(m.dominant_eigenvalue, rel=1e-10)
        assert vals[0] == pytest.approx(2.0, rel=1e-10)
        # row sums are the per-type means
        assert np.allclose(m.entries.sum(axis=1), [mp, mm], atol=1e-12)
        # (1/2, 1/2) is a left eigenvector for the dominant eigenvalue
        lhs = m.left_eigenvector @ m.entries
        assert np.allclose(lhs, m.dominant_eigenvalue * m.left_eigenvector, atol=1e-12)
        rhs = m.entries @ m.right_eigenvector
        assert np.allclose(rhs, m.dominant_eigenvalue * m.right_eigenvector, atol=1e-10)


def test_mean_matrix_rejects_subcritical():
    with pytest.raises(ConfigError):
        mean_offspring_matrix(2.0, 4.0)


def test_gw_check_reports():
    rep = check_assumption_gw(make_offspring("geometric-pairs", p=0.5))
    assert rep["passed"]
    assert rep["z_log_z"] > 0
    rep = check_assumption_gw(make_offspring("fixed-pairs", b=2))
    assert rep["passed"]
    assert rep["z_log_z"] == pytest.approx(4 * np.log(4))


def test_dominance_uniform_24():
    dist = make_offspring("custom", pmf={2: 0.5, 4: 0.5})
    res = check_assumption_z(dist)
    assert res.zeta == 0
    assert res.passed
    assert res.violations == []


def test_dominance_geometric_is_memoryless():
    dist = make_offspring("geometric-pairs", p=0.5)
    res = check_assumption_z(dist, zeta_max=0)
    assert res.zeta == 0


def test_dominance_bounded_fallback():
    rng = np.random.default_rng(9)
    for _ in range(20):
        size = rng.integers(2, 6)
        support = 2 * np.sort(rng.choice(np.arange(1, 12), size=size, replace=False))
        probs = rng.dirichlet(np.ones(size))
        mu = float(np.dot(support, probs))
        if mu <= 2.0:
            continue
        dist = make_offspring("custom", pmf=dict(zip(support.tolist(), probs.tolist())))
        z_top = int(dist.support[-1])
        res = check_assumption_z(dist, zeta_max=z_top - 2)
        # zeta = z_top - 2 always suffices for a bounded table
        assert res.zeta is not None and res.zeta <= z_top - 2
        # monotonicity: anything at or above the minimal zeta passes too
        if res.zeta < z_top - 2:
            again = check_assumption_z(dist, zeta_max=res.zeta + 1)
            assert again.zeta == res.zeta


def test_dominance_violation_reported():
    # P(Z - 2 > 2 | Z > 2) = 1 but P(Z > 2) = 0.1, so zeta = 0 must fail at y = 2
    dist = make_offspring("custom", pmf={2: 0.9, 10: 0.1})
    res = check_assumption_z(dist, zeta_max=0)
    assert res.zeta is None
    assert (2, 2) in res.violations
    # and a large enough offset rescues it
    res = check_assumption_z(dist)
    assert res.zeta is not None and res.zeta > 0
