import numpy as np
import pytest
from scipy import stats

from cebp.errors import BudgetError, ConfigError
from cebp.offspring import (
    MAX_TABLE_COUNT,
    DominanceCheckResult,
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


@pytest.mark.parametrize("lam", np.geomspace(0.1, 20.0, 60).tolist())
def test_poisson_pairs_table_matches_scipy(lam):
    dist = make_offspring("poisson-pairs", lam=lam)
    j = np.arange(int(stats.poisson.isf(1e-12, lam)) + 3)     # support cut at isf + 2
    np.testing.assert_array_equal(dist.support, 2 * (1 + j))
    want = stats.poisson.pmf(j, lam)
    np.testing.assert_allclose(dist.probs, want / want.sum(), rtol=1e-12, atol=0)


@pytest.mark.parametrize("lam", [0.0, -1.0, float("nan"), float("inf")])
def test_poisson_pairs_needs_finite_positive_lambda(lam):
    with pytest.raises(ConfigError) as err:
        make_offspring("poisson-pairs", lam=lam)
    assert err.value.code == "INVALID_PMF"


@pytest.mark.parametrize("family, params", [
    ("geometric-pairs", {"p": 1e-15}), ("geometric-pairs", {"p": 5e-324}),
    ("poisson-pairs", {"lam": 1e300}), ("poisson-pairs", {"lam": 1.7e308}),
])
def test_table_past_the_budget_refused_before_it_is_built(family, params):
    with pytest.raises(BudgetError) as err:
        make_offspring(family, **params)
    assert err.value.code == "TABLE_BUDGET_EXCEEDED"


@pytest.mark.parametrize("family, params", [
    ("geometric-pairs", {"p": 0.0017}), ("poisson-pairs", {"lam": 14000.0}),
])
def test_table_under_the_budget_builds(family, params):
    assert make_offspring(family, **params).support[-1] <= MAX_TABLE_COUNT


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
        {2: float("nan"), 4: 1.0},
        {2: float("inf"), 4: 1.0},
        {2: 0.5, 2 ** 63: 0.5},   # past int64
        {2: 0.5, 2 ** 70: 0.5},
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


def test_dominance_scan_past_the_budget_refused():
    # the scan would first allocate arrays over 0..z_top, then take z_top^2 steps
    dist = make_offspring("custom", pmf={MAX_TABLE_COUNT + 2: 1.0})
    with pytest.raises(BudgetError) as err:
        check_assumption_z(dist)
    assert err.value.code == "TABLE_BUDGET_EXCEEDED"


def test_dominance_violation_reported():
    # P(Z - 2 > 2 | Z > 2) = 1 but P(Z > 2) = 0.1, so zeta = 0 must fail at y = 2
    dist = make_offspring("custom", pmf={2: 0.9, 10: 0.1})
    res = check_assumption_z(dist, zeta_max=0)
    assert res.zeta is None
    assert (2, 2) in res.violations
    # and a large enough offset rescues it
    res = check_assumption_z(dist)
    assert res.zeta is not None and res.zeta > 0


def reference_check_assumption_z(dist, zeta_max=None, y_max=None):
    """The zeta-by-zeta scan check_assumption_z replaced, kept as its reference: z_top^3 time."""
    z_top = int(dist.support[-1])
    if y_max is None:
        y_max = z_top - 1
    if zeta_max is None:
        zeta_max = z_top - 2
    if y_max < 1 or zeta_max < 0:
        raise ConfigError("INVALID_CONFIG", "need y_max >= 1 and zeta_max >= 0")

    # survival S[t] = P(Z > t) for t = 0 .. z_top
    pmf = np.zeros(z_top + 1)
    pmf[dist.support] = dist.probs
    S = np.concatenate([1.0 - np.cumsum(pmf), [0.0]])[: z_top + 1]

    def surv(t):
        t = np.asarray(t)
        out = np.ones(t.shape, dtype=np.float64)
        out[t >= z_top] = 0.0
        mid = (t >= 0) & (t < z_top)
        out[mid] = S[t[mid]]
        return out

    zs = np.arange(0, z_top + 1)
    ys = [y for y in range(0, y_max + 1) if surv(np.array([y]))[0] > 0]
    failures_at_max = []
    for zeta in range(0, zeta_max + 1):
        rhs = surv(zs - zeta)
        bad = []
        for y in ys:
            lhs = surv(zs + y) / surv(np.array([y]))[0]
            viol = np.nonzero(lhs > rhs + 1e-12)[0]
            bad.extend((y, int(zs[i])) for i in viol)
        if not bad:
            return DominanceCheckResult(
                zeta=zeta, checked_y_range=(0, y_max), violations=[]
            )
        failures_at_max = bad
    return DominanceCheckResult(
        zeta=None, checked_y_range=(0, y_max), violations=failures_at_max
    )


def _random_custom_tables(n, seed=12):
    rng = np.random.default_rng(seed)
    tables = []
    while len(tables) < n:
        size = int(rng.integers(1, 7))
        support = 2 * np.sort(rng.choice(np.arange(1, 13), size=size, replace=False))
        probs = rng.dirichlet(np.ones(size) * rng.choice([0.2, 1.0, 5.0]))
        if np.dot(support, probs) > 2.0:
            tables.append(dict(zip(support.tolist(), probs.tolist())))
    return tables


STOCK_LAWS = [
    ("geometric-pairs", {"p": 0.5}), ("geometric-pairs", {"p": 0.25}),
    ("poisson-pairs", {"lam": 1.0}), ("poisson-pairs", {"lam": 0.5}),
    ("fixed-pairs", {"b": 2}), ("fixed-pairs", {"b": 3}),
    ("custom", {"pmf": {2: 0.5, 4: 0.5}}), ("custom", {"pmf": {2: 0.9, 10: 0.1}}),
    ("custom", {"pmf": {2: 0.3, 6: 0.7}}),
    # a top probability below the rounding of P(Z > t) near 1
    ("custom", {"pmf": {2: 0.3, 6: 0.7 - 1e-17, 12: 1e-17}}),
] + [("custom", {"pmf": table}) for table in _random_custom_tables(200)]

SCAN_LIMITS = [(None, None), (0, None), (3, None), (None, 5), (0, 3)]


@pytest.mark.parametrize("family, params", STOCK_LAWS)
def test_dominance_equals_the_reference_scan(family, params):
    dist = make_offspring(family, **params)
    for zeta_max, y_max in SCAN_LIMITS:
        got = check_assumption_z(dist, zeta_max=zeta_max, y_max=y_max)
        want = reference_check_assumption_z(dist, zeta_max=zeta_max, y_max=y_max)
        assert (got.zeta, got.violations, got.checked_y_range) == \
               (want.zeta, want.violations, want.checked_y_range)


@pytest.mark.slow
def test_dominance_needing_a_large_shift_at_the_table_budget():
    # the reference scan would try 32,765 shifts of a quadratic pass each
    dist = make_offspring("custom", pmf={2: 0.5, MAX_TABLE_COUNT: 0.5})
    assert check_assumption_z(dist).zeta == MAX_TABLE_COUNT - 4


def test_dominance_scan_stops_where_the_table_does():
    # conditioning on Z > y is vacuous from y = z_top on, so y_max costs nothing
    res = check_assumption_z(make_offspring("fixed-pairs", b=2), y_max=10 ** 8)
    assert (res.zeta, res.checked_y_range, res.violations) == (0, (0, 10 ** 8), [])
