"""End-to-end acceptance gate: one test per shipped guarantee.

Each test pins a concrete scale, tolerance, and wall-clock budget and
asserts all three, so a plain ``pytest -v`` run prints one pass/fail line
per guarantee.  Measured numbers are printed as the tests run; use ``-s``
(or read the captured output on failure) to see them.

The heavy statistical checks reuse the library verification suites at
their default full scale; the structural checks (round trip, eigenstructure,
dominance scan, determinism) are materialized directly here.
"""

import time

import numpy as np
import pytest

from cebp.cli import main as cli_main
from cebp.extract import (
    estimate_hurst,
    extract_crossing_forest,
    forest_matches_tree,
    subcrossing_pmf,
)
from cebp.holder import holder_histogram
from cebp.modulus import brute_force_modulus, oscillation_table
from cebp.offspring import check_assumption_z, make_offspring, mean_offspring_matrix
from cebp.paths import SamplePath, SimulationConfig, simulate
from cebp.verify import (
    verify_increments,
    verify_modulus,
    verify_remaining_time,
    verify_scale_invariance,
    verify_w_tail,
)

pytestmark = pytest.mark.slow

GEOM_HALF = {"family": "geometric-pairs", "p": 0.5}
GEOM_THIRD = {"family": "geometric-pairs", "p": 0.25}


def _finish(label, t0, budget, detail):
    elapsed = time.perf_counter() - t0
    print(f"{label}: {detail} [{elapsed:.1f}s / budget {budget:.0f}s]")
    assert elapsed < budget, f"{label} took {elapsed:.1f}s, budget {budget:.0f}s"


def test_criterion_01_round_trip_extraction():
    """Extracted forests reproduce the generating trees exactly.

    100 seeds x 3 families at depth 10: counts, orientations, and
    subcrossing counts must match exactly, passage times within 1e-9.
    """
    t0 = time.perf_counter()
    families = (
        {"family": "fixed-pairs", "b": 2},
        {"family": "geometric-pairs", "p": 0.5},
        {"family": "poisson-pairs", "lam": 1.0},
    )
    checked = 0
    for spec in families:
        for seed in range(100):
            # populations fluctuate a few-fold around mu**depth, so one tree
            # in 300 can top the default node guard; give the oracle headroom
            path = simulate(SimulationConfig(
                offspring=spec, depth=10, seed=seed, node_budget=100_000_000,
            ))
            tree = path.trees[0]
            forest = extract_crossing_forest(path, (-10, 0))
            mismatch = forest_matches_tree(forest, tree)
            assert mismatch is None, f"{spec} seed {seed}: {mismatch}"
            checked += 1
    _finish("criterion 1", t0, 120.0, f"{checked} forests match their trees")


def _tv_vs_geometric(pmf):
    """Total variation distance to the halved-geometric law p(2k) = 2**-k."""
    tv = 0.0
    covered = 0.0
    for z, p in pmf.items():
        q = 2.0 ** -(z // 2) if z % 2 == 0 else 0.0
        tv += abs(p - q)
        covered += q
    tv += 1.0 - covered
    return 0.5 * tv


def test_criterion_02_brownian_special_case():
    """A simple random walk and the matching CEBP look Brownian.

    Both must show subcrossing counts within TV 0.05 of p(2k) = 2**-k and
    an estimated Hurst index of 0.50 +- 0.02.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(np.random.SeedSequence(20260823))
    steps = rng.choice(np.array([-1.0, 1.0]), size=10_000_000)
    values = np.concatenate([[0.0], np.cumsum(steps)])
    walk = SamplePath(
        times=np.arange(values.size, dtype=np.float64),
        values=values,
        resolution_level=0,
        hurst=None,
        mu=None,
        origin="ingested",
    )
    cebp = simulate(SimulationConfig(offspring=GEOM_HALF, depth=10, seed=1))
    results = []
    for label, path, level_range in (
        ("walk", walk, (0, 11)),
        ("cebp", cebp, (-10, 0)),
    ):
        forest = extract_crossing_forest(path, level_range)
        tv = _tv_vs_geometric(subcrossing_pmf(forest))
        hurst = estimate_hurst(forest)["hurst_hat"]
        assert tv < 0.05, f"{label}: TV {tv:.4f}"
        assert abs(hurst - 0.50) <= 0.02, f"{label}: hurst {hurst:.4f}"
        results.append(f"{label} TV {tv:.4f} hurst {hurst:.4f}")
    _finish("criterion 2", t0, 180.0, "; ".join(results))


def test_criterion_03_w_left_tail():
    """log(-log P(W < x)) is linear in log x with slope -H/(1-H).

    One million W samples per family (12 aggregation generations), slope
    within 15% relative and r^2 >= 0.97, under two minutes per family.
    """
    details = []
    for spec in (GEOM_HALF, GEOM_THIRD):
        t0 = time.perf_counter()
        report = verify_w_tail(families=[spec])
        fam = report["families"][0]
        assert fam["n_samples"] == 1_000_000
        assert fam["relative_error"] <= 0.15, fam
        assert fam["r_squared"] >= 0.97, fam
        assert report["pass"]
        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0, f"{fam['family']} took {elapsed:.1f}s"
        details.append(
            f"{fam['family']} slope {fam['slope']:.3f} (target {fam['target']:.3f}) "
            f"r2 {fam['r_squared']:.4f} {elapsed:.1f}s"
        )
    print("criterion 3:", "; ".join(details), "[budget 120s each]")


def test_criterion_04_increment_tail():
    """Sup-increment tail exponent is H/(1-H) = 1 with an intact sandwich.

    Ensemble of 1e5 paths; fitted exponent within 15% and the plain
    increment tail never exceeds the sup tail at any grid point.
    """
    t0 = time.perf_counter()
    report = verify_increments()
    assert report["config"]["n_records"] == 100_000
    assert report["relative_error"] <= 0.15, report["slope"]
    assert report["sandwich_violations"] == 0
    assert report["pass"]
    _finish(
        "criterion 4", t0, 300.0,
        f"slope {report['slope']:.4f} (target {report['target']:.0f}) "
        f"r2 {report['r_squared']:.4f} sandwich violations 0",
    )


def test_criterion_05_remaining_time_tail():
    """Remaining-time chord slope is -1 within 20% in sampled mode.

    1e5 query records at crossing level -6 over sampled-duration paths.
    """
    t0 = time.perf_counter()
    report = verify_remaining_time()
    assert report["config"]["level"] == -6
    assert report["n_records"] == 100_000
    assert report["target"] == -1.0
    assert abs(report["slope"] - report["target"]) <= 0.2, report["slope"]
    assert report["pass"]
    _finish(
        "criterion 5", t0, 300.0,
        f"slope {report['slope']:.4f} r2 {report['r_squared']:.3f} "
        f"interior fraction {report['interior_fraction']:.2f}",
    )


def test_criterion_06_modulus_band():
    """Normalized modulus ratios sit in a stable positive band.

    50-seed ensemble means of the block-chaining sup over h(delta) at
    dyadic levels 4..12, for effective depth-16 paths at H = 1/2 and 1/3:
    band [a, b] with a > 0 and b <= 10 a, and the half-range bands agree
    within 25%.  The chaining statistic itself is cross-checked against
    the exact all-pairs sup on small paths, within a factor 3.
    """
    t0 = time.perf_counter()
    report = verify_modulus()
    details = []
    for fam in report["families"]:
        a, b = fam["band"]
        assert a > 0
        assert b <= 10.0 * a, fam["band_ratio"]
        first, second = fam["halves"]["first"], fam["halves"]["second"]
        for p, q in zip(first, second):
            assert abs(p - q) <= 0.25 * 0.5 * (abs(p) + abs(q)), fam["halves"]
        assert fam["pass"]
        details.append(
            f"H={fam['hurst']:.3g} band [{a:.3f}, {b:.3f}] ratio {fam['band_ratio']:.3f}"
        )

    # exact cross-check on paths small enough for the all-pairs sup
    for spec, depth in ((GEOM_HALF, 6), (GEOM_THIRD, 4)):
        path = simulate(SimulationConfig(
            offspring=spec, depth=depth, duration_mode="sampled",
            seed=0, keep_trees=False,
        ))
        assert path.n_knots <= 2 ** 12
        for l in (3, 4, 5, 6):
            delta = 2.0 ** -l
            chain = oscillation_table(path, delta).chaining_sup
            exact = brute_force_modulus(path, delta)
            ratio = chain / exact
            assert 1.0 / 3.0 <= ratio <= 3.0, (spec, l, ratio)
    _finish("criterion 6", t0, 600.0, "; ".join(details) + "; brute-force ok")


def test_criterion_07_monofractal_exponents():
    """Local exponents concentrate on H and sharpen as eps deepens.

    Depth-16 H = 1/2 path, 1000-point grid: mean local exponent within
    0.05 of 0.5 for both eps ranges, strictly smaller spread on the deeper
    range, and a ramp control measures exactly 1.
    """
    t0 = time.perf_counter()
    path = simulate(SimulationConfig(
        offspring=GEOM_HALF, depth=10, duration_mode="sampled",
        w_generations=6, root_mode="tile", target_horizon=1.0,
        seed=(0, 0x4D, 7, 0), keep_trees=False, node_budget=60_000_000,
    ))
    shallow, deep = ({"mean": v.mean(), "std": v.std(ddof=1)} for v in (
        holder_histogram(path, n_grid=1000, eps_levels=range(4, 9)).valid,
        holder_histogram(path, n_grid=1000, eps_levels=range(6, 13)).valid))
    assert abs(shallow["mean"] - 0.5) <= 0.05, shallow
    assert abs(deep["mean"] - 0.5) <= 0.05, deep
    assert deep["std"] < shallow["std"], (shallow["std"], deep["std"])

    knots = np.linspace(0.0, 1.0, 4097)
    ramp = SamplePath(times=knots, values=knots.copy(), resolution_level=-12,
                      hurst=None, mu=None)
    for eps_levels in (range(4, 9), range(6, 13)):
        est = holder_histogram(ramp, n_grid=1000, eps_levels=eps_levels)
        assert est.valid.size == 1000
        assert np.max(np.abs(est.valid - 1.0)) < 1e-6
    _finish(
        "criterion 7", t0, 300.0,
        f"mean {shallow['mean']:.4f}->{deep['mean']:.4f} "
        f"std {shallow['std']:.4f}->{deep['std']:.4f}, ramp exact",
    )


def test_criterion_08_duration_scale_invariance():
    """Scaled durations mu**-n D^n collapse across adjacent levels.

    KS distance below 0.03 with at least 1e4 crossings per level; the
    doubled-mu control must exceed 0.1.
    """
    t0 = time.perf_counter()
    report = verify_scale_invariance()
    assert report["max_ks"] < 0.03, report["max_ks"]
    for pair in report["pairs"]:
        assert pair["n_lower"] >= 10_000 and pair["n_upper"] >= 10_000, pair
    assert report["control_ks"] > 0.1, report["control_ks"]
    assert report["pass"]
    _finish(
        "criterion 8", t0, 120.0,
        f"max KS {report['max_ks']:.4f} control KS {report['control_ks']:.3f} "
        f"counts {[ (p['n_lower'], p['n_upper']) for p in report['pairs'] ]}",
    )


def test_criterion_09_mean_matrix_eigenstructure():
    """Closed-form mean matrix agrees with numerical linear algebra.

    The (4, 4) case is checked against exact values to 1e-12; a thousand
    random supercritical pairs validate row sums, both eigenvalues, and
    both eigenvectors against numpy's eig.
    """
    t0 = time.perf_counter()
    m = mean_offspring_matrix(4.0, 4.0)
    assert np.allclose(m.entries, [[3.0, 1.0], [1.0, 3.0]], rtol=0, atol=1e-12)
    eigvals = np.sort(np.linalg.eigvals(m.entries).real)
    assert np.allclose(eigvals, [2.0, 4.0], rtol=0, atol=1e-12)
    assert m.dominant_eigenvalue == 4.0 and m.second_eigenvalue == 2.0
    assert np.allclose(m.left_eigenvector, [0.5, 0.5], rtol=0, atol=1e-12)

    rng = np.random.default_rng(99)
    for _ in range(1000):
        mu_plus, mu_minus = rng.uniform(2.1, 10.0, size=2)
        mm = mean_offspring_matrix(mu_plus, mu_minus)
        assert np.allclose(mm.entries.sum(axis=1), [mu_plus, mu_minus],
                           rtol=0, atol=1e-12)
        w = np.linalg.eigvals(mm.entries)
        assert np.max(np.abs(w.imag)) < 1e-12
        assert np.allclose(
            np.sort(w.real), np.sort([2.0, mm.dominant_eigenvalue]),
            rtol=0, atol=1e-12,
        )
        assert np.allclose(mm.left_eigenvector @ mm.entries,
                           mm.dominant_eigenvalue * mm.left_eigenvector,
                           rtol=0, atol=1e-12)
        assert np.allclose(mm.entries @ mm.right_eigenvector,
                           mm.dominant_eigenvalue * mm.right_eigenvector,
                           rtol=0, atol=1e-12)
    _finish("criterion 9", t0, 1.0, "closed forms match eig on 1000 random cases")


def test_criterion_10_dominance_checker():
    """The residual-count dominance scan reports the right shift.

    uniform{2,4} needs no shift; any bounded pmf passes once the shift
    reaches z_max - 2; a planted heavy-top pmf is flagged at shift 0 with
    the first violation at (y, z) = (2, 2).  Violations at shift 0 never
    occur at y = 1, where the condition is vacuous.
    """
    t0 = time.perf_counter()
    uniform = make_offspring("custom", pmf={2: 0.5, 4: 0.5})
    assert check_assumption_z(uniform).zeta == 0

    rng = np.random.default_rng(7)
    for _ in range(50):
        z_max = 2 * int(rng.integers(2, 9))
        support = np.arange(2, z_max + 1, 2)
        weights = rng.random(support.size) + 0.05
        pmf = {int(z): float(p) for z, p in zip(support, weights / weights.sum())}
        dist = make_offspring("custom", pmf=pmf)
        capped = check_assumption_z(dist, zeta_max=z_max - 2)
        assert capped.passed and capped.zeta <= z_max - 2, (pmf, capped)
        at_zero = check_assumption_z(dist, zeta_max=0)
        assert all(y != 1 for y, _ in at_zero.violations), at_zero.violations

    planted = check_assumption_z(
        make_offspring("custom", pmf={2: 0.9, 10: 0.1}), zeta_max=0,
    )
    assert not planted.passed
    assert (2, 2) in [(int(y), int(z)) for y, z in planted.violations]
    _finish("criterion 10", t0, 1.0,
            f"uniform zeta 0; planted violations {planted.violations[:3]}")


def _run_cli(argv):
    try:
        return cli_main(argv)
    except SystemExit as exc:
        return int(exc.code or 0)


def test_criterion_11_artifacts_identical_across_workers(tmp_path):
    """The same seed yields byte-identical artifacts for 1, 4, 8 workers."""
    t0 = time.perf_counter()
    blobs = []
    for workers in (1, 4, 8):
        out = tmp_path / f"wtail_{workers}.json"
        code = _run_cli([
            "verify", "w-tail", "--family", "geometric-pairs", "--p", "0.25",
            "--samples", "20000", "--seed", "2",
            "--workers", str(workers), "--out", str(out),
        ])
        assert code == 0, code
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]
    _finish("criterion 11", t0, 60.0,
            f"3 artifacts, {len(blobs[0])} bytes each, byte-identical")
