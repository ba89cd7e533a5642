"""Tests for the verification suites at reduced scale."""

import json

import pytest

from cebp import verify as V
from cebp.errors import BudgetError

GEOM_HALF = {"family": "geometric-pairs", "p": 0.5}
GEOM_THIRD = {"family": "geometric-pairs", "p": 0.25}


def test_assumptions_suite_stock_families():
    report = V.verify_assumptions()
    assert report["suite"] == "assumptions"
    assert report["pass"] is True
    by_family = {r["family"]: r for r in report["families"]}
    assert by_family["geometric-pairs(p=0.5)"]["hurst"] == pytest.approx(0.5)
    assert by_family["geometric-pairs(p=0.25)"]["hurst"] == pytest.approx(1 / 3)
    assert all(r["supercritical"] for r in report["families"])
    assert all(r["z_log_z"] > 0 for r in report["families"])


def test_assumptions_suite_reports_dominance_shift():
    # this pmf violates dominance at shift 0 but recovers at a larger shift,
    # so the suite passes while surfacing both facts
    report = V.verify_assumptions(
        families=[{"family": "custom", "pmf": {2: 0.9, 10: 0.1}}]
    )
    fam = report["families"][0]
    assert fam["zero_shift_violations"] > 0
    assert fam["dominance_zeta"] > 0
    assert report["pass"] is True


def test_w_tail_suite_small_scale():
    report = V.verify_w_tail(families=[GEOM_THIRD], n_samples=30_000, seed=3)
    assert report["suite"] == "w-tail"
    fam = report["families"][0]
    assert fam["target"] == pytest.approx(-0.5)
    assert fam["pass"] is True
    assert report["pass"] is True


def test_w_tail_worker_invariance():
    a = V.verify_w_tail(families=[GEOM_THIRD], n_samples=4_000, seed=5)
    b = V.verify_w_tail(families=[GEOM_THIRD], n_samples=4_000, seed=5, workers=2)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_scale_invariance_suite():
    report = V.verify_scale_invariance(
        depth=8, levels=(-7, -6), min_crossings=2_000, seed=1
    )
    assert report["pass"] is True
    assert report["max_ks"] < 0.03
    assert report["control_ks"] > 0.1
    assert report["control_mu"] == pytest.approx(8.0)


def test_remaining_time_suite_small():
    report = V.verify_remaining_time(
        depth=8, level=-5, n_paths=2, queries_per_path=2_000, seed=1, tol=0.3
    )
    assert report["suite"] == "remaining-time"
    assert report["pass"] is True
    assert report["n_records"] > 3_500
    assert report["interior_fraction"] > 0.9


def test_remaining_time_worker_invariance():
    kw = dict(depth=7, level=-4, n_paths=2, queries_per_path=500, seed=2, tol=1.0)
    a = V.verify_remaining_time(**kw)
    b = V.verify_remaining_time(workers=2, **kw)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_modulus_suite_small():
    specs = ({"family": GEOM_HALF, "depth": 8, "w_generations": 4},)
    report = V.verify_modulus(specs=specs, n_seeds=4, l_range=(3, 7), seed=1)
    fam = report["families"][0]
    assert fam["band"][0] > 0
    assert fam["band_ratio"] < 10.0
    assert len(fam["per_level_mean"]) == 5


def test_increments_suite_small():
    report = V.verify_increments(n_records=600, depth=5, seed=4, tol=0.5)
    assert report["suite"] == "increments"
    assert report["sandwich_violations"] == 0
    assert len(report["curve"]["abscissa"]) == len(report["curve"]["p_sup"])


def test_run_suite_dispatch():
    with pytest.raises(KeyError):
        V.run_suite("nope")
    report = V.run_suite("assumptions")
    assert report["suite"] == "assumptions"
    report = V.run_suite(
        "scale-invariance", seed=1, depth=8, levels=(-7, -6), min_crossings=2_000
    )
    assert report["suite"] == "scale-invariance"


@pytest.mark.parametrize("suite, kwargs", [
    ("remaining-time", dict(depth=5, level=-3, n_paths=4, queries_per_path=200, tol=10.0)),
    ("modulus", dict(specs=({"family": GEOM_HALF, "depth": 6, "w_generations": 2},),
                     n_seeds=3, l_range=(2, 5))),
    ("scale-invariance", dict(depth=6, levels=(-5, -4), min_crossings=50)),
], ids=["remaining-time", "modulus", "scale-invariance"])
def test_suites_build_the_offspring_law_once(monkeypatch, suite, kwargs):
    import cebp.paths
    from cebp.offspring import make_offspring

    calls = []

    def counting(*args, **kw):
        calls.append(kw)
        return make_offspring(*args, **kw)

    for module in (V, cebp.paths):
        monkeypatch.setattr(module, "make_offspring", counting)
    V.run_suite(suite, seed=1, **kwargs)
    assert calls == [GEOM_HALF]


def test_w_tail_refuses_a_depth_whose_counts_overflow():
    with pytest.raises(BudgetError) as err:
        V.verify_w_tail(families=[GEOM_HALF], generations=31, n_samples=300)
    assert err.value.code == "DEPTH_OVERFLOW"
