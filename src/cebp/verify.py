"""Statistical verification suites.

Each suite runs one calibrated experiment against the scaling theory of the
canonical embedded branching process and returns a JSON-friendly report with
a boolean ``pass``:

* ``w-tail``: left tail of the limit variable W fitted against
  exp(-c * x**(-H/(1-H))).
* ``increments``: sup-increment tail over an ensemble of fresh paths fitted
  against exp(-c * (x / t**H)**(1/(1-H))), with the plain increment
  sandwiched below the sup.
* ``remaining-time``: wait from a uniform time to the next lattice passage,
  rescaled by mu**-n; the log(-log) chord targets slope -1.
* ``modulus``: ratio of the chained block modulus to the gauge
  delta**H |ln delta|**(1-H) stays in a narrow stable band over dyadic
  block widths, and the chained statistic brackets the brute-force modulus
  within a factor of 3.
* ``scale-invariance``: rescaled crossing durations mu**(-n) D^n at
  adjacent levels agree in distribution (KS), and a wrong mu is detected.
* ``assumptions``: supercriticality, Z log Z moment, and the offspring
  dominance ordering for the stock families.

All suites derive every random draw from (seed, record index), so reports
are identical for any ``workers`` value.  The path ensembles of
``increments``, ``remaining-time`` and ``modulus`` run through
``paths.path_records``, the one per-record loop, with one config per ensemble.
"""

from functools import partial

import numpy as np

from .branching import WEnsemble, check_depth, sample_w_range
from .errors import ConfigError
from .extract import duration_scale_invariance, extract_crossing_forest
from .increments import (
    increment_records,
    increment_tail,
    remaining_time_records,
    remaining_time_tail,
)
from .modulus import band_stability, modulus_ratio
from .offspring import check_assumption_gw, check_assumption_z, make_offspring
from .paths import SimulationConfig, path_records, simulate
from .rng import STREAM_MODULUS, STREAM_PATH, map_blocks
from .tailfit import w_left_tail_fit

__all__ = [
    "SUITES",
    "verify_w_tail",
    "verify_increments",
    "verify_remaining_time",
    "verify_modulus",
    "verify_scale_invariance",
    "verify_assumptions",
    "run_suite",
]

GEOM_HALF = {"family": "geometric-pairs", "p": 0.5}     # mu 4, H 1/2
GEOM_THIRD = {"family": "geometric-pairs", "p": 0.25}   # mu 8, H 1/3


def _family_label(spec):
    params = ", ".join(f"{k}={v}" for k, v in spec.items() if k != "family")
    return f"{spec['family']}({params})"


# ---------------------------------------------------------------------------
# w-tail

def verify_w_tail(families=None, generations=12, n_samples=1_000_000,
                  seed=0, rel_tol=0.15, r2_min=0.97, workers=1):
    """Left-tail exponent of W for each family; target -H/(1-H)."""
    if families is None:
        families = [GEOM_HALF, GEOM_THIRD]
    if n_samples < 1:
        raise ConfigError("INVALID_CONFIG", f"need n_samples >= 1, got {n_samples}")
    results = []
    for spec in families:
        dist = make_offspring(**spec)
        check_depth(dist, generations)
        samples = np.concatenate(map_blocks(
            partial(sample_w_range, master_seed=seed), n_samples,
            (dist, generations), workers,
        ))
        ensemble = WEnsemble(samples=samples, source=dist)
        fit = w_left_tail_fit(ensemble)
        ok = fit.relative_error <= rel_tol and fit.r_squared >= r2_min
        results.append({
            "family": _family_label(spec),
            "hurst": dist.hurst,
            "n_samples": int(n_samples),
            "slope": fit.slope,
            "target": fit.target_exponent,
            "relative_error": fit.relative_error,
            "r_squared": fit.r_squared,
            "pass": bool(ok),
        })
    return {
        "suite": "w-tail",
        "config": {"generations": generations, "n_samples": n_samples,
                   "seed": seed, "rel_tol": rel_tol, "r2_min": r2_min},
        "families": results,
        "pass": bool(all(r["pass"] for r in results)),
    }


# ---------------------------------------------------------------------------
# increments

def verify_increments(family=None, t=0.045, n_records=100_000, depth=7,
                      horizon=1.0, seed=0, tol=0.15, workers=1):
    """Sup-increment tail exponent (target 1) plus the plain/sup sandwich."""
    spec = GEOM_HALF if family is None else family
    records = increment_records(
        spec, t=t, n_records=n_records, master_seed=seed,
        depth=depth, horizon=horizon, workers=workers,
    )
    fit = increment_tail(records)
    ok = fit.relative_error <= tol and fit.sandwich_violations == 0
    return {
        "suite": "increments",
        "config": {"family": _family_label(spec), "t": t,
                   "n_records": n_records, "depth": depth,
                   "horizon": horizon, "seed": seed, "tol": tol},
        "slope": fit.slope,
        "target": fit.target_exponent,
        "relative_error": fit.relative_error,
        "r_squared": fit.r_squared,
        "sandwich_violations": fit.sandwich_violations,
        "curve": {
            "abscissa": fit.abscissa.tolist(),
            "p_sup": fit.p_hat.tolist(),
            "p_plain": fit.plain_p_hat.tolist(),
        },
        "pass": bool(ok),
    }


# ---------------------------------------------------------------------------
# remaining time

def _remaining_record(level, queries, seed, path, i):
    return remaining_time_records(path, level=level, n_queries=queries,
                                  master_seed=seed, query_index=i)


def verify_remaining_time(family=None, depth=9, level=-6, n_paths=10,
                          queries_per_path=10_000, seed=0, tol=0.2, workers=1):
    """Pooled remaining-time chord over sampled-duration paths; target -1."""
    spec = GEOM_HALF if family is None else family
    config = SimulationConfig(offspring=make_offspring(**spec), depth=depth,
                              duration_mode="sampled", keep_trees=False)
    fit = remaining_time_tail(path_records(
        config, (seed, STREAM_PATH), n_paths,
        partial(_remaining_record, level, queries_per_path, seed), workers,
    ))
    ok = abs(fit.slope - fit.target_exponent) <= tol
    return {
        "suite": "remaining-time",
        "config": {"family": _family_label(spec), "depth": depth,
                   "level": level, "n_paths": n_paths,
                   "queries_per_path": queries_per_path, "seed": seed,
                   "tol": tol},
        "slope": fit.slope,
        "target": fit.target_exponent,
        "r_squared": fit.r_squared,
        "n_records": fit.n_records,
        "interior_fraction": fit.interior_fraction,
        "pass": bool(ok),
    }


# ---------------------------------------------------------------------------
# modulus of continuity

MODULUS_SPECS = (
    {"family": GEOM_HALF, "depth": 10, "w_generations": 6},
    {"family": GEOM_THIRD, "depth": 7, "w_generations": 9},
)


def _modulus_record(l_range, path, i):
    return modulus_ratio(path, l_range).ratios


def verify_modulus(specs=MODULUS_SPECS, n_seeds=50, l_range=(4, 12), seed=0,
                   max_band_ratio=10.0, band_tol=0.25, workers=1):
    """Band stability of R(delta_l) over dyadic block widths, per family.

    R(delta_l) is the seed-ensemble mean of the normalized block-chaining
    sup at level l; averaging is what the seed ensemble is for, since a
    single path offers only span/delta blocks at coarse l and its sup is
    noisy there.  Every R(delta_l) must lie in a band [a, b] with
    b <= max_band_ratio * a, and the band endpoints from the lower and
    upper halves of the level range must agree within ``band_tol``.
    The pooled per-seed extremes are reported as diagnostics.
    """
    l_lo, l_hi = int(l_range[0]), int(l_range[1])
    if n_seeds < 1:
        raise ConfigError("INVALID_CONFIG", f"need n_seeds >= 1, got {n_seeds}")
    results = []
    for k, spec in enumerate(specs):
        dist = make_offspring(**spec["family"])
        # sampled populations fluctuate a few-fold around mu**depth, and
        # tiling may stack several roots, so leave generous node headroom
        config = SimulationConfig(
            offspring=dist, depth=spec["depth"], duration_mode="sampled",
            w_generations=spec["w_generations"], root_mode="tile", target_horizon=1.0,
            keep_trees=False, node_budget=60_000_000,
        )
        ratios = np.vstack(path_records(
            config, (seed, STREAM_MODULUS, k), n_seeds,
            partial(_modulus_record, (l_lo, l_hi)), workers,
        ))
        per_level = ratios.mean(axis=0)
        a, b, _, halves, ok = band_stability(
            range(l_lo, l_hi + 1), per_level, band_tol, max_band_ratio,
        )
        results.append({
            "family": _family_label(spec["family"]),
            "hurst": dist.hurst,
            "depth": spec["depth"],
            "w_generations": spec["w_generations"],
            "band": (a, b),
            "band_ratio": b / a,
            "halves": halves,
            "per_level_mean": per_level.tolist(),
            "pooled_range": (float(ratios.min()), float(ratios.max())),
            "pass": bool(ok),
        })
    return {
        "suite": "modulus",
        "config": {"n_seeds": n_seeds, "l_range": [l_lo, l_hi], "seed": seed,
                   "max_band_ratio": max_band_ratio, "band_tol": band_tol},
        "families": results,
        "pass": bool(all(r["pass"] for r in results)),
    }


# ---------------------------------------------------------------------------
# duration scale invariance

def verify_scale_invariance(family=None, depth=9, levels=(-8, -7),
                            min_crossings=10_000, seed=0, ks_max=0.03,
                            control_factor=2.0, control_min=0.1, workers=1):
    """Adjacent-level duration KS under the true mu, with a wrong-mu control.

    The control rescales with control_factor * mu; detection means its KS
    distance clears ``control_min`` while the true-mu distances stay under
    ``ks_max``.
    """
    spec = GEOM_HALF if family is None else family
    dist = make_offspring(**spec)
    # tiling to a fixed horizon keeps the per-level crossing counts above
    # mu**-level regardless of the root duration draw
    cfg = SimulationConfig(
        offspring=dist, depth=depth, duration_mode="sampled",
        root_mode="tile", target_horizon=1.0,
        seed=(seed, STREAM_PATH, 0), keep_trees=False,
    )
    path = simulate(cfg)
    forest = extract_crossing_forest(path, (int(levels[0]), int(levels[1])))
    report = duration_scale_invariance(forest, mu=dist.mu,
                                       min_crossings=min_crossings)
    control = duration_scale_invariance(forest, mu=control_factor * dist.mu,
                                        min_crossings=min_crossings)
    ok = report["max_ks"] < ks_max and control["max_ks"] > control_min
    return {
        "suite": "scale-invariance",
        "config": {"family": _family_label(spec), "depth": depth,
                   "levels": [int(levels[0]), int(levels[1])],
                   "min_crossings": min_crossings, "seed": seed,
                   "ks_max": ks_max, "control_factor": control_factor,
                   "control_min": control_min},
        "mu": dist.mu,
        "max_ks": report["max_ks"],
        "pairs": report["pairs"],
        "control_mu": control_factor * dist.mu,
        "control_ks": control["max_ks"],
        "pass": bool(ok),
    }


# ---------------------------------------------------------------------------
# model assumptions

def verify_assumptions(families=None):
    """Supercriticality, Z log Z moment, and dominance for each family."""
    if families is None:
        families = [
            GEOM_HALF,
            GEOM_THIRD,
            {"family": "poisson-pairs", "lam": 1.0},
            {"family": "fixed-pairs", "b": 2},
            {"family": "custom", "pmf": {2: 0.5, 4: 0.5}},
        ]
    results = []
    for spec in families:
        dist = make_offspring(**spec)
        gw = check_assumption_gw(dist)
        dom = check_assumption_z(dist)
        dom_zero = check_assumption_z(dist, zeta_max=0)
        ok = gw["passed"] and dom.passed
        results.append({
            "family": _family_label(spec),
            "mu": dist.mu,
            "hurst": dist.hurst,
            "supercritical": gw["supercritical"],
            "z_log_z": gw["z_log_z"],
            "dominance_zeta": dom.zeta,
            "dominance_violations": len(dom.violations),
            "zero_shift_violations": len(dom_zero.violations),
            "pass": bool(ok),
        })
    return {
        "suite": "assumptions",
        "config": {"families": [_family_label(s) for s in families]},
        "families": results,
        "pass": bool(all(r["pass"] for r in results)),
    }


SUITES = {
    "w-tail": verify_w_tail,
    "increments": verify_increments,
    "remaining-time": verify_remaining_time,
    "modulus": verify_modulus,
    "scale-invariance": verify_scale_invariance,
    "assumptions": verify_assumptions,
}


def run_suite(name, seed=0, workers=1, **overrides):
    """Run one named suite with keyword overrides; returns its report."""
    fn = SUITES[name]       # KeyError for an unknown name
    if name == "assumptions":
        return fn(**overrides)
    return fn(seed=seed, workers=workers, **overrides)
