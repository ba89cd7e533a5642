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
  block widths (the acceptance tests compare it with the brute-force modulus).
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

from .branching import WEnsemble, sample_w_range
from .errors import ConfigError
from .extract import duration_scale_invariance, extract_crossing_forest
from .increments import (
    INCREMENT_HORIZON,
    increment_records,
    increment_tail,
    remaining_time_records,
    remaining_time_tail,
)
from .modulus import BAND_TOL, MAX_BAND_RATIO, band_stability, level_range, modulus_ratio
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

# The w-tail chain depth and the suites' pass thresholds; each report records
# the values it uses in its config.
W_GENERATIONS = 12
W_TAIL_REL_TOL = 0.15
W_TAIL_R2_MIN = 0.97
SCALE_KS_MAX = 0.03
SCALE_CONTROL_FACTOR = 2.0
SCALE_CONTROL_MIN = 0.1
INCREMENT_REL_TOL = 0.15
REMAINING_TOL = 0.2


def _family_label(spec):
    params = ", ".join(f"{k}={v}" for k, v in spec.items() if k != "family")
    return f"{spec['family']}({params})"


# ---------------------------------------------------------------------------
# w-tail

def verify_w_tail(families=None, n_samples=1_000_000, seed=0, workers=1):
    """Left-tail exponent of W for each family; target -H/(1-H)."""
    if families is None:
        families = [GEOM_HALF, GEOM_THIRD]
    if n_samples < 1:
        raise ConfigError("INVALID_CONFIG", f"need n_samples >= 1, got {n_samples}")
    results = []
    for spec in families:
        dist = make_offspring(**spec)
        samples = np.concatenate(map_blocks(
            partial(sample_w_range, master_seed=seed), n_samples,
            (dist, W_GENERATIONS), workers,
        ))
        ensemble = WEnsemble(samples=samples, source=dist)
        fit = w_left_tail_fit(ensemble)
        ok = fit.relative_error <= W_TAIL_REL_TOL and fit.r_squared >= W_TAIL_R2_MIN
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
        "config": {"generations": W_GENERATIONS, "n_samples": n_samples,
                   "seed": seed, "rel_tol": W_TAIL_REL_TOL, "r2_min": W_TAIL_R2_MIN},
        "families": results,
        "pass": bool(all(r["pass"] for r in results)),
    }


# ---------------------------------------------------------------------------
# increments

def verify_increments(family=None, t=0.045, n_records=100_000, depth=7,
                      seed=0, workers=1):
    """Sup-increment tail exponent (target 1) plus the plain/sup sandwich."""
    spec = GEOM_HALF if family is None else family
    records = increment_records(
        spec, t=t, n_records=n_records, master_seed=seed,
        depth=depth, workers=workers,
    )
    fit = increment_tail(records)
    ok = fit.relative_error <= INCREMENT_REL_TOL and fit.sandwich_violations == 0
    return {
        "suite": "increments",
        "config": {"family": _family_label(spec), "t": t,
                   "n_records": n_records, "depth": depth,
                   "horizon": INCREMENT_HORIZON, "seed": seed, "tol": INCREMENT_REL_TOL},
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

def _remaining_record(level, queries, path):
    seed, _, i = path.meta["seed"]      # (seed, STREAM_PATH, i)
    return remaining_time_records(path, level=level, n_queries=queries,
                                  master_seed=seed, query_index=i)


def verify_remaining_time(family=None, depth=9, level=-6, n_paths=10,
                          queries_per_path=10_000, seed=0, workers=1):
    """Pooled remaining-time chord over sampled-duration paths; target -1."""
    if queries_per_path < 1:        # before any path is simulated
        raise ConfigError("INVALID_CONFIG", f"need queries_per_path >= 1, got {queries_per_path}")
    spec = GEOM_HALF if family is None else family
    config = SimulationConfig(offspring=spec, depth=depth, duration_mode="sampled", keep_trees=False)
    fit = remaining_time_tail(path_records(
        config, (seed, STREAM_PATH), n_paths,
        partial(_remaining_record, level, queries_per_path), workers,
    ))
    ok = abs(fit.slope - fit.target_exponent) <= REMAINING_TOL
    return {
        "suite": "remaining-time",
        "config": {"family": _family_label(spec), "depth": depth,
                   "level": level, "n_paths": n_paths,
                   "queries_per_path": queries_per_path, "seed": seed, "tol": REMAINING_TOL},
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


def _modulus_record(l_range, path):
    return modulus_ratio(path, l_range).ratios


def verify_modulus(specs=MODULUS_SPECS, n_seeds=50, l_range=(4, 12), seed=0, workers=1):
    """Band stability of R(delta_l) over dyadic block widths, per family.

    R(delta_l) is the seed-ensemble mean of the normalized block-chaining
    sup at level l; averaging is what the seed ensemble is for, since a
    single path offers only span/delta blocks at coarse l and its sup is
    noisy there.  Every R(delta_l) must lie in a band [a, b] with
    b <= MAX_BAND_RATIO * a, and the band endpoints from the lower and
    upper halves of the level range must agree within BAND_TOL.
    The pooled per-seed extremes are reported as diagnostics.
    """
    l_lo, l_hi = level_range(l_range)
    results = []
    for k, spec in enumerate(specs):
        # sampled populations fluctuate a few-fold around mu**depth, and
        # tiling may stack several roots, so leave generous node headroom
        config = SimulationConfig(
            offspring=spec["family"], depth=spec["depth"], duration_mode="sampled",
            w_generations=spec["w_generations"], root_mode="tile", target_horizon=1.0,
            keep_trees=False, node_budget=60_000_000,
        )
        ratios = np.vstack(path_records(
            config, (seed, STREAM_MODULUS, k), n_seeds,
            partial(_modulus_record, (l_lo, l_hi)), workers,
        ))
        per_level = ratios.mean(axis=0)
        a, b, _, halves, ok = band_stability(range(l_lo, l_hi + 1), per_level)
        results.append({
            "family": _family_label(spec["family"]),
            "hurst": config.offspring.hurst,
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
                   "max_band_ratio": MAX_BAND_RATIO, "band_tol": BAND_TOL},
        "families": results,
        "pass": bool(all(r["pass"] for r in results)),
    }


# ---------------------------------------------------------------------------
# duration scale invariance

def verify_scale_invariance(family=None, depth=9, levels=(-8, -7),
                            min_crossings=10_000, seed=0, workers=1):
    """Adjacent-level duration KS under the true mu, with a wrong-mu control.

    The control rescales with SCALE_CONTROL_FACTOR * mu; detection means its
    KS distance clears SCALE_CONTROL_MIN while the true-mu distances stay
    under SCALE_KS_MAX.
    """
    spec = GEOM_HALF if family is None else family
    # tiling to a fixed horizon keeps the per-level crossing counts above
    # mu**-level regardless of the root duration draw
    cfg = SimulationConfig(
        offspring=spec, depth=depth, duration_mode="sampled",
        root_mode="tile", target_horizon=1.0,
        seed=(seed, STREAM_PATH, 0), keep_trees=False,
    )
    path = simulate(cfg)
    forest = extract_crossing_forest(path, (int(levels[0]), int(levels[1])))
    report = duration_scale_invariance(forest, mu=path.mu,
                                       min_crossings=min_crossings)
    control = duration_scale_invariance(forest, mu=SCALE_CONTROL_FACTOR * path.mu,
                                        min_crossings=min_crossings)
    ok = report["max_ks"] < SCALE_KS_MAX and control["max_ks"] > SCALE_CONTROL_MIN
    return {
        "suite": "scale-invariance",
        "config": {"family": _family_label(spec), "depth": depth,
                   "levels": [int(levels[0]), int(levels[1])],
                   "min_crossings": min_crossings, "seed": seed,
                   "ks_max": SCALE_KS_MAX, "control_factor": SCALE_CONTROL_FACTOR,
                   "control_min": SCALE_CONTROL_MIN},
        "mu": path.mu,
        "max_ks": report["max_ks"],
        "pairs": report["pairs"],
        "control_mu": SCALE_CONTROL_FACTOR * path.mu,
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
