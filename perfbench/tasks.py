"""The benchmark's tasks and the workloads built from them.

A task is one kind of use of cebp: the CLI round trip (``cli``), the record
ensembles (``w``, ``inc``, ``rem``) and the regularity experiment (``mod``,
``ana``).  Every workload runs every task, so that every run reports every
end-to-end metric: its own tasks at full ("focus") scale and the others as a
small "probe" of the same calls.  The program only ever sees inputs drawn from
the round's random generator; sizes that the seed would otherwise make swing
several-fold are held to a band by choosing among seeded candidates (see
``_sized_seed`` here and ``analysis_path`` in inputs.py).
"""

import contextlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback

import numpy as np

import cebp
import cebp.cli
import cebp.verify
from cebp.paths import SamplePath, SimulationConfig, simulate

import checks
import inputs

INPUTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "inputs.py")

GEOM_HALF = {"family": "geometric-pairs", "p": 0.5}     # mu 4, H 1/2
GEOM_THIRD = {"family": "geometric-pairs", "p": 0.25}   # mu 8, H 1/3
# Median of W_10 = Z_10 / 4**10 for GEOM_HALF, from 2e5 exact population chains
# (the mean is 1); sized inputs are trees of this typical size.
W_MEDIAN = 0.756

# The modulus ensemble runs at the acceptance gate's seed in every round: a
# tiled path's cost follows its span, whose coefficient of variation is 0.45,
# so a seed-varied ensemble of a few paths would swing the rate by over 20 %.
MODULUS_SEED = 0
PROBE_MODULUS_SPECS = (       # effective depth 13
    {"family": GEOM_HALF, "depth": 8, "w_generations": 5},
    {"family": GEOM_THIRD, "depth": 5, "w_generations": 8},
)

# Per-repeat sizes and repeats per round of each task at each scale.
SCALES = {
    "cli": {"focus": {"depth": 10, "repeats": 1}, "probe": {"depth": 7, "repeats": 5}},
    "w": {"focus": {"n": 2_500, "repeats": 4}, "probe": {"n": 1_000, "repeats": 6}},
    "inc": {"focus": {"n": 400, "repeats": 4}, "probe": {"n": 100, "repeats": 5}},
    "rem": {"focus": {"depth": 9, "paths": 10, "queries": 10_000, "repeats": 1},
            "probe": {"depth": 8, "paths": 2, "queries": 10_000, "repeats": 5}},
    "mod": {"focus": {"specs": cebp.verify.MODULUS_SPECS, "seeds": 1, "repeats": 1},
            "probe": {"specs": PROBE_MODULUS_SPECS, "seeds": 1, "repeats": 5}},
    "ana": {"focus": {"depth": 10, "repeats": 3}, "probe": {"depth": 9, "repeats": 5}},
}

# Which tasks each workload runs at focus scale; the rest run as probes.
WORKLOADS = {
    "roundtrip": ("cli",),
    "ensembles": ("w", "inc", "rem"),
    "regularity": ("mod", "ana"),
}

# End-to-end metrics: (name, unit, better, bound).  bound is the share of the
# parent's median by which a later change may worsen the metric.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
    ("simulate_s", "s", "lower", 0.25),
    ("analyze_s", "s", "lower", 0.25),
    ("artifact_mb", "MB", "lower", 0.1),
    ("w_samples_per_s", "1/s", "higher", 0.25),
    ("increment_records_per_s", "1/s", "higher", 0.25),
    ("remaining_records_per_s", "1/s", "higher", 0.25),
    ("modulus_paths_per_s", "1/s", "higher", 0.25),
    ("path_analysis_s", "s", "lower", 0.25),
]


class Context:
    """Counts, timings and check results of the rounds run in this process."""

    def __init__(self, work_dir, tracer=None, run_checks=True):
        self.work_dir = work_dir
        self.tracer = tracer
        self.run_checks = run_checks
        self.samples = {}
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.check_failures = []
        self.ops_s = 0.0

    @contextlib.contextmanager
    def timed(self, n_ops):
        """Time a group of n_ops program calls, as one traced region."""
        self.attempted += n_ops
        box = [0.0]
        region = self.tracer.region() if self.tracer else contextlib.nullcontext()
        with region:
            t0 = time.perf_counter()
            try:
                yield box
            finally:
                box[0] = time.perf_counter() - t0
                self.ops_s += box[0]

    def calls(self, n_ops):
        """Count untimed program calls made to check the outputs."""
        self.attempted += n_ops

    def sample(self, metric, value):
        self.samples.setdefault(metric, []).append(float(value))

    def check(self, failures):
        if self.run_checks:
            self.check_failures.extend(failures)


def _seed(rng):
    return int(rng.integers(0, 2 ** 31 - 1))


def _sized_seed(rng, depth, tol, tries=400):
    """First seeded candidate whose geometric p = 1/2 tree has a median-sized leaf count.

    The size of a crossing tree swings with the martingale limit W (standard
    deviation 0.8 for geometric p = 1/2), so a bare seed would make the work
    per operation swing several-fold between seeds.  Candidates are kept
    when their leaf count is within ``tol`` of W_MEDIAN * 4**depth.  The size
    is read off the program's own mean-mode ``simulate``, which grows the
    same tree as the sampled mode at that seed.
    """
    target = W_MEDIAN * 4 ** depth
    best = (np.inf, None)
    for _ in range(tries):
        seed = _seed(rng)
        # a tree of n leaves has about 4n/3 nodes: the budget stops a far
        # larger candidate early, before it costs time and memory
        config = SimulationConfig(offspring=GEOM_HALF, depth=depth, seed=seed,
                                  keep_trees=False, node_budget=int(2 * target))
        try:
            err = abs((simulate(config).n_knots - 1) / target - 1.0)
        except cebp.BudgetError:
            continue
        if err <= tol:
            return seed
        best = min(best, (err, seed))
    return best[1]


# ---------------------------------------------------------------------------
# cli: simulate -> analyze through cebp.cli.main, artifacts read back

def task_cli(ctx, rng, rep, state, depth):
    seed = _sized_seed(rng, depth, 0.02)
    out_dir = tempfile.mkdtemp(prefix="cli-", dir=ctx.work_dir)
    try:
        run, analysis = os.path.join(out_dir, "run"), os.path.join(out_dir, "analysis")
        sim_argv = ["simulate", "--family", "geometric-pairs", "--p", "0.5",
                    "--depth", str(depth), "--seed", str(seed), "--out", run]
        an_argv = ["analyze", "--path", f"{run}.csv", "--levels", f"-{depth}:0",
                   "--out", analysis]
        for metric, argv in (("simulate_s", sim_argv), ("analyze_s", an_argv)):
            with ctx.timed(1) as t, contextlib.redirect_stdout(io.StringIO()):
                code = cebp.cli.main(argv)
            if code != 0:
                ctx.failed += 1
                ctx.errors.append(f"cebp {' '.join(argv)} exited {code}")
                return
            ctx.sample(metric, t[0])
        ctx.sample("artifact_mb", sum(
            os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir)) / 1e6)
        if ctx.run_checks:
            ctx.check(check_cli(run, analysis, depth))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def check_cli(run, analysis, depth):
    times, values = checks.read_path_csv(f"{run}.csv")
    tree = checks.read_tree_levels(f"{run}.trees.ndjson")
    with open(f"{analysis}.estimates.json") as fh:
        estimates = json.load(fh)["estimates"]
    failures = checks.check_csv_lattice(times, values, depth)
    failures += checks.check_leaves_match_steps(tree, values, depth)
    failures += checks.check_estimates(tree, estimates, depth)
    forest_file = f"{analysis}.forest.ndjson"
    if os.path.exists(forest_file):
        failures += checks.check_forest_matches_tree(
            checks.read_forest_levels(forest_file), tree, depth)
    return failures


# ---------------------------------------------------------------------------
# ensembles: W samples, increment records, remaining-time records

def gw_moments(spec):
    p = spec["p"]
    return 4.0 * (1.0 - p) / p ** 2, 2.0 / p       # Var Z, E Z of Z = 2 Geometric(p)


def task_w(ctx, rng, rep, state, n, generations=12):
    seeds = [_seed(rng) for _ in (GEOM_HALF, GEOM_THIRD)]
    with ctx.timed(6) as t:
        ensembles = []
        for spec, seed in zip((GEOM_HALF, GEOM_THIRD), seeds):
            ens = cebp.sample_W(cebp.make_offspring(**spec), generations, n, seed)
            cebp.w_left_tail_fit(ens)
            ensembles.append(ens)
    ctx.sample("w_samples_per_s", 2 * n / t[0])
    for spec, ens in zip((GEOM_HALF, GEOM_THIRD), ensembles):
        sigma2, mu = gw_moments(spec)
        ctx.check([f"W p={spec['p']}: {m}" for m in
                   checks.check_w_samples(ens.samples, sigma2, mu, generations)])


def task_inc(ctx, rng, rep, state, n, t_lag=0.045):
    seed = _seed(rng)
    with ctx.timed(2) as t:
        records = cebp.increment_records(GEOM_HALF, t=t_lag, n_records=n,
                                         master_seed=seed, depth=7)
        cebp.increment_tail(records)
    ctx.sample("increment_records_per_s", n / t[0])
    ctx.check(checks.check_increments(records.plain, records.sup, t_lag))


def task_rem(ctx, rng, rep, state, depth, paths, queries, level=-6):
    seeds = [_sized_seed(rng, depth, 0.1) for _ in range(paths)]
    master = _seed(rng)
    with ctx.timed(2 * paths + 1) as t:
        batches = []
        for i, seed in enumerate(seeds):
            path = cebp.simulate(SimulationConfig(
                offspring=GEOM_HALF, depth=depth, duration_mode="sampled",
                seed=seed, keep_trees=False))
            batches.append(cebp.remaining_time_records(
                path, level=level, n_queries=queries, master_seed=master, query_index=i))
        fit = cebp.remaining_time_tail(batches)
    ctx.sample("remaining_records_per_s", paths * queries / t[0])
    ctx.check(checks.check_remaining(fit.slope, np.concatenate([b.gap for b in batches])))


# ---------------------------------------------------------------------------
# regularity: modulus band ensemble and one whole-path analysis

def task_mod(ctx, rng, rep, state, specs, seeds):
    with ctx.timed(1) as t:
        report = cebp.verify.verify_modulus(specs=specs, n_seeds=seeds, l_range=(4, 12),
                                            seed=MODULUS_SEED)
    ctx.sample("modulus_paths_per_s", len(specs) * seeds / t[0])
    for fam in report["families"]:
        ctx.check(checks.check_band(fam["family"], *fam["band"]))
    if rep == 0 and ctx.run_checks:
        _check_chaining(ctx, rng)


def _check_chaining(ctx, rng):
    """Criterion 6 cross-check: chaining sup vs the exact modulus on small paths."""
    for spec, depth in ((GEOM_HALF, 6), (GEOM_THIRD, 4)):
        ctx.calls(9)
        path = cebp.simulate(SimulationConfig(
            offspring=spec, depth=depth, duration_mode="sampled", root_mode="tile",
            target_horizon=1.0, seed=_seed(rng), keep_trees=False))
        for l in (3, 4, 5, 6):
            delta = 2.0 ** -l
            chain = cebp.oscillation_table(path, delta).chaining_sup
            exact = cebp.brute_force_modulus(path, delta)
            ctx.check(checks.check_chaining(f"p={spec['p']} l={l}", chain, exact))


def _make_paths(ctx, rng, depth):
    """The analysed path and the exponent-check path, made by inputs.py in a child process."""
    out = os.path.join(ctx.work_dir, f"paths-{depth}.npz")
    subprocess.run([sys.executable, INPUTS, "--seed", str(_seed(rng)), "--depth", str(depth),
                    "--out", out], check=True, timeout=150)
    dist = cebp.make_offspring(**GEOM_HALF)
    with np.load(out) as data:
        return {name: SamplePath(times=data[f"{name}_times"], values=data[f"{name}_values"],
                                 resolution_level=level, hurst=dist.hurst, mu=dist.mu)
                for name, level in (("analysis", -depth), ("exponent", -inputs.EXPONENT_DEPTH))}


def task_ana(ctx, rng, rep, state, depth, n_grid=1000):
    if not state:
        state.update(_make_paths(ctx, rng, depth))
    path = state["analysis"]
    with ctx.timed(7) as t:
        forest = cebp.extract_crossing_forest(path, (-8, 0))
        cebp.estimate_hurst(forest)
        si = cebp.duration_scale_invariance(forest, mu=path.mu, min_crossings=10_000)
        control = cebp.duration_scale_invariance(forest, mu=2 * path.mu, min_crossings=10_000)
        cebp.holder_histogram(path, n_grid, range(4, 9))
        cebp.holder_histogram(path, n_grid, range(6, 13))
        ratio = cebp.modulus_ratio(path, (4, 12))
    ctx.sample("path_analysis_s", t[0])
    ctx.check(checks.check_scale_invariance(si["max_ks"], control["max_ks"]))
    ctx.check(checks.check_band("single path", ratio.ratio_min, ratio.ratio_max))
    if rep == 0 and ctx.run_checks:
        for eps_levels in (range(4, 9), range(6, 13)):
            ctx.calls(1)
            est = cebp.holder_histogram(state["exponent"], n_grid, eps_levels)
            ctx.check(checks.check_exponents(f"eps levels {eps_levels}", est.exponents))
        knots = np.linspace(0.0, 1.0, 4097)
        ramp = SamplePath(times=knots, values=knots.copy(), resolution_level=-12,
                          hurst=None, mu=None)
        for eps_levels in (range(4, 9), range(6, 13)):
            ctx.calls(1)
            est = cebp.holder_histogram(ramp, n_grid, eps_levels)
            ctx.check(checks.check_ramp(f"ramp {eps_levels}", est.valid, n_grid))


TASKS = {"cli": task_cli, "w": task_w, "inc": task_inc, "rem": task_rem,
         "mod": task_mod, "ana": task_ana}


def run_round(ctx, workload, seed, round_index):
    """One round: every task at the workload's scales, from fixed seeds.

    Each task's repeats sit evenly over the round's slots, so that its
    samples are spread over the round rather than taken in one burst: the
    machine's speed drifts by tens of percent over seconds, and a burst sees
    one phase of it.
    """
    plan = []
    for k, name in enumerate(TASKS):
        params = dict(SCALES[name]["focus" if name in WORKLOADS[workload] else "probe"])
        plan.append((name, params.pop("repeats"), params,
                     np.random.default_rng([seed, round_index, k]), {}))
    n_slots = max(p[1] for p in plan)
    for slot in range(n_slots):
        for name, repeats, params, rng, state in plan:
            reps = [i for i in range(repeats) if int((i + 0.5) * n_slots / repeats) == slot]
            if not reps or state.get("broken"):
                continue
            rep = reps[0]
            try:
                TASKS[name](ctx, rng, rep, state, **params)
            except Exception:        # a program fault: count it and keep measuring
                ctx.failed += 1
                ctx.errors.append(f"{name}: {traceback.format_exc()}")
                state["broken"] = True


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
