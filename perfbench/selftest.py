"""Fast self-test of the benchmark's correctness checks.

    python3 perfbench/selftest.py

Every check in ``checks.py`` is run twice at tiny sizes: once on a good input,
which it must pass, and once on a planted wrong input, which it must fail (a
negative control).  Exits 1 if any check misjudges its input.
"""

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import cebp  # noqa: E402
import cebp.cli  # noqa: E402
from cebp.paths import SamplePath, SimulationConfig  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import tasks  # noqa: E402

RESULTS = []


def expect(label, failures, should_fail, reason=""):
    """Record whether a check judged its input as it should (failing with ``reason``)."""
    ok = bool(failures) == should_fail and all(reason in f for f in failures[:1])
    RESULTS.append(ok)
    verdict = "fails" if failures else "passes"
    print(f"{'ok  ' if ok else 'BAD '} {label}: {verdict}"
          + (f" ({failures[0]})" if failures else ""))


def gw_w(p, k, n, seed):
    """W = Z_k / mu^k by a population chain written apart from the program."""
    rng = np.random.default_rng(seed)
    pop = np.ones(n, dtype=np.int64)
    for _ in range(k):
        pop = 2 * (pop + rng.negative_binomial(pop, p))
    return pop / (2.0 / p) ** k


def selftest_w():
    sigma2, mu = tasks.gw_moments(tasks.GEOM_HALF)
    w = gw_w(0.5, 12, 20_000, 1)
    expect("W, exact chain", checks.check_w_samples(w, sigma2, mu, 12), False)
    expect("W shifted by 5 %", checks.check_w_samples(1.05 * w, sigma2, mu, 12), True, "mean W")
    spread = w ** 1.2 / np.mean(w ** 1.2)
    expect("W spread by a power 1.2", checks.check_w_samples(spread, sigma2, mu, 12), True, "var W")
    planted = w.copy()
    planted[7] = -planted[7]
    expect("W with one negative sample", checks.check_w_samples(planted, sigma2, mu, 12), True,
           "<= 0")


def selftest_increments():
    rec = cebp.increment_records(tasks.GEOM_HALF, t=0.045, n_records=1000, master_seed=3, depth=7)
    expect("increments, program", checks.check_increments(rec.plain, rec.sup, 0.045), False)
    expect("increments scaled by 1.3",
           checks.check_increments(1.3 * rec.plain, 1.3 * rec.sup, 0.045), True, "plain^2")
    plain = rec.plain.copy()
    plain[5] = rec.sup[5] * 1.5 + 1e-3
    expect("increments with plain > sup", checks.check_increments(plain, rec.sup, 0.045), True)


def selftest_remaining():
    path = cebp.simulate(SimulationConfig(offspring=tasks.GEOM_HALF, depth=8,
                                          duration_mode="sampled", seed=4, keep_trees=False))
    rec = cebp.remaining_time_records(path, level=-6, n_queries=10_000, master_seed=4)
    fit = cebp.remaining_time_tail(rec)
    expect("remaining time, program", checks.check_remaining(fit.slope, rec.gap), False)
    expect("remaining time, slope off by 0.3",
           checks.check_remaining(fit.slope - 0.3, rec.gap), True)
    gaps = rec.gap.copy()
    gaps[3] = 0.0
    expect("remaining time with a zero gap", checks.check_remaining(fit.slope, gaps), True)


def _rewrite_csv(csv_file, times, values):
    with open(csv_file, "w") as fh:
        fh.write("time,value\n")
        for t, v in zip(times, values):
            fh.write(f"{float(t)!r},{float(v)!r}\n")


def selftest_cli(work):
    depth = 5
    run, analysis = os.path.join(work, "run"), os.path.join(work, "analysis")
    with contextlib.redirect_stdout(io.StringIO()):
        cebp.cli.main(["simulate", "--family", "geometric-pairs", "--p", "0.5", "--depth",
                       str(depth), "--seed", "11", "--out", run])
        cebp.cli.main(["analyze", "--path", f"{run}.csv", "--levels", f"-{depth}:0",
                       "--out", analysis])
    expect("CLI artifacts, program", tasks.check_cli(run, analysis, depth), False)

    csv_file = f"{run}.csv"
    shutil.copy(csv_file, f"{csv_file}.orig")
    times, values = checks.read_path_csv(csv_file)
    flipped = values.copy()
    k = flipped.size // 2
    flipped[k + 1:] -= 2.0 * (values[k + 1] - values[k])
    _rewrite_csv(csv_file, times, flipped)
    expect("CLI csv with one flipped step", tasks.check_cli(run, analysis, depth), True,
           "leaf orientations")
    nudged = times.copy()
    nudged[k] = np.nextafter(nudged[k], np.inf)
    _rewrite_csv(csv_file, nudged, values)
    expect("CLI csv with one time off by an ulp", tasks.check_cli(run, analysis, depth), True)
    shutil.copy(f"{csv_file}.orig", csv_file)

    forest_file = f"{analysis}.forest.ndjson"
    with open(forest_file) as fh:
        lines = fh.readlines()
    rec = json.loads(lines[-1])
    rec["subcrossing_count"] += 2
    with open(forest_file, "w") as fh:
        fh.writelines(lines[:-1] + [json.dumps(rec, sort_keys=True) + "\n"])
    expect("CLI forest with one wrong count", tasks.check_cli(run, analysis, depth), True,
           "subcrossing counts")
    with open(forest_file, "w") as fh:
        fh.writelines(lines)

    est_file = f"{analysis}.estimates.json"
    with open(est_file) as fh:
        report = json.load(fh)
    report["estimates"]["per_level_counts"][str(-depth)] += 1
    with open(est_file, "w") as fh:
        json.dump(report, fh)
    expect("CLI estimates with one wrong level count", tasks.check_cli(run, analysis, depth), True)


def selftest_regularity():
    expect("band [3, 4.5]", checks.check_band("good", 3.0, 4.5), False)
    expect("band [1, 11]", checks.check_band("planted", 1.0, 11.0), True)
    expect("band [0, 1]", checks.check_band("planted", 0.0, 1.0), True)

    path = cebp.simulate(SimulationConfig(offspring=tasks.GEOM_HALF, depth=6,
                                          duration_mode="sampled", root_mode="tile",
                                          target_horizon=1.0, seed=5, keep_trees=False))
    chain = cebp.oscillation_table(path, 2.0 ** -4).chaining_sup
    exact = cebp.brute_force_modulus(path, 2.0 ** -4)
    expect("chaining sup, program", checks.check_chaining("good", chain, exact), False)
    expect("chaining sup 10x too large",
           checks.check_chaining("planted", 10.0 * chain, exact), True)

    rng = np.random.default_rng(6)
    half = SamplePath(*inputs.exponent_path(rng), resolution_level=-inputs.EXPONENT_DEPTH,
                      hurst=0.5, mu=4.0)
    third = cebp.simulate(SimulationConfig(offspring=tasks.GEOM_THIRD, depth=5,
                                           duration_mode="sampled", w_generations=11,
                                           root_mode="tile", target_horizon=inputs.EXPONENT_HORIZON,
                                           seed=6, keep_trees=False))
    for label, p, should_fail in (("H = 1/2 path", half, False), ("H = 1/3 path", third, True)):
        est = cebp.holder_histogram(p, 1000, range(4, 9))
        expect(f"{label} under the H = 1/2 exponent check",
               checks.check_exponents(label, est.exponents), should_fail)

    knots = np.linspace(0.0, 1.0, 4097)
    ramp = SamplePath(times=knots, values=knots.copy(), resolution_level=-12, hurst=None, mu=None)
    est = cebp.holder_histogram(ramp, 1000, range(4, 9))
    expect("linear ramp", checks.check_ramp("ramp", est.valid, 1000), False)
    est = cebp.holder_histogram(half, 1000, range(4, 9))
    expect("H = 1/2 path under the ramp check", checks.check_ramp("path", est.valid, 1000), True)

    times, values = inputs.analysis_path(rng, 9)
    forest = cebp.extract_crossing_forest(
        SamplePath(times, values, resolution_level=-9, hurst=0.5, mu=4.0), (-8, 0))
    true_ks = cebp.duration_scale_invariance(forest, mu=4.0, min_crossings=10_000)["max_ks"]
    wrong_ks = cebp.duration_scale_invariance(forest, mu=8.0, min_crossings=10_000)["max_ks"]
    expect("scale invariance, true mu and 2 mu control",
           checks.check_scale_invariance(true_ks, wrong_ks), False)
    expect("scale invariance, controls swapped",
           checks.check_scale_invariance(wrong_ks, true_ks), True)


def main():
    os.makedirs(os.path.join(ROOT, "perfbench", "work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(ROOT, "perfbench", "work"))
    try:
        selftest_w()
        selftest_increments()
        selftest_remaining()
        selftest_cli(work)
        selftest_regularity()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{sum(RESULTS)} of {len(RESULTS)} controls behave")
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    sys.exit(main())
