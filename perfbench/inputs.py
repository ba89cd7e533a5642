"""Make the sample paths that the regularity task analyses, in a process of their own.

    python3 perfbench/inputs.py --seed S --depth D --out FILE.npz

Writes two sampled geometric p = 1/2 (H = 1/2) tiled paths:

* ``analysis_*``: the first 1.75 * 4**D + 1 knots of a path tiled to
  horizon 1.8, the input of the timed whole-path analysis;
* ``exponent_*``: a depth-8 path tiled to horizon 14, on which the local
  exponent check runs.

Making them costs seconds and, when a candidate has a huge root crossing,
hundreds of megabytes; a separate process keeps both out of the workload's
timings and out of its peak resident set.
"""

import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from cebp.paths import SimulationConfig, simulate  # noqa: E402

GEOM_HALF = {"family": "geometric-pairs", "p": 0.5}

# Depth and horizon of the exponent-check path.  Over eps = 2^-4..2^-8 the
# mean local exponent of a 1.75-long path spreads by about 0.03 across seeds,
# too much for a 0.05 tolerance; a 14-long path holds 8 times the windows.
EXPONENT_DEPTH = 8
EXPONENT_HORIZON = 14.0


def analysis_path(rng, depth):
    """(times, values) of the first 1.75 * 4**depth + 1 knots of a tiled path.

    Cutting at a fixed knot count holds the analysed size steady; a whole
    tiled path's span has a coefficient of variation of 0.45.  A seed is
    kept only when its path holds at most 1.95 * 4**depth knots and its
    first root crossing ends inside the cut.  The first rule holds the cost
    of making the input steady.  The second gives the cut a complete level-0
    crossing, without which the forest over levels -8..0 is undefined.  Both
    are read off the mean-mode path at the same seed, which has the same
    trees, before the sampled path is made.
    """
    n_knots = int(1.75 * 4 ** depth) + 1
    while True:
        config = SimulationConfig(
            offspring=GEOM_HALF, depth=depth, root_mode="tile", target_horizon=1.8,
            seed=int(rng.integers(0, 2 ** 31 - 1)), keep_trees=False,
            node_budget=60_000_000)
        plan = simulate(config)
        first_root_end = int(np.argmax(np.abs(plan.values) >= 1.0))
        if plan.n_knots > 1.95 * 4 ** depth or not 0 < first_root_end < n_knots:
            continue
        config.duration_mode, config.w_generations = "sampled", 6
        full = simulate(config)
        if full.n_knots >= n_knots and np.max(np.abs(full.values[:n_knots])) >= 1.0:
            return full.times[:n_knots], full.values[:n_knots]


def exponent_path(rng):
    """(times, values) of a sampled depth-8 path tiled to horizon 14, effective depth 16."""
    path = simulate(SimulationConfig(
        offspring=GEOM_HALF, depth=EXPONENT_DEPTH, duration_mode="sampled",
        w_generations=16 - EXPONENT_DEPTH, root_mode="tile", target_horizon=EXPONENT_HORIZON,
        seed=int(rng.integers(0, 2 ** 31 - 1)), keep_trees=False, node_budget=60_000_000))
    return path.times, path.values


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--depth", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    rng = np.random.default_rng(args.seed)
    at, av = analysis_path(rng, args.depth)
    et, ev = exponent_path(rng)
    np.savez(args.out, analysis_times=at, analysis_values=av,
             exponent_times=et, exponent_values=ev)
    return 0


if __name__ == "__main__":
    sys.exit(main())
