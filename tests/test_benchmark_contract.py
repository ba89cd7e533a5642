"""The benchmark's `roundtrip` and remaining-time checks pass on small runs.

`perfbench/checks.py` reads the `simulate` and `analyze` artifacts with the
standard library alone and checks them against closed forms; it also checks
the remaining-time records' chord slope and gaps.  These tests run those
checks on small runs made with the benchmark's own calls, so that an artifact
layout change, or a change to the records' signature or law, that would break
the benchmark fails here first.  A change to the benchmark that edits
`checks.py` or those calls updates these tests with it.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

import cebp
from cebp.cli import main
from cebp.paths import SimulationConfig, read_path_csv

CHECKS_FILE = Path(__file__).parents[1] / "perfbench" / "checks.py"
DEPTH = 5


@pytest.fixture(scope="module")
def checks():
    """perfbench's checks module, loaded from its file without touching sys.path."""
    spec = importlib.util.spec_from_file_location("perfbench_checks", CHECKS_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    work = tmp_path_factory.mktemp("roundtrip")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(work)
        assert main(["simulate", "--family", "geometric-pairs", "--p", "0.5",
                     "--depth", str(DEPTH), "--seed", "3", "--out", "run"]) == 0
        assert main(["analyze", "--path", "run.csv", "--levels", f"-{DEPTH}:0",
                     "--out", "analysis"]) == 0
    return work


def test_roundtrip_checks_pass_on_the_cli_artifacts(checks, run):
    times, values = checks.read_path_csv(run / "run.csv")
    tree = checks.read_tree_levels(run / "run.trees.ndjson")
    estimates = json.loads((run / "analysis.estimates.json").read_text())["estimates"]
    assert checks.check_csv_lattice(times, values, DEPTH) == []
    assert checks.check_leaves_match_steps(tree, values, DEPTH) == []
    assert checks.check_estimates(tree, estimates, DEPTH) == []


def test_benchmark_and_program_read_the_same_path(checks, run):
    """The benchmark checks the very arrays that `analyze` reads from the CSV."""
    path = read_path_csv(run / "run.csv")
    for ours, theirs in zip((path.times, path.values), checks.read_path_csv(run / "run.csv")):
        assert np.array_equal(ours.view(np.int64), theirs.view(np.int64))


def test_tree_reader_needs_the_z_field(checks, run, tmp_path):
    """Control: the benchmark's tree reader fails on lines without z."""
    recs = [json.loads(line) for line in (run / "run.trees.ndjson").read_text().splitlines()]
    no_z = tmp_path / "no_z.trees.ndjson"
    no_z.write_text("".join(json.dumps({k: v for k, v in rec.items() if k != "z"}) + "\n"
                            for rec in recs))
    with pytest.raises(KeyError):
        checks.read_tree_levels(no_z)


def test_remaining_checks_pass_on_the_records(checks):
    """The probe scale of the benchmark's `rem` task: depth 8, 2 paths, level -6."""
    batches = []
    for i, seed in enumerate((1, 2)):
        path = cebp.simulate(SimulationConfig(
            offspring={"family": "geometric-pairs", "p": 0.5}, depth=8, duration_mode="sampled",
            seed=seed, keep_trees=False))
        batches.append(cebp.remaining_time_records(
            path, level=-6, n_queries=10_000, master_seed=3, query_index=i))
    fit = cebp.remaining_time_tail(batches)
    assert checks.check_remaining(fit.slope, np.concatenate([b.gap for b in batches])) == []
