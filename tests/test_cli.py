"""End-to-end checks of the command-line interface and its exit codes."""

import json
import subprocess
import sys

import numpy as np
import pytest

from cebp.cli import main
from cebp.extract import extract_crossing_forest
from cebp.paths import read_path_csv


def run_cli(*argv):
    try:
        return main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        return exc.code


def write_ramp(path, n=2, step=1.0):
    with open(path, "w") as fh:
        fh.write("time,value\n")
        for i in range(n + 1):
            fh.write(f"{i * step},{i * step}\n")


def test_simulate_is_byte_identical_across_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for tag in ("a", "b"):
        code = run_cli("simulate", "--family", "geometric-pairs", "--p", "0.5",
                       "--depth", "5", "--seed", "7", "--out", tag)
        assert code == 0
    for suffix in (".csv", ".json", ".trees.ndjson"):
        assert (tmp_path / f"a{suffix}").read_bytes() == \
               (tmp_path / f"b{suffix}").read_bytes()


def test_simulate_embeds_provenance(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_cli("simulate", "--family", "fixed-pairs", "--b", "2",
            "--depth", "4", "--seed", "3", "--out", "run")
    meta = json.loads((tmp_path / "run.json").read_text())
    assert meta["tool"] == "cebp"
    assert meta["version"]
    assert meta["config"]["seed"] == 3
    assert meta["config"]["depth"] == 4


def test_simulate_missing_depth_is_usage_error(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = run_cli("simulate", "--family", "geometric-pairs", "--p", "0.5",
                   "--seed", "1")
    assert code == 2


def test_simulate_huge_depth_is_budget_error(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = run_cli("simulate", "--family", "geometric-pairs", "--p", "0.5",
                   "--depth", "40", "--seed", "1")
    assert code == 3


def test_analyze_short_path_is_analysis_error(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_ramp(tmp_path / "ramp.csv", n=1)
    code = run_cli("analyze", "--path", "ramp.csv", "--levels", "5:5")
    assert code == 4


def test_analyze_parses_negative_level_range(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_cli("simulate", "--family", "geometric-pairs", "--p", "0.5",
            "--depth", "6", "--root-mode", "tile", "--horizon", "8",
            "--seed", "11", "--out", "run")
    code = run_cli("analyze", "--path", "run.csv", "--levels", "-3:0",
                   "--out", "an")
    assert code == 0
    report = json.loads((tmp_path / "an.estimates.json").read_text())
    assert report["config"]["levels"] == [-3, 0]
    levels = {rec["level"] for rec in map(
        json.loads, (tmp_path / "an.forest.ndjson").read_text().splitlines())}
    assert levels <= {-3, -2, -1, 0}


def test_analyze_emit_plots_writes_two_column_csv(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_cli("simulate", "--family", "geometric-pairs", "--p", "0.5",
            "--depth", "6", "--seed", "11", "--out", "run")
    run_cli("analyze", "--path", "run.csv", "--levels", "-4:-1",
            "--emit-plots", "--out", "an")
    lines = (tmp_path / "an.mean_duration.csv").read_text().splitlines()
    assert lines[0] == "level,mean_duration"
    assert all(len(line.split(",")) == 2 for line in lines[1:])
    assert len(lines) >= 3


def test_analyze_forest_matches_json_reference(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_cli("simulate", "--family", "geometric-pairs", "--p", "0.5", "--depth", "7",
            "--mode", "sampled", "--root-mode", "tile", "--horizon", "2",
            "--seed", "5", "--no-trees", "--out", "run")
    assert run_cli("analyze", "--path", "run.csv", "--levels", "-7:0", "--out", "an") == 0
    forest = extract_crossing_forest(read_path_csv("run.csv", "run.json"), (-7, 0))
    expected = [
        json.dumps({
            "level": level,
            "position": i,
            "start_time": float(rec.start_times[i]),
            "end_time": float(rec.end_times[i]),
            "orientation": "+" if rec.orientations[i] > 0 else "-",
            "subcrossing_count": int(rec.subcrossing_counts[i]),
        }, sort_keys=True) + "\n"
        for level, rec in sorted(forest.levels.items())
        for i in range(rec.n)
    ]
    assert any("e-05, " in line for line in expected)
    with open(tmp_path / "an.forest.ndjson") as fh:
        assert fh.readlines() == expected


def test_verify_unknown_suite_is_usage_error(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_cli("verify", "no-such-suite") == 2


def test_verify_assumptions_with_lambda_flag(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = run_cli("verify", "assumptions", "--family", "poisson-pairs",
                   "--lambda", "1", "--out", "vass.json")
    assert code == 0
    report = json.loads((tmp_path / "vass.json").read_text())
    assert report["all_pass"] is True
    fam = report["reports"][0]["families"][0]
    assert fam["family"].startswith("poisson-pairs")
    assert fam["mu"] == 4.0


def test_verify_artifact_rerun_is_byte_identical(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = run_cli("verify", "scale-invariance", "--depth", "9",
                   "--seed", "5", "--out", "v1.json")
    assert code == 0
    code = run_cli("verify", "--config", "v1.json", "--out", "v2.json")
    assert code == 0
    assert (tmp_path / "v1.json").read_bytes() == \
           (tmp_path / "v2.json").read_bytes()


def test_verify_worker_count_stays_out_of_artifact(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_cli("verify", "scale-invariance", "--depth", "9", "--seed", "5",
            "--workers", "2", "--out", "v4.json")
    run_cli("verify", "scale-invariance", "--depth", "9", "--seed", "5",
            "--workers", "1", "--out", "v1.json")
    assert (tmp_path / "v1.json").read_bytes() == \
           (tmp_path / "v4.json").read_bytes()


def test_verify_failing_suite_exits_nonzero(tmp_path, monkeypatch):
    # far too few samples to resolve the deep tail window: the fit is noisy
    # enough that the r-squared gate rejects it, so the verdict must fail
    monkeypatch.chdir(tmp_path)
    code = run_cli("verify", "w-tail", "--family", "geometric-pairs",
                   "--p", "0.5", "--samples", "2000", "--seed", "0",
                   "--out", "vfail.json")
    assert code == 4
    report = json.loads((tmp_path / "vfail.json").read_text())
    assert report["all_pass"] is False


def test_config_file_supplies_defaults_and_flags_override(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = {"family": "geometric-pairs", "p": 0.5, "depth": 5, "seed": 7}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert run_cli("simulate", "--config", "cfg.json", "--out", "c1") == 0
    assert run_cli("simulate", "--family", "geometric-pairs", "--p", "0.5",
                   "--depth", "5", "--seed", "7", "--out", "c2") == 0
    assert (tmp_path / "c1.csv").read_bytes() == (tmp_path / "c2.csv").read_bytes()
    assert run_cli("simulate", "--config", "cfg.json", "--seed", "8",
                   "--out", "c3") == 0
    assert (tmp_path / "c1.csv").read_bytes() != (tmp_path / "c3.csv").read_bytes()


def test_config_file_rejects_unknown_keys(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"depht": 5}))
    assert run_cli("simulate", "--config", "cfg.json") == 2


def test_simulate_rerun_from_sidecar_config(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_cli("simulate", "--family", "poisson-pairs", "--lambda", "0.5",
            "--depth", "5", "--mode", "sampled", "--seed", "9", "--out", "r1")
    code = run_cli("simulate", "--config", "r1.json", "--out", "r2")
    assert code == 0
    assert (tmp_path / "r1.csv").read_bytes() == (tmp_path / "r2.csv").read_bytes()


def test_check_dist_passes_stock_family(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = run_cli("check-dist", "--family", "geometric-pairs", "--p", "0.5",
                   "--out", "chk.json")
    assert code == 0
    report = json.loads((tmp_path / "chk.json").read_text())
    assert report["passed"] is True
    assert report["mu"] == 4.0


def test_check_dist_flags_zero_shift_violation(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = run_cli("check-dist", "--family", "custom",
                   "--pmf", '{"2": 0.9, "10": 0.1}', "--zeta-max", "0",
                   "--out", "chk.json")
    assert code == 4
    report = json.loads((tmp_path / "chk.json").read_text())
    assert report["dominance"]["passed"] is False
    assert report["dominance"]["violations"]


def test_check_dist_bad_pmf_is_config_error(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_cli("check-dist", "--family", "custom", "--pmf", "not-json") == 2


def test_ingest_normalizes_external_csv(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(5)
    steps = rng.choice([-1.0, 1.0], size=64)
    with open(tmp_path / "ext.csv", "w") as fh:
        fh.write("t,x\n")
        value = 0.0
        for i, s in enumerate(steps):
            fh.write(f"{float(i)},{value}\n")
            value += s
    code = run_cli("ingest", "--path", "ext.csv", "--out", "norm")
    assert code == 0
    path = read_path_csv(str(tmp_path / "norm.csv"),
                         str(tmp_path / "norm.json"))
    assert path.n_knots == 64
    assert path.resolution_level == 0
    assert path.meta["command"] == "ingest"


def test_ingest_bad_file_is_config_error(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.csv").write_text("time,value\n0,0\nnot,a,row\n")
    assert run_cli("ingest", "--path", "bad.csv") == 2
    assert run_cli("ingest", "--path", "missing.csv") == 2


def test_module_entry_point_reports_version():
    proc = subprocess.run(
        [sys.executable, "-m", "cebp.cli", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("cebp ")


def test_analyze_and_ingest_reject_non_finite_values(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_cli("simulate", "--family", "geometric-pairs", "--p", "0.5",
            "--depth", "4", "--seed", "1", "--out", "run")
    lines = (tmp_path / "run.csv").read_text().splitlines()
    lines[5] = lines[5].split(",")[0] + ",nan"
    (tmp_path / "run.csv").write_text("\n".join(lines) + "\n")
    assert run_cli("analyze", "--path", "run.csv", "--levels", "-4:0") == 2
    assert run_cli("ingest", "--path", "run.csv") == 2


def test_analyze_reruns_from_its_estimates(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_cli("simulate", "--family", "geometric-pairs", "--p", "0.5",
            "--depth", "6", "--seed", "11", "--out", "run")
    assert run_cli("analyze", "--path", "run.csv", "--levels", "-4:0",
                   "--out", "a1") == 0
    assert run_cli("analyze", "--config", "a1.estimates.json", "--out", "a2") == 0
    assert (tmp_path / "a1.estimates.json").read_bytes() == \
           (tmp_path / "a2.estimates.json").read_bytes()
    assert (tmp_path / "a1.forest.ndjson").read_bytes() == \
           (tmp_path / "a2.forest.ndjson").read_bytes()


def test_analyze_and_ingest_without_path_are_usage_errors(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_ramp(tmp_path / "ramp.csv", n=4)
    assert run_cli("analyze", "--levels", "0:1") == 2
    assert run_cli("analyze", "--path", "ramp.csv") == 2
    assert run_cli("ingest") == 2


def test_sampled_durations_past_overflow_guard_are_budget_errors(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = run_cli("simulate", "--family", "geometric-pairs", "--p", "0.5",
                   "--depth", "3", "--mode", "sampled", "--w-generations", "33")
    assert code == 3


def test_verify_zero_counts_are_usage_errors(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_cli("verify", "w-tail", "--samples", "0", "--out", "w.json") == 2
    assert run_cli("verify", "modulus", "--seeds", "0", "--out", "m.json") == 2
    assert not (tmp_path / "w.json").exists()
    assert not (tmp_path / "m.json").exists()


def test_verify_increments_and_modulus_are_worker_invariant(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for workers in ("1", "3"):
        run_cli("verify", "increments", "--records", "40", "--depth", "5",
                "--seed", "2", "--workers", workers, "--out", f"i{workers}.json")
        run_cli("verify", "modulus", "--H", "0.5", "--depth", "10", "--seeds", "2",
                "--l-range", "4:8", "--seed", "2", "--workers", workers,
                "--out", f"m{workers}.json")
    assert (tmp_path / "i1.json").read_bytes() == (tmp_path / "i3.json").read_bytes()
    assert (tmp_path / "m1.json").read_bytes() == (tmp_path / "m3.json").read_bytes()


def test_verify_all_rejects_bad_flags_before_running_a_suite(tmp_path, monkeypatch):
    import cebp.cli

    def no_run(*args, **kwargs):
        raise AssertionError("a suite ran before the flags were checked")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cebp.cli, "run_suite", no_run)
    # --depth 9 is below the modulus suite's tree depth of 10
    assert run_cli("verify", "all", "--depth", "9") == 2


def test_analyze_and_ingest_reject_non_utf8_csv(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bin.csv").write_bytes(b"\xff\xfe")
    assert run_cli("analyze", "--path", "bin.csv", "--levels", "-4:0") == 2
    assert run_cli("ingest", "--path", "bin.csv") == 2


@pytest.mark.parametrize("sidecar", ["{bad", "[1,2]", '{"resolution_level": "x"}'])
def test_analyze_rejects_unreadable_sidecar(tmp_path, monkeypatch, sidecar):
    monkeypatch.chdir(tmp_path)
    write_ramp(tmp_path / "ramp.csv", n=4)
    (tmp_path / "ramp.json").write_text(sidecar)
    assert run_cli("analyze", "--path", "ramp.csv", "--levels", "0:1") == 2
