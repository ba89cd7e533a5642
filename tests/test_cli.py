"""End-to-end checks of the command-line interface and its exit codes."""

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cebp
from cebp.cli import main
from cebp.errors import AnalysisError, BudgetError, CebpError, ConfigError
from cebp.paths import read_path_csv


def run_cli(*argv):
    try:
        return main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        return exc.code


def run_python(*args):
    """A child interpreter on the source tree of the cebp that these tests import."""
    paths = [str(Path(cebp.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


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
    code = run_cli("analyze", "--path", "run.csv", "--levels", "-3:0", "--out", "an")
    assert code == 0
    report = json.loads((tmp_path / "an.estimates.json").read_text())
    assert report["config"]["levels"] == [-3, 0]
    assert sorted(map(int, report["estimates"]["per_level_counts"])) == [-3, -2, -1, 0]


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


def test_analyze_writes_no_forest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_cli("simulate", "--family", "geometric-pairs", "--p", "0.5",
            "--depth", "5", "--seed", "5", "--out", "run")
    an = ("analyze", "--path", "run.csv", "--levels", "-5:0")
    assert run_cli(*an, "--emit-forest", "--out", "on") == 2
    assert run_cli(*an, "--out", "off") == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "off.estimates.json", "run.csv", "run.json", "run.trees.ndjson"]


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


def test_verify_artifact_records_only_the_flags_its_suites_took(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_cli("verify", "w-tail", "--samples", "2000", "--records", "5", "--level", "3",
            "--family", "poisson-pairs", "--lambda", "1", "--out", "w.json")
    config = json.loads((tmp_path / "w.json").read_text())["config"]
    assert config == {"suite": "w-tail", "seed": 0, "samples": 2000,
                      "family": "poisson-pairs", "lam": 1.0}
    # no suite of these takes --family, so neither does the artifact
    run_cli("verify", "modulus", "--H", "0.5", "--depth", "10", "--seeds", "2",
            "--l-range", "4:8", "--family", "poisson-pairs", "--lambda", "1",
            "--out", "m.json")
    config = json.loads((tmp_path / "m.json").read_text())["config"]
    assert not {"family", "lam"} & set(config)


def read_xy_csv(path):
    lines = path.read_text().splitlines()
    return lines[0], [[float(x) for x in line.split(",")] for line in lines[1:]]


def test_verify_modulus_emit_plots_writes_the_per_level_means(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_cli("verify", "modulus", "--H", "0.5", "--depth", "10", "--seeds", "2",
            "--l-range", "4:8", "--emit-plots", "--out", "m.json")
    (report,) = json.loads((tmp_path / "m.json").read_text())["reports"]
    (fam,) = report["families"]
    header, rows = read_xy_csv(tmp_path / "m.modulus.geometric-pairs_p0.5.csv")
    assert header == "l,mean_ratio"
    assert [l for l, _ in rows] == [4, 5, 6, 7, 8]
    assert [r for _, r in rows] == fam["per_level_mean"]


def test_verify_increments_emit_plots_writes_the_curve(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_cli("verify", "increments", "--records", "40", "--depth", "5", "--emit-plots",
            "--out", "i.json")
    (report,) = json.loads((tmp_path / "i.json").read_text())["reports"]
    header, rows = read_xy_csv(tmp_path / "i.increments.csv")
    assert header == "u,p_sup"
    assert len(rows) > 1
    assert [u for u, _ in rows] == report["curve"]["abscissa"]
    assert [p for _, p in rows] == report["curve"]["p_sup"]


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
    assert run_cli("simulate", "--config=cfg.json", "--out", "c4") == 0
    assert (tmp_path / "c1.csv").read_bytes() == (tmp_path / "c4.csv").read_bytes()


def test_config_file_rejects_unknown_keys(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"depht": 5}))
    assert run_cli("simulate", "--config", "cfg.json") == 2


@pytest.mark.parametrize("content", [b"{bad", b"[1, 2]"])
def test_config_file_that_is_not_a_json_object_is_usage_error(tmp_path, monkeypatch, content):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_bytes(content)
    assert run_cli("simulate", "--config", "cfg.json", "--out", "c") == 2
    assert not (tmp_path / "c.csv").exists()


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


@pytest.mark.parametrize("pmf", [
    "not-json", '{"2": null}', '{"2": [1]}', '{"2": "nan", "4": 1}',
    '{"1180591620717411303424": 0.5, "2": 0.5}',
])
def test_check_dist_bad_pmf_is_config_error(tmp_path, monkeypatch, pmf):
    monkeypatch.chdir(tmp_path)
    assert run_cli("check-dist", "--family", "custom", "--pmf", pmf) == 2


def test_simulate_nan_pmf_is_config_error(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_cli("simulate", "--family", "custom", "--pmf", '{"2": "nan", "4": 1}',
                   "--depth", "3", "--out", "run") == 2


@pytest.mark.parametrize("cls", [CebpError, ConfigError, BudgetError, AnalysisError])
def test_errors_survive_pickling(cls):
    # worker processes send their errors back pickled
    back = pickle.loads(pickle.dumps(cls("SOME_CODE", "what went wrong")))
    assert type(back) is cls
    assert (back.code, back.args, str(back)) == \
           ("SOME_CODE", ("what went wrong",), "SOME_CODE: what went wrong")


def test_worker_budget_error_keeps_its_exit_code(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = run_cli("verify", "increments", "--records", "8", "--depth", "14",
                   "--workers", "2", "--out", "inc.json")
    assert code == 3


def test_modulus_level_zero_is_config_error(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = run_cli("verify", "modulus", "--H", "0.5", "--seeds", "3",
                   "--l-range", "0:4", "--out", "mod.json")
    assert code == 2


def test_modulus_past_the_block_budget_is_budget_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = run_cli("verify", "modulus", "--H", "0.5", "--depth", "10", "--seeds", "1",
                   "--l-range", "40:40", "--out", "m.json")
    assert code == 3
    assert "BLOCK_BUDGET_EXCEEDED" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


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


@pytest.mark.parametrize("path, out", [("keep.csv", "keep"), ("./keep.csv", "{dir}/keep"),
                                       ("keep.json", "keep")],
                         ids=["same-stem", "relative-input-absolute-out", "sidecar-name"])
def test_ingest_refuses_to_overwrite_its_input(tmp_path, monkeypatch, capsys, path, out):
    monkeypatch.chdir(tmp_path)
    original = b"t,x,note\n0,0,a\n1,1,b\n2,0,c\n"
    (tmp_path / path).write_bytes(original)
    assert run_cli("ingest", "--path", path, "--out", out.format(dir=tmp_path)) == 2
    assert "INVALID_CONFIG" in capsys.readouterr().err
    assert (tmp_path / path).read_bytes() == original
    assert sorted(p.name for p in tmp_path.iterdir()) == [Path(path).name]


def test_ingest_bad_file_is_config_error(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.csv").write_text("time,value\n0,0\nnot,a,row\n")
    assert run_cli("ingest", "--path", "bad.csv") == 2
    assert run_cli("ingest", "--path", "missing.csv") == 2


def test_module_entry_point_reports_version():
    proc = run_python("-m", "cebp.cli", "--version")
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
    assert run_cli("analyze", "--path", "run.csv", "--levels", "-4:0", "--out", "a1") == 0
    assert run_cli("analyze", "--config", "a1.estimates.json", "--out", "a2") == 0
    assert (tmp_path / "a1.estimates.json").read_bytes() == \
           (tmp_path / "a2.estimates.json").read_bytes()


def test_analyze_estimates_mu_once(tmp_path, monkeypatch):
    import cebp.cli
    import cebp.extract

    calls, estimate_hurst = [], cebp.extract.estimate_hurst

    def counted(forest):
        calls.append(forest)
        return estimate_hurst(forest)

    monkeypatch.chdir(tmp_path)
    run_cli("simulate", "--family", "geometric-pairs", "--p", "0.5",
            "--depth", "8", "--seed", "11", "--out", "run")
    monkeypatch.setattr(cebp.cli, "estimate_hurst", counted)
    monkeypatch.setattr(cebp.extract, "estimate_hurst", counted)
    assert run_cli("analyze", "--path", "run.csv", "--levels", "-6:0", "--out", "a") == 0
    report = json.loads((tmp_path / "a.estimates.json").read_text())
    assert len(calls) == 1
    assert report["config"]["mu"] is None
    assert report["scale_invariance"]["mu"] == report["estimates"]["mu_hat"]


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


@pytest.mark.parametrize("params", [("--family", "poisson-pairs", "--lambda", "1e300"),
                                    ("--family", "geometric-pairs", "--p", "1e-15")])
def test_check_dist_table_past_the_budget_is_budget_error(tmp_path, monkeypatch, params):
    monkeypatch.chdir(tmp_path)
    assert run_cli("check-dist", *params, "--out", "chk.json") == 3
    assert not (tmp_path / "chk.json").exists()


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


def test_sampled_durations_refuse_negative_w_generations(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = run_cli("simulate", "--family", "geometric-pairs", "--p", "0.5",
                   "--depth", "5", "--mode", "sampled", "--w-generations", "-1")
    assert code == 2
    assert not (tmp_path / "cebp_run.csv").exists()


@pytest.mark.parametrize("mu", ["0", "-4", "nan", "inf"])
def test_analyze_refuses_a_bad_mu(tmp_path, monkeypatch, mu):
    monkeypatch.chdir(tmp_path)
    run_cli("simulate", "--family", "geometric-pairs", "--p", "0.5",
            "--depth", "6", "--seed", "11", "--out", "run")
    assert run_cli("analyze", "--path", "run.csv", "--levels", "-6:0", "--mu", mu) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.csv", "run.json",
                                                          "run.trees.ndjson"]


@pytest.mark.parametrize("least", ["0", "-5"])
def test_analyze_min_crossings_below_one_is_invalid_config(tmp_path, monkeypatch, capsys,
                                                          least):
    monkeypatch.chdir(tmp_path)
    run_cli("simulate", "--family", "geometric-pairs", "--p", "0.5",
            "--depth", "6", "--seed", "11", "--out", "run")
    assert run_cli("analyze", "--path", "run.csv", "--levels", "-6:0",
                   "--min-crossings", least, "--out", "an") == 2
    assert "INVALID_CONFIG" in capsys.readouterr().err
    assert not list(tmp_path.glob("an.*"))


@pytest.mark.parametrize("argv", [
    ("analyze", "--path", "ramp.csv", "--levels", "1100:1101"),
    ("verify", "remaining-time", "--level", "2000", "--paths", "1"),
    ("verify", "scale-invariance", "--levels", "1500:1501"),
], ids=["analyze", "remaining-time", "scale-invariance"])
def test_lattice_level_past_the_double_exponent_is_invalid_config(tmp_path, monkeypatch, capsys,
                                                                  argv):
    monkeypatch.chdir(tmp_path)
    write_ramp(tmp_path / "ramp.csv", n=4)
    assert run_cli(*argv, "--out", "out") == 2
    assert "INVALID_CONFIG: lattice level" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [tmp_path / "ramp.csv"]


def test_analyze_of_a_walk_on_a_fine_lattice_writes_its_estimates(tmp_path, monkeypatch):
    """Steps of 2^-700: the scale check must not take mu^700, which overflows a double."""
    monkeypatch.chdir(tmp_path)
    steps = np.random.default_rng(12).choice([-1.0, 1.0], size=4000) * 2.0 ** -700
    values = np.concatenate([[0.0], np.cumsum(steps)]).tolist()
    (tmp_path / "walk.csv").write_text("t,x\n" + "".join(f"{i},{v!r}\n" for i, v in enumerate(values)))
    assert run_cli("ingest", "--path", "walk.csv", "--out", "tiny") == 0
    assert run_cli("analyze", "--path", "tiny.csv", "--levels", "-700:-695", "--out", "an") == 0
    report = json.loads((tmp_path / "an.estimates.json").read_text())
    assert report["scale_invariance"]["pairs"][0]["levels"] == [-700, -699]


def test_cli_import_loads_no_scipy():
    code = "import sys, cebp.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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


SIM = ("simulate", "--family", "geometric-pairs", "--p", "0.5")
W_TAIL = ("verify", "w-tail", "--samples", "10")


@pytest.mark.parametrize("argv, config", [
    ((*SIM, "--depth", "3", "--seed", "-1"), None),
    ((*W_TAIL, "--seed", "-1"), None),
    ((*W_TAIL, "--workers", "0"), None),
    ((*W_TAIL, "--workers", "-3"), None),
    ((*SIM, "--depth", "3", "--node-budget", "0"), None),
    ((*SIM, "--depth", "3", "--node-budget", "-5"), None),
    ((*SIM, "--depth", "3"), {"seed": -3}),
    ((*SIM, "--depth", "3"), {"seed": 1.5}),
    ((*SIM, "--depth", "3"), {"seed": True}),
    ((*SIM, "--depth", "3"), {"w_generations": 2.5}),
    (SIM, {"depth": 3.5}),
    ((*SIM, "--depth", "3"), {"no_trees": "yes"}),
    ((*SIM, "--depth", "3"), {"horizon": True}),
    (W_TAIL, {"workers": 1.5}),
    ((*SIM, "--depth", "3", "--w-generations", "-1"), None),
    ((*SIM, "--depth", "3", "--horizon", "-1"), None),
    ((*SIM, "--depth", "3", "--horizon", "nan"), None),
    (("analyze", "--path", "missing.csv", "--levels", "-3:0"), {"emit_forest": True}),
    (("ingest", "--path", "missing.csv", "--time-col", "-2", "--value-col", "-1"), None),
], ids=["seed-flag", "w-tail-seed-flag", "workers-0", "workers-minus-3", "node-budget-0",
        "node-budget-minus-5", "seed-minus-3",
        "seed-float", "seed-bool", "w-generations-float", "depth-float", "no-trees-string",
        "horizon-bool", "workers-float", "mean-w-generations-minus-1", "single-horizon-minus-1",
        "single-horizon-nan", "analyze-emit-forest-key", "ingest-negative-columns"])
def test_option_of_the_wrong_type_or_range_is_invalid_config(tmp_path, monkeypatch, capsys,
                                                             argv, config):
    monkeypatch.chdir(tmp_path)
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = (*argv, "--config", "cfg.json")
    assert run_cli(*argv, "--out", "out") == 2
    assert "INVALID_CONFIG" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == ([tmp_path / "cfg.json"] if config is not None else [])


def test_config_null_leaves_the_option_at_its_default(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"seed": None, "mu": None}))
    assert run_cli(*SIM, "--depth", "4", "--config", "cfg.json", "--out", "a") == 0
    assert run_cli(*SIM, "--depth", "4", "--seed", "0", "--out", "b") == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


@pytest.mark.parametrize("argv", [
    ("analyze", "--path", "ramp.csv", "--levels", "3"),
    ("analyze", "--path", "ramp.csv", "--levels", "0:-3"),
    ("simulate", "--depth", "3"),
    ("verify", "modulus", "--H", "0.7"),
    ("verify",),
], ids=["levels-one-number", "levels-empty", "simulate-no-family", "modulus-no-family-at-H",
        "verify-no-suite"])
def test_incomplete_request_is_invalid_config(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    write_ramp(tmp_path / "ramp.csv", n=64, step=1 / 64)
    assert run_cli(*argv, "--out", "out") == 2
    assert "INVALID_CONFIG" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [tmp_path / "ramp.csv"]


def test_tiling_past_the_node_budget_is_budget_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_cli(*SIM, "--depth", "4", "--root-mode", "tile", "--horizon", "50",
                   "--node-budget", "2000", "--out", "out") == 3
    assert "NODE_BUDGET_EXCEEDED: tiling past horizon 50" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
