"""Command-line front end.

Subcommands: simulate | analyze | verify | check-dist | ingest.  Exit codes:
0 success, 2 configuration or usage error, 3 resource budget exceeded,
4 analysis failure (including a failed verification verdict).

A JSON config file supplies defaults; explicit flags override it.  Every
artifact embeds {tool, version, command, config} so a run can be reproduced
from its own output.  ``--emit-plots`` adds two-column CSVs next to the main
artifact for plotting without extra dependencies.
"""

import argparse
import json
import os
import re
import sys

from . import __version__
from .errors import EXIT_ANALYSIS, EXIT_CONFIG, AnalysisError, CebpError, ConfigError
from .extract import duration_scale_invariance, estimate_hurst, extract_crossing_forest
from .offspring import check_assumption_gw, check_assumption_z, make_offspring
from .paths import (SimulationConfig, ingest_csv, read_path_csv, simulate, write_path_csv,
                    write_xy_csv)
from .treeio import write_trees
from .verify import MODULUS_SPECS, SUITES, run_suite

_RANGE = re.compile(r"^-?\d+:-?\d+$")


def _preprocess_argv(argv):
    """Join range values onto their flags so argparse accepts '-3:0'."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--levels", "--l-range") and i + 1 < len(argv) \
                and _RANGE.match(argv[i + 1]):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _parse_range(text):
    if isinstance(text, (list, tuple)):
        return int(text[0]), int(text[1])
    if not _RANGE.match(text):
        raise ConfigError("INVALID_CONFIG", f"expected lo:hi range, got {text!r}")
    lo, hi = (int(part) for part in text.split(":"))
    if lo > hi:
        raise ConfigError("INVALID_CONFIG", f"range {text!r} is empty")
    return lo, hi


def _family_spec(args, required=True):
    if args.family is None:
        if required:
            raise ConfigError("INVALID_CONFIG", "no --family given")
        return None
    spec = {"family": args.family}
    for key in ("p", "lam", "b"):
        value = getattr(args, key, None)
        if value is not None:
            spec[key] = value
    if getattr(args, "pmf", None) is not None:
        table = args.pmf
        if not isinstance(table, dict):
            try:
                table = json.loads(table)
            except ValueError as exc:
                raise ConfigError("INVALID_PMF", f"cannot parse --pmf: {exc}") from exc
        try:
            spec["pmf"] = {int(k): float(v) for k, v in table.items()}
        except (ValueError, AttributeError, TypeError) as exc:
            raise ConfigError("INVALID_PMF", f"cannot parse --pmf: {exc}") from exc
    return spec


def _add_family_args(parser):
    parser.add_argument("--family", help="offspring family name")
    parser.add_argument("--p", type=float, help="geometric-pairs parameter")
    parser.add_argument("--lambda", dest="lam", type=float,
                        help="poisson-pairs parameter")
    parser.add_argument("--b", type=int, help="fixed-pairs parameter")
    parser.add_argument("--pmf", help="custom family pmf as a JSON object")


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True, default=str)
        fh.write("\n")


def _artifact(command, config, **body):
    out = {"tool": "cebp", "version": __version__,
           "command": command, "config": config}
    out.update(body)
    return out


# ---------------------------------------------------------------------------
# subcommands

def cmd_simulate(args):
    spec = _family_spec(args)
    if args.depth is None:
        raise ConfigError("INVALID_CONFIG", "simulate needs --depth")
    config = SimulationConfig(
        offspring=spec,
        depth=args.depth,
        duration_mode=args.mode,
        w_generations=args.w_generations,
        root_mode=args.root_mode,
        target_horizon=args.horizon,
        seed=args.seed,
        node_budget=args.node_budget,
        keep_trees=not args.no_trees,
    )
    path = simulate(config)
    resolved = dict(spec)
    resolved.update(
        depth=args.depth, mode=args.mode, w_generations=args.w_generations,
        root_mode=args.root_mode, horizon=args.horizon, seed=args.seed,
        node_budget=args.node_budget,
    )
    path.meta.update(_artifact("simulate", resolved))
    write_path_csv(path, f"{args.out}.csv", f"{args.out}.json")
    if path.trees is not None:
        write_trees(path.trees, f"{args.out}.trees.ndjson")
    print(f"wrote {args.out}.csv ({path.n_knots} knots, span {path.span:.6g})")
    return 0


def cmd_analyze(args):
    if args.path is None or args.levels is None:
        raise ConfigError("INVALID_CONFIG", "analyze needs --path and --levels")
    sidecar = args.sidecar
    if sidecar is None:
        candidate = re.sub(r"\.csv$", ".json", args.path)
        if candidate != args.path and os.path.exists(candidate):
            sidecar = candidate
    path = read_path_csv(args.path, sidecar)
    levels = _parse_range(args.levels)
    forest = extract_crossing_forest(path, levels)
    estimates = estimate_hurst(forest)
    report = _artifact(
        "analyze",
        {"path": args.path, "sidecar": args.sidecar, "levels": list(levels),
         "mu": args.mu, "min_crossings": args.min_crossings},
        estimates=estimates,
    )
    try:
        report["scale_invariance"] = duration_scale_invariance(
            forest, mu=estimates["mu_hat"] if args.mu is None else args.mu,
            min_crossings=args.min_crossings,
        )
    except AnalysisError as exc:
        report["scale_invariance"] = {"error": str(exc)}
    _write_json(f"{args.out}.estimates.json", report)
    if args.emit_plots:
        ns = sorted(n for n in forest.levels if forest.levels[n].n)
        write_xy_csv(
            f"{args.out}.mean_duration.csv", "level,mean_duration",
            ns, [forest.levels[n].durations.mean() for n in ns],
        )
    print(f"hurst_hat {estimates['hurst_hat']:.4f} "
          f"(mu_hat {estimates['mu_hat']:.4f}, "
          f"stderr {estimates['stderr']:.4f})")
    return 0


def _modulus_specs(args):
    """MODULUS_SPECS narrowed by --H and moved to the effective --depth."""
    specs = list(MODULUS_SPECS)
    if args.hurst is not None:
        specs = [s for s in specs
                 if abs(make_offspring(**s["family"]).hurst - args.hurst) < 1e-9]
        if not specs:
            raise ConfigError("INVALID_CONFIG", f"no modulus family with H={args.hurst}")
    if args.depth is not None:
        adjusted = []
        for s in specs:
            k = args.depth - s["depth"]
            if k < 0:
                raise ConfigError(
                    "INVALID_CONFIG",
                    f"effective depth {args.depth} below tree depth {s['depth']}",
                )
            adjusted.append({**s, "w_generations": k})
        specs = adjusted
    return tuple(specs)


# Per suite: (flag dest, suite keyword) for each flag the suite takes.  Every
# flag that is given reaches its suite; --family goes in as the family spec,
# or as a one-element list where the suite takes several families.
_SUITE_FLAGS = {
    "w-tail": (("family", "families"), ("samples", "n_samples")),
    "increments": (("family", "family"), ("records", "n_records"), ("t", "t"),
                   ("depth", "depth")),
    "remaining-time": (("family", "family"), ("paths", "n_paths"),
                       ("queries", "queries_per_path"), ("level", "level"),
                       ("depth", "depth")),
    "modulus": (("hurst", "specs"), ("depth", "specs"), ("seeds", "n_seeds"),
                ("l_range", "l_range")),
    "scale-invariance": (("family", "family"), ("depth", "depth"),
                         ("levels", "levels")),
    "assumptions": (("family", "families"),),
}


def _suite_kwargs(name, args, spec):
    kw = {}
    for dest, key in _SUITE_FLAGS[name]:
        value = getattr(args, dest)
        if value is None:
            continue
        if key == "specs":
            value = _modulus_specs(args)
        elif dest == "family":
            value = [spec] if key == "families" else spec
        elif dest in ("levels", "l_range"):
            value = _parse_range(value)
        kw[key] = value
    return kw


def cmd_verify(args):
    if args.suite is None:
        raise ConfigError("INVALID_CONFIG", "no verification suite given")
    if args.suite != "all" and args.suite not in SUITES:
        raise ConfigError(
            "INVALID_CONFIG",
            f"unknown suite {args.suite!r} (options: {', '.join(SUITES)}, all)",
        )
    names = list(SUITES) if args.suite == "all" else [args.suite]
    spec = _family_spec(args, required=False)
    # resolve every suite's flags before the first suite runs, so a bad flag
    # fails at once rather than after the suites ahead of it
    kwargs = [(name, _suite_kwargs(name, args, spec)) for name in names]
    reports = [run_suite(name, seed=args.seed, workers=args.workers, **kw)
               for name, kw in kwargs]
    all_pass = all(r["pass"] for r in reports)
    # Only the flags a selected suite took (--config may carry others); workers
    # stays out too: results are worker-invariant, so runs stay byte-comparable.
    resolved = {"suite": args.suite, "seed": args.seed}
    flags = {dest for name in names for dest, _ in _SUITE_FLAGS[name]}
    if "family" in flags:
        flags |= {"p", "lam", "b", "pmf"}
    for key in sorted(flags):
        value = getattr(args, key)
        if value is not None:
            resolved[key] = value
    artifact = _artifact(
        "verify",
        resolved,
        reports=reports,
        all_pass=bool(all_pass),
    )
    _write_json(args.out, artifact)
    if args.emit_plots:
        _emit_verify_plots(args.out, reports)
    for r in reports:
        print(f"{r['suite']}: {'pass' if r['pass'] else 'FAIL'}")
    if not all_pass:
        print("verification failed", file=sys.stderr)
        return EXIT_ANALYSIS
    return 0


def _emit_verify_plots(out, reports):
    base = out[:-5] if out.endswith(".json") else out
    for r in reports:
        if r["suite"] == "increments" and "curve" in r:
            write_xy_csv(f"{base}.increments.csv", "u,p_sup",
                         r["curve"]["abscissa"], r["curve"]["p_sup"])
        if r["suite"] == "modulus":
            for fam in r["families"]:
                tag = fam["family"].replace("(", "_").replace(")", "").replace("=", "")
                lo, hi = r["config"]["l_range"]
                write_xy_csv(f"{base}.modulus.{tag}.csv", "l,mean_ratio",
                             list(range(lo, hi + 1)), fam["per_level_mean"])


def cmd_check_dist(args):
    spec = _family_spec(args)
    dist = make_offspring(**spec)
    gw = check_assumption_gw(dist)
    dom = check_assumption_z(dist, zeta_max=args.zeta_max, y_max=args.y_max)
    report = _artifact(
        "check-dist",
        {**spec, "zeta_max": args.zeta_max, "y_max": args.y_max},
        mu=dist.mu, hurst=dist.hurst,
        gw=gw,
        dominance={
            "zeta": dom.zeta,
            "checked_y_range": list(dom.checked_y_range),
            "violations": [list(v) for v in dom.violations],
            "passed": dom.passed,
        },
        passed=bool(gw["passed"] and dom.passed),
    )
    if args.out:
        _write_json(args.out, report)
    print(json.dumps(report, indent=1, sort_keys=True, default=str))
    return 0 if report["passed"] else EXIT_ANALYSIS


def cmd_ingest(args):
    if args.path is None:
        raise ConfigError("INVALID_CONFIG", "ingest needs --path")
    outputs = f"{args.out}.csv", f"{args.out}.json"
    if os.path.exists(args.path) and any(os.path.exists(out) and os.path.samefile(out, args.path)
                                         for out in outputs):
        raise ConfigError("INVALID_CONFIG", f"--out {args.out} would overwrite {args.path}")
    path = ingest_csv(args.path, time_col=args.time_col,
                      value_col=args.value_col, anchor_origin=args.anchor)
    path.meta.update(_artifact("ingest", {
        "path": args.path, "time_col": args.time_col,
        "value_col": args.value_col, "anchor": args.anchor,
    }))
    write_path_csv(path, *outputs)
    print(f"wrote {args.out}.csv ({path.n_knots} knots, "
          f"resolution level {path.resolution_level})")
    return 0


# ---------------------------------------------------------------------------
# parser

def build_parser():
    return _build()[0]


def _build():
    """The parser, and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="cebp",
        description="Crossing-tree simulation and verification for canonical "
                    "embedded branching processes",
    )
    parser.add_argument("--version", action="version", version=f"cebp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="simulate a sample path")
    _add_family_args(p_sim)
    p_sim.add_argument("--depth", type=int)
    p_sim.add_argument("--mode", choices=["mean", "sampled"], default=SimulationConfig.duration_mode)
    p_sim.add_argument("--w-generations", type=int, default=SimulationConfig.w_generations)
    p_sim.add_argument("--root-mode", choices=["single", "tile"], default=SimulationConfig.root_mode)
    p_sim.add_argument("--horizon", type=float, default=SimulationConfig.target_horizon)
    p_sim.add_argument("--seed", type=int, default=SimulationConfig.seed)
    p_sim.add_argument("--node-budget", type=int, default=SimulationConfig.node_budget)
    p_sim.add_argument("--no-trees", action="store_true",
                       help="skip the tree NDJSON artifact")
    p_sim.add_argument("--out", default="cebp_run")
    p_sim.set_defaults(fn=cmd_simulate)

    p_an = sub.add_parser("analyze", help="extract crossings and estimates")
    p_an.add_argument("--path", help="path CSV file")
    p_an.add_argument("--sidecar",
                      help="path sidecar JSON (default: <path>.json if present)")
    p_an.add_argument("--levels", help="inclusive lattice range lo:hi")
    p_an.add_argument("--mu", type=float, help="scale factor for invariance check")
    p_an.add_argument("--min-crossings", type=int, default=100,
                      help="least crossings per level in the invariance check (>= 1)")
    p_an.add_argument("--emit-plots", action="store_true",
                      help="also write <out>.mean_duration.csv")
    p_an.add_argument("--out", default="cebp_analysis")
    p_an.set_defaults(fn=cmd_analyze)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("suite", nargs="?", default=None,
                       help=f"one of {', '.join(SUITES)}, or all")
    _add_family_args(p_ver)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--workers", type=int, default=1)
    p_ver.add_argument("--samples", type=int, help="w-tail sample count")
    p_ver.add_argument("--records", type=int, help="increment record count")
    p_ver.add_argument("--paths", type=int, help="remaining-time path count")
    p_ver.add_argument("--queries", type=int, help="remaining-time queries per path")
    p_ver.add_argument("--t", type=float, help="increment lag")
    p_ver.add_argument("--level", type=int, help="remaining-time lattice level")
    p_ver.add_argument("--levels", help="scale-invariance level range lo:hi")
    p_ver.add_argument("--depth", type=int,
                       help="tree depth (modulus: effective depth incl. W chain)")
    p_ver.add_argument("--H", dest="hurst", type=float,
                       help="modulus: restrict to the family with this index")
    p_ver.add_argument("--seeds", type=int, help="modulus: ensemble size")
    p_ver.add_argument("--l-range", help="modulus: block level range lo:hi")
    p_ver.add_argument("--emit-plots", action="store_true")
    p_ver.add_argument("--out", default="cebp_verify.json")
    p_ver.set_defaults(fn=cmd_verify)

    p_chk = sub.add_parser("check-dist", help="check offspring assumptions")
    _add_family_args(p_chk)
    p_chk.add_argument("--zeta-max", type=int, default=None)
    p_chk.add_argument("--y-max", type=int, default=None)
    p_chk.add_argument("--out")
    p_chk.set_defaults(fn=cmd_check_dist)

    p_ing = sub.add_parser("ingest", help="normalize an external path CSV")
    p_ing.add_argument("--path")
    p_ing.add_argument("--time-col", type=int, default=0)
    p_ing.add_argument("--value-col", type=int, default=1)
    p_ing.add_argument("--anchor", action="store_true",
                       help="shift values to start at 0")
    p_ing.add_argument("--out", default="cebp_ingested")
    p_ing.set_defaults(fn=cmd_ingest)

    return parser, sub.choices


def _apply_config_file(commands, argv):
    """Pre-scan for --config and install its values as subcommand defaults."""
    cfg_path = None
    rest = []
    i = 0
    while i < len(argv):
        if argv[i] == "--config" and i + 1 < len(argv):
            cfg_path = argv[i + 1]
            i += 2
        elif argv[i].startswith("--config="):
            cfg_path = argv[i].split("=", 1)[1]
            i += 1
        else:
            rest.append(argv[i])
            i += 1
    if cfg_path is None:
        return rest
    try:
        with open(cfg_path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError("PARSE_ERROR", f"config file {cfg_path}: {exc}") from exc
    if isinstance(data, dict) and "config" in data and "command" in data:
        data = data["config"]  # artifact file: reuse its embedded config
    if not isinstance(data, dict):
        raise ConfigError("INVALID_CONFIG", "config file must hold a JSON object")
    # no subcommand option is required, so parsing no arguments yields each
    # subcommand's full set of option names
    dests = {p: set(vars(p.parse_args([]))) - {"fn"} for p in commands.values()}
    unknown = set(data).difference(*dests.values())
    if unknown:
        raise ConfigError(
            "INVALID_CONFIG", f"unknown config keys: {', '.join(sorted(unknown))}"
        )
    for p in commands.values():    # a value must be of the JSON type its flag would parse to
        for action in p._actions:
            want = (bool,) if isinstance(action, argparse._StoreTrueAction) else \
                {int: (int,), float: (int, float)}.get(action.type)
            value = data.get(action.dest)
            if want and value is not None and type(value) not in want:
                raise ConfigError("INVALID_CONFIG", f"config key {action.dest!r} must be "
                                  f"{' or '.join(t.__name__ for t in want)}, got {value!r}")
    for p, names in dests.items():     # a null leaves the option at its default
        p.set_defaults(**{k: v for k, v in data.items() if k in names and v is not None})
    return rest


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = _build()
    try:
        argv = _apply_config_file(commands, _preprocess_argv(argv))
        args = parser.parse_args(argv)
        for name, least in (("seed", 0), ("workers", 1)):  # SeedSequence and the pool take no less
            if getattr(args, name, least) < least:
                raise ConfigError("INVALID_CONFIG",
                                  f"{name} must be >= {least}, got {getattr(args, name)}")
        return args.fn(args)
    except CebpError as exc:
        print(f"error {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
