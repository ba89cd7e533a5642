"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` the last line of standard output carries every
end-to-end metric; with ``--trace 1`` it carries the per-layer metrics of one
traced round, whose inputs repeat an untraced round run just before it (the
difference in wall time is the tracing overhead).  Each run also writes a
record under ``perfbench/out/``.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, "perfbench", "out")
WORK_DIR = os.path.join(ROOT, "perfbench", "work")

# A fresh interpreter that imports the package and builds the CLI parser.
SETUP_CODE = "import sys; sys.path.insert(0, 'src'); import cebp.cli; cebp.cli.build_parser()"
SETUP_REPEATS = 3


def measure_setup_s():
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_value(values, better):
    """A run's value of a metric: the mean time, or total work over total time for a rate.

    Every repeat of a task does the same work, so the harmonic mean of its
    rates is its work per second over the run.  This machine switches between
    a contended speed and one up to 2.8 times faster, for seconds to minutes
    at a time; a mean over the run weighs both as they came, where a median
    or a quartile flips with the share of samples each one caught.
    """
    return statistics.fmean(values) if better == "lower" else statistics.harmonic_mean(values)


def git_revision():
    """HEAD of the checkout's .git directory, or None outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def src_lines():
    total = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as fh:
                    total += sum(1 for _ in fh)
    return total


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.exists(os.path.join(SRC, "cebp", "__init__.py")):
        print(f"perfbench: no cebp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy
    import scipy

    import tasks
    from spans import PER_LAYER, Tracer

    if args.workload not in tasks.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(options: {', '.join(tasks.WORKLOADS)})", file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    os.makedirs(WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    started = time.perf_counter()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "git_revision": git_revision(), "src_lines": src_lines(),
              "python": platform.python_version(), "numpy": numpy.__version__,
              "scipy": scipy.__version__, "machine": platform.processor() or platform.machine(),
              "cpus": os.cpu_count()}
    try:
        if args.trace:
            reference = tasks.Context(work, run_checks=False)
            tasks.run_round(reference, args.workload, args.seed, 0)
            tracer = Tracer()
            tracer.install()
            ctx = tasks.Context(work, tracer=tracer)
            tasks.run_round(ctx, args.workload, args.seed, 0)
            values = tracer.per_layer(ctx.ops_s - reference.ops_s)
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit, _ in PER_LAYER}
            tracer.dump(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json"))
            attempted = reference.attempted + ctx.attempted
            failed = reference.failed + ctx.failed
            errors = reference.errors + ctx.errors
            record.update(untraced_ops_s=reference.ops_s, traced_ops_s=ctx.ops_s)
        else:
            setup_s = measure_setup_s()
            ctx = tasks.Context(work)
            rounds, measuring = 0, time.perf_counter()
            while rounds == 0 or time.perf_counter() - measuring < args.seconds:
                tasks.run_round(ctx, args.workload, args.seed, rounds)
                rounds += 1
            ctx.sample("setup_s", setup_s)
            ctx.sample("peak_rss_mb", tasks.peak_rss_mb())
            missing = [name for name, *_ in tasks.END_TO_END if name not in ctx.samples]
            if missing:
                print(f"perfbench: no samples for {', '.join(missing)}: {ctx.errors}",
                      file=sys.stderr)
                return 1
            metrics = {name: {"value": run_value(ctx.samples[name], better), "unit": unit}
                       for name, unit, better, _ in tasks.END_TO_END}
            attempted, failed, errors = ctx.attempted, ctx.failed, ctx.errors
            record.update(rounds=rounds, samples=ctx.samples)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {"correct": not ctx.check_failures, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record.update(result=result, check_failures=ctx.check_failures, errors=errors,
                  elapsed_s=time.perf_counter() - started)
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)
    for message in ctx.check_failures + errors:
        print(f"perfbench: {message}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
