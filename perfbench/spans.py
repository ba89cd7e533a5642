"""Per-layer spans recorded from outside the program.

The tracer wraps the public functions of every ``cebp`` module in each module
that holds them by name (``cebp.paths.expand_tree``, ``cebp.cli.write_trees``,
``cebp.branching.spawn_seed``, ...), plus the two sampling methods of
``OffspringDistribution``.  A span is (name, start, end, parent); spans stay in
memory and are written out when the workload ends.  A layer's self time is its
spans' time minus the time of their direct child spans.
"""

import contextlib
import functools
import inspect
import json
import os
import time

import numpy as np

LAYERS = ("branching", "cli", "extract", "holder", "increments", "modulus",
          "offspring", "paths", "rng", "tailfit", "tree", "treeio", "verify")

# Per-layer metrics reported by a traced run: (name, unit, better).  Every one
# is reported on every workload; a layer that never fired reports 0.  A bare
# "<layer>.self_s" is the self time of all of that module's spans.
PER_LAYER = [
    ("tree.expand_tree.self_s", "s", "lower"),
    ("tree.expand_tree.calls", "count", "lower"),
    ("tree.nodes", "count", "lower"),
    ("tree.assign_durations.self_s", "s", "lower"),
    ("offspring.population_step.self_s", "s", "lower"),
    ("offspring.population_step.calls", "count", "lower"),
    ("offspring.draws", "count", "lower"),
    ("offspring.sample_z.self_s", "s", "lower"),
    ("offspring.make_offspring.calls", "count", "lower"),
    ("rng.streams", "count", "lower"),
    ("rng.self_s", "s", "lower"),
    ("branching.sample_w_range.self_s", "s", "lower"),
    ("paths.simulate.self_s", "s", "lower"),
    ("paths.simulate.calls", "count", "lower"),
    ("paths.knots", "count", "lower"),
    ("paths.roots_per_path", "count", "lower"),
    ("paths.build_path.self_s", "s", "lower"),
    ("paths.write_path_csv.self_s", "s", "lower"),
    ("paths.read_path_csv.self_s", "s", "lower"),
    ("paths.csv_bytes", "B", "lower"),
    ("treeio.write_trees.self_s", "s", "lower"),
    ("treeio.serialize_tree.self_s", "s", "lower"),
    ("treeio.bytes", "B", "lower"),
    ("cli.cmd_simulate.self_s", "s", "lower"),
    ("cli.cmd_analyze.self_s", "s", "lower"),
    ("cli.forest_bytes", "B", "lower"),
    ("extract.extract_crossing_forest.self_s", "s", "lower"),
    ("extract.extract_passage_times.self_s", "s", "lower"),
    ("extract.extract_passage_times.calls", "count", "lower"),
    ("extract.passages", "count", "lower"),
    ("extract.estimate_hurst.self_s", "s", "lower"),
    ("extract.duration_scale_invariance.self_s", "s", "lower"),
    ("holder.holder_histogram.self_s", "s", "lower"),
    ("holder.windows", "count", "lower"),
    ("modulus.modulus_ratio.self_s", "s", "lower"),
    ("modulus.oscillation_table.self_s", "s", "lower"),
    ("modulus.blocks", "count", "lower"),
    ("increments.increment_records.self_s", "s", "lower"),
    ("increments.remaining_time_records.self_s", "s", "lower"),
    ("increments.increment_tail.self_s", "s", "lower"),
    ("tailfit.w_left_tail_fit.self_s", "s", "lower"),
    ("verify.verify_modulus.self_s", "s", "lower"),
    ("holder.window_oscillation.self_s", "s", "lower"),
] + [(f"{layer}.self_s", "s", "lower") for layer in LAYERS if layer != "rng"] + [
    ("trace.coverage", "share", "higher"),
    ("trace.overhead_s", "s", "lower"),
]


def _file_size(path):
    return os.path.getsize(path) if os.path.exists(path) else 0


def _draws(args, kwargs):
    size = kwargs.get("size", args[2] if len(args) > 2 else None)
    return 1 if size is None else int(np.prod(size))


# Counters attached to spans: span name -> [(counter, f(args, kwargs, result))].
COUNTERS = {
    "tree.expand_tree": [("tree.nodes", lambda a, k, r: r.n_nodes)],
    "offspring.population_step": [("offspring.draws", lambda a, k, r: np.size(r))],
    "offspring.sample_z": [("offspring.draws", lambda a, k, r: _draws(a, k))],
    "paths.simulate": [("paths.knots", lambda a, k, r: r.n_knots),
                       ("paths.roots", lambda a, k, r: r.meta.get("n_roots", 1))],
    "paths.write_path_csv": [("paths.csv_bytes", lambda a, k, r: _file_size(a[1]))],
    "treeio.write_trees": [("treeio.bytes", lambda a, k, r: _file_size(a[1]))],
    "cli.cmd_analyze": [("cli.forest_bytes",
                         lambda a, k, r: _file_size(f"{a[0].out}.forest.ndjson"))],
    "extract.extract_passage_times": [("extract.passages", lambda a, k, r: r[0].size)],
    "holder.window_oscillation": [("holder.windows", lambda a, k, r: np.size(r))],
    "modulus.oscillation_table": [("modulus.blocks", lambda a, k, r: r.n_blocks)],
}


class Tracer:
    """Records spans and counts while a region is open."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = {}
        self.regions = []        # [start, end] of each timed region
        self.active = False

    def wrap(self, name, fn):
        tracer = self
        counters = COUNTERS.get(name, ())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            rec = [name, time.perf_counter(), 0.0, tracer.stack[-1] if tracer.stack else -1]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                tracer.stack.pop()
            for key, f in counters:
                tracer.counts[key] = tracer.counts.get(key, 0) + f(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Replace every public cebp function by its wrapper, wherever it is bound."""
        import cebp
        import cebp.cli  # noqa: F401  (not imported by the package itself)
        from cebp.offspring import OffspringDistribution

        modules = [cebp] + [getattr(cebp, name) for name in LAYERS]
        for layer in LAYERS:
            mod = getattr(cebp, layer)
            names = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
            for attr in names:
                fn = getattr(mod, attr, None)
                if not (inspect.isfunction(fn) and fn.__module__ == mod.__name__):
                    continue
                wrapped = self.wrap(f"{layer}.{attr}", fn)
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, key, wrapped)
        for method in ("population_step", "sample_z"):
            setattr(OffspringDistribution, method,
                    self.wrap(f"offspring.{method}", getattr(OffspringDistribution, method)))

    @contextlib.contextmanager
    def region(self):
        """Record spans while a timed region of workload operations runs."""
        self.active = True
        self.regions.append([time.perf_counter(), 0.0])
        try:
            yield
        finally:
            self.regions[-1][1] = time.perf_counter()
            self.active = False

    def per_layer(self, overhead_s):
        """The PER_LAYER metrics from the recorded spans; zeros for silent layers."""
        names = [s[0] for s in self.spans]
        dur = np.array([s[2] - s[1] for s in self.spans], dtype=np.float64)
        parent = np.array([s[3] for s in self.spans], dtype=np.int64)
        child = np.zeros(dur.size)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_s = dur - child
        by_name = {}
        for i, name in enumerate(names):
            acc = by_name.setdefault(name, [0.0, 0])
            acc[0] += self_s[i]
            acc[1] += 1
        values = {}
        for key, _, _ in PER_LAYER:
            layer, _, rest = key.partition(".")
            if rest.endswith(".self_s"):
                values[key] = by_name.get(f"{layer}.{rest[:-7]}", [0.0, 0])[0]
            elif rest.endswith(".calls"):
                values[key] = by_name.get(f"{layer}.{rest[:-6]}", [0.0, 0])[1]
            else:
                values[key] = self.counts.get(key, 0)
        for layer in LAYERS:
            values[f"{layer}.self_s"] = sum(v[0] for k, v in by_name.items()
                                            if k.startswith(f"{layer}."))
        nested = sum(1 for i, name in enumerate(names)
                     if name == "rng.spawn_seed" and parent[i] >= 0
                     and names[parent[i]] == "rng.substream")
        values["rng.streams"] = (by_name.get("rng.substream", [0, 0])[1]
                                 + by_name.get("rng.spawn_seed", [0, 0])[1] - nested)
        calls = by_name.get("paths.simulate", [0, 0])[1]
        values["paths.roots_per_path"] = self.counts.get("paths.roots", 0) / calls if calls else 0
        covered = float(dur[~has_parent].sum())
        wall = sum(b - a for a, b in self.regions)
        values["trace.coverage"] = covered / wall if wall else 0.0
        values["trace.overhead_s"] = overhead_s
        return {k: float(v) for k, v in values.items()}

    def dump(self, path):
        """Write the spans as {names, name_index, start, end, parent} columns."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.regions[0][0] if self.regions else 0.0
        with open(path, "w") as fh:
            json.dump({
                "names": names,
                "name_index": [index[s[0]] for s in self.spans],
                "start": [round(s[1] - t0, 9) for s in self.spans],
                "end": [round(s[2] - t0, 9) for s in self.spans],
                "parent": [s[3] for s in self.spans],
                "regions": [[a - t0, b - t0] for a, b in self.regions],
                "counts": self.counts,
            }, fh)
