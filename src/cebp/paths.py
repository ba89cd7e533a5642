"""Sample paths built from duration-assigned crossing trees.

A path is the piecewise-linear interpolation of its leaf passage times: knot
j sits at the end of leaf crossing j, one spatial step of +-2**resolution_level
above or below the previous knot.  The root crossing therefore runs from 0 to
+-1 while every intermediate value stays strictly inside, which is exactly the
crossing property the extractors rely on.

Two assembly modes: ``single`` builds one root crossing on [0, D_root];
``tile`` concatenates independent root crossings (uniform random up/down,
value continuing from the previous endpoint) until a target horizon is
covered.  Tiling is an approximation: the joint law of successive root
crossings is not pinned down by the construction, so distribution-sensitive
checks use single mode or treat tiled paths as stationary-increment
surrogates.

``window_deviation`` is the one window scan, sup |X(r) - a| on [lo, hi],
behind the Holder, modulus and increment estimates.  ``path_records`` is the
one per-record loop behind every path ensemble: record i simulates the
ensemble's config under the stream key (*key, i) and reduces the path to one
record.
"""

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import BudgetError, ConfigError
from .offspring import OffspringDistribution, make_offspring
from .rng import STREAM_DURATION, STREAM_ROOT, STREAM_TREE, map_blocks, substream
from .tree import DEFAULT_NODE_BUDGET, DOWN, UP, assign_durations, expand_tree

__all__ = [
    "SamplePath",
    "SimulationConfig",
    "build_path",
    "simulate",
    "rescale_path",
    "write_path_csv",
    "read_path_csv",
    "ingest_csv",
]


@dataclass
class SamplePath:
    """Piecewise-linear path: values at strictly increasing knot times."""

    times: np.ndarray
    values: np.ndarray
    resolution_level: int
    hurst: float | None
    mu: float | None
    origin: str = "simulated"
    meta: dict = field(default_factory=dict)
    trees: list | None = None          # the generating trees, when kept

    @property
    def span(self):
        return float(self.times[-1] - self.times[0])

    @property
    def n_knots(self):
        return int(self.times.size)


@dataclass
class SimulationConfig:
    offspring: object                 # OffspringDistribution or {"family": ..., params}
    depth: int
    duration_mode: str = "mean"       # "mean" | "sampled"
    w_generations: int = 12           # chain depth for sampled leaf durations
    root_mode: str = "single"         # "single" | "tile"
    target_horizon: float = 1.0
    seed: int = 0
    node_budget: int = DEFAULT_NODE_BUDGET
    keep_trees: bool = True

    def resolve_offspring(self):
        if isinstance(self.offspring, OffspringDistribution):
            return self.offspring
        return make_offspring(**self.offspring)

    def validate(self):
        if self.depth < 1:
            raise ConfigError("INVALID_CONFIG", f"depth must be >= 1, got {self.depth}")
        if self.duration_mode not in ("mean", "sampled"):
            raise ConfigError("INVALID_CONFIG", f"unknown duration mode {self.duration_mode!r}")
        if self.root_mode not in ("single", "tile"):
            raise ConfigError("INVALID_CONFIG", f"unknown root mode {self.root_mode!r}")
        if self.root_mode == "tile" and not self.target_horizon > 0:
            raise ConfigError("INVALID_CONFIG", "tile mode needs target_horizon > 0")


def build_path(tree):
    """Turn one duration-assigned tree (root at level 0) into a SamplePath."""
    if not tree.has_durations:
        raise ConfigError("MISSING_DURATIONS", "assign durations before building a path")
    if tree.root_level != 0:
        raise ConfigError("INVALID_CONFIG", f"path construction expects root level 0, got {tree.root_level}")
    m = tree.depth
    leaf_dur = tree.durations[m]
    step = 2.0 ** -m
    times = np.empty(leaf_dur.size + 1)
    times[0] = 0.0
    np.cumsum(leaf_dur, out=times[1:])
    values = np.empty(leaf_dur.size + 1)
    values[0] = 0.0
    np.cumsum(tree.orientations[m].astype(np.float64) * step, out=values[1:])
    return SamplePath(
        times=times,
        values=values,
        resolution_level=-m,
        hurst=None,
        mu=None,
        origin="simulated",
        meta={"depth": m},
    )


def _one_tree(dist, config, index):
    root = UP if substream(config.seed, STREAM_ROOT, index).integers(0, 2) else DOWN
    tree = expand_tree(
        dist, root, config.depth,
        substream(config.seed, STREAM_TREE, index),
        node_budget=config.node_budget,
    )
    return assign_durations(
        tree, dist, config.duration_mode,
        substream(config.seed, STREAM_DURATION, index),
        w_generations=config.w_generations, leaves_only=not config.keep_trees,
    )


def simulate(config):
    """Simulate a CEBP sample path per the configuration; deterministic in seed.

    Single mode is the tile loop stopped after root 0.
    """
    config.validate()
    dist = config.resolve_offspring()
    tile = config.root_mode == "tile"
    trees, horizon, total_nodes, n_roots = [], 0.0, 0, 0
    chunks_t, chunks_v = [np.array([0.0])], [np.array([0.0])]
    while n_roots == 0 or (tile and horizon < config.target_horizon):
        tree = _one_tree(dist, config, n_roots)
        n_roots += 1
        total_nodes += tree.n_nodes
        if total_nodes > config.node_budget:
            raise BudgetError(
                "NODE_BUDGET_EXCEEDED",
                f"tiling past horizon {config.target_horizon:g} needs more than "
                f"{config.node_budget:g} nodes",
            )
        if config.keep_trees:
            trees.append(tree)
        piece = build_path(tree)
        chunks_t.append(piece.times[1:] + horizon)
        chunks_v.append(piece.values[1:] + chunks_v[-1][-1])
        horizon += piece.span
    path = SamplePath(
        times=np.concatenate(chunks_t),
        values=np.concatenate(chunks_v),
        resolution_level=piece.resolution_level,
        hurst=dist.hurst,
        mu=dist.mu,
        origin="simulated",
        meta={"depth": config.depth, "duration_mode": config.duration_mode},
        trees=trees if config.keep_trees else None,
    )
    if tile:
        path.meta["n_roots"] = n_roots
    path.meta.update(seed=config.seed, family=dist.family, params=dist.params,
                     root_mode=config.root_mode)
    return path


def _record_block(config, key, record, lo, hi):
    return [record(simulate(replace(config, seed=(*key, i))), i) for i in range(lo, hi)]


def path_records(config, key, n, record, workers=1):
    """``record(path, i)`` for the path of each i in range(n), in index order.

    Path i is ``simulate(config)`` under the seed (*key, i), so the list is
    the same for any ``workers``; with more than one, ``record`` must pickle.
    """
    blocks = map_blocks(_record_block, n, (config, key, record), workers)
    return [rec for block in blocks for rec in block]


def window_deviation(path, lo, hi, anchor):
    """sup |X(r) - anchor| for r on each closed window [lo, hi].

    Interior knots are scanned with maximum/minimum.reduceat on interleaved
    slice bounds; the window endpoints enter through exact interpolation, so
    knots sitting exactly on a boundary are covered either way.
    """
    times, values = path.times, path.values
    il = np.searchsorted(times, lo, side="right")
    ih = np.searchsorted(times, hi, side="left")
    edges = np.empty(2 * il.size, dtype=np.int64)
    edges[0::2] = il
    edges[1::2] = ih
    np.minimum(edges, values.size - 1, out=edges)
    has_knots = ih > il
    kmax = np.where(has_knots, np.maximum.reduceat(values, edges)[0::2], -np.inf)
    kmin = np.where(has_knots, np.minimum.reduceat(values, edges)[0::2], np.inf)
    v_lo = np.interp(lo, times, values)
    v_hi = np.interp(hi, times, values)
    wmax = np.maximum(np.maximum(kmax, v_lo), v_hi)
    wmin = np.minimum(np.minimum(kmin, v_lo), v_hi)
    return np.maximum(wmax - anchor, anchor - wmin)


def rescale_path(path, n):
    """Apply the discrete scale-invariance map: t -> t/mu^n, x -> x * 2^-n."""
    if n == 0:
        return path
    if path.mu is None:
        raise ConfigError("INVALID_CONFIG", "rescaling needs the path's mu")
    meta = dict(path.meta)
    meta["rescaled_by"] = meta.get("rescaled_by", 0) + n
    return SamplePath(
        times=path.times / path.mu ** n,
        values=path.values * 2.0 ** -n,
        resolution_level=path.resolution_level - n,
        hurst=path.hurst,
        mu=path.mu,
        origin=path.origin,
        meta=meta,
    )


def write_xy_csv(csv_file, header, xs, ys):
    """Stream a header line, then one `x,y` row of float reprs (-10 as -10.0)."""
    with open(csv_file, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(f"{x!r},{y!r}\n" for x, y in zip(
            np.asarray(xs, dtype=np.float64).tolist(), np.asarray(ys, dtype=np.float64).tolist()))


def write_path_csv(path, csv_file, sidecar_file):
    """Export `time,value` rows and a JSON sidecar with the metadata."""
    write_xy_csv(csv_file, "time,value", path.times, path.values)
    side = {
        "resolution_level": path.resolution_level,
        "hurst": path.hurst,
        "mu": path.mu,
        "origin": path.origin,
    }
    side.update(path.meta)
    with open(sidecar_file, "w") as fh:
        json.dump(side, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_columns(csv_file, time_col=0, value_col=1):
    """Validated time and value columns of a CSV file.

    Blank lines and an unparsable first line (a header) are skipped.  Text
    that is not UTF-8, any other unparsable row, a non-finite number or
    fewer than 2 rows raise PARSE_ERROR; time that does not strictly
    increase raises NON_MONOTONE_TIME.  Row errors name their line.
    """
    times, values, skipped = [], [], []
    with open(csv_file, encoding="utf-8") as fh:
        try:
            for line_no, line in enumerate(fh, start=1):
                parts = line.split(",")
                try:
                    t = float(parts[time_col])
                    v = float(parts[value_col])
                except (ValueError, IndexError) as exc:
                    if line_no > 1 and line.strip():
                        raise ConfigError(
                            "PARSE_ERROR", f"line {line_no}: cannot parse {line.strip()!r}"
                        ) from exc
                    skipped.append(line_no)
                    continue
                times.append(t)
                values.append(v)
        except UnicodeDecodeError as exc:
            raise ConfigError("PARSE_ERROR", f"{csv_file}: not UTF-8 text ({exc.reason})") from exc
    times = np.asarray(times)
    values = np.asarray(values)
    if times.size < 2:
        raise ConfigError("PARSE_ERROR", "a path needs at least 2 rows")

    def line_of(row):
        return np.setdiff1d(np.arange(1, times.size + len(skipped) + 1), skipped)[row]

    finite = np.isfinite(times) & np.isfinite(values)
    if not finite.all():
        raise ConfigError(
            "PARSE_ERROR", f"line {line_of(np.argmin(finite))}: time and value must be finite"
        )
    rising = np.diff(times) > 0
    if not rising.all():
        raise ConfigError(
            "NON_MONOTONE_TIME",
            f"time column is not strictly increasing at line {line_of(np.argmin(rising) + 1)}",
        )
    return times, values


def read_path_csv(csv_file, sidecar_file=None):
    """Read a previously exported path; exact float round trip."""
    times, values = _read_columns(csv_file)
    side = {}
    if sidecar_file is not None:
        try:
            with open(sidecar_file, encoding="utf-8") as fh:
                side = json.load(fh)
        except ValueError as exc:   # JSONDecodeError and UnicodeDecodeError
            raise ConfigError("PARSE_ERROR", f"sidecar {sidecar_file}: {exc}") from exc
        if not isinstance(side, dict):
            raise ConfigError("PARSE_ERROR", f"sidecar {sidecar_file} must hold a JSON object")
        # type() rather than isinstance(): a JSON true is neither a level nor a number
        if type(side.get("resolution_level", 0)) is not int or not all(
                type(side.get(key)) in (type(None), int, float) for key in ("hurst", "mu")):
            raise ConfigError("PARSE_ERROR", f"sidecar {sidecar_file}: resolution_level must "
                              "be an integer, and hurst and mu numbers or null")
    return SamplePath(
        times=times,
        values=values,
        resolution_level=side.get("resolution_level", 0),
        hurst=side.get("hurst"),
        mu=side.get("mu"),
        origin=side.get("origin", "ingested"),
        meta={k: v for k, v in side.items()
              if k not in ("resolution_level", "hurst", "mu", "origin")},
    )


def ingest_csv(csv_file, time_col=0, value_col=1, anchor_origin=False):
    """Read an external CSV, taking time and value from the given columns.

    The resolution level is inferred from the smallest nonzero spatial move;
    ``anchor_origin`` shifts values so the path starts at 0 (extraction
    anchors lattices at the starting value either way).
    """
    times, values = _read_columns(csv_file, time_col, value_col)
    with np.errstate(over="ignore", invalid="ignore"):
        if anchor_origin:
            values = values - values[0]
        moves = np.abs(np.diff(values))
    if not np.isfinite(moves).all():
        raise ConfigError("PARSE_ERROR", "value steps overflow 64-bit floats")
    moves = moves[moves > 0]
    if moves.size == 0:
        raise ConfigError("PARSE_ERROR", "path has no spatial variation")
    resolution = int(np.floor(np.log2(moves.min()) + 1e-9))
    return SamplePath(
        times=times, values=values, resolution_level=resolution,
        hurst=None, mu=None, origin="ingested", meta={"source": str(csv_file)},
    )
