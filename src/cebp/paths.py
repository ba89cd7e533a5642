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

import itertools
import json
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import BudgetError, ConfigError
from .offspring import OffspringDistribution, make_offspring
from .rng import STREAM_DURATION, STREAM_ROOT, STREAM_TREE, map_blocks, substream
from .tree import DEFAULT_NODE_BUDGET, DOWN, UP, assign_durations, expand_tree

__all__ = [
    "SamplePath",
    "SimulationConfig",
    "simulate",
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
    offspring: object                 # OffspringDistribution, made from a {"family": ...} spec
    depth: int
    duration_mode: str = "mean"       # "mean" | "sampled"
    w_generations: int = 12           # chain depth for sampled leaf durations
    root_mode: str = "single"         # "single" | "tile"
    target_horizon: float = 1.0
    seed: int = 0
    node_budget: int = DEFAULT_NODE_BUDGET
    keep_trees: bool = True

    def __post_init__(self):      # once per config, so not once per path
        if not isinstance(self.offspring, OffspringDistribution):
            self.offspring = make_offspring(**self.offspring)

    def validate(self):
        if self.depth < 1:
            raise ConfigError("INVALID_CONFIG", f"depth must be >= 1, got {self.depth}")
        if self.duration_mode not in ("mean", "sampled"):
            raise ConfigError("INVALID_CONFIG", f"unknown duration mode {self.duration_mode!r}")
        if self.root_mode not in ("single", "tile"):
            raise ConfigError("INVALID_CONFIG", f"unknown root mode {self.root_mode!r}")
        if self.node_budget < 1:
            raise ConfigError("INVALID_CONFIG", f"node budget must be >= 1, got {self.node_budget}")
        if self.w_generations < 0:
            raise ConfigError("INVALID_CONFIG",
                              f"w_generations must be >= 0, got {self.w_generations}")
        if not 0 < self.target_horizon < np.inf:
            raise ConfigError("INVALID_CONFIG",
                              f"target_horizon must be finite and > 0, got {self.target_horizon}")


def _one_tree(dist, config, index):
    root = UP if substream(config.seed, STREAM_ROOT, index).integers(0, 2) else DOWN
    tree = expand_tree(
        dist, root, config.depth,
        substream(config.seed, STREAM_TREE, index),
        node_budget=config.node_budget,
    )
    k = config.w_generations if config.duration_mode == "sampled" else 0
    return assign_durations(tree, dist, (config.seed, STREAM_DURATION, index), k)


def simulate(config):
    """Simulate a CEBP sample path per the configuration; deterministic in seed.

    Single mode is the tile loop stopped after root 0.  Values are exact: one
    integer running sum of all leaf orientations (below 2**53) times 2**-m.
    """
    config.validate()
    dist = config.offspring
    tile = config.root_mode == "tile"
    m = config.depth
    trees, steps, total_nodes, n_roots = [], [np.zeros(1, dtype=np.int8)], 0, 0
    chunks_t = [np.array([0.0])]
    while n_roots == 0 or (tile and chunks_t[-1][-1] < config.target_horizon):
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
        chunks_t.append(np.cumsum(tree.leaf_durations) + chunks_t[-1][-1])
        steps.append(tree.orientations[m])
    meta = {"depth": m, "duration_mode": config.duration_mode, "seed": config.seed,
            "family": dist.family, "params": dist.params, "root_mode": config.root_mode}
    if tile:
        meta["n_roots"] = n_roots
    return SamplePath(
        times=np.concatenate(chunks_t),
        values=np.cumsum(np.concatenate(steps), dtype=np.int64) * 2.0 ** -m,
        resolution_level=-m,
        hurst=dist.hurst,
        mu=dist.mu,
        meta=meta,
        trees=trees if config.keep_trees else None,
    )


def _record_block(config, key, record, lo, hi):
    return [record(simulate(replace(config, seed=(*key, i)))) for i in range(lo, hi)]


def path_records(config, key, n, record, workers=1):
    """``record(path)`` for the path of each i in range(n >= 1), in index order.

    Path i is ``simulate(config)`` under the seed (*key, i), kept in
    ``path.meta["seed"]``, so the list is the same for any ``workers``; with
    more than one, ``record`` must pickle.
    """
    if n < 1:
        raise ConfigError("INVALID_CONFIG", f"need at least 1 path, got {n}")
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


TEXT_BLOCK = 8192     # entries of a streamed column held as Python floats at once


def float_text(values):
    """The ``repr`` of each entry of a float64 column, in order, as an iterable.

    The one float formatter of the artifact writers.  A column in which at
    most a quarter of the entries are distinct (lattice values, mean-mode
    durations) formats each distinct bit pattern once and shares its string;
    the patterns are found by sorting the column's int64 view, so -0.0 keeps
    its sign.  A mostly-distinct column (knot times, start times, sampled
    durations) streams ``repr`` lazily, one entry at a time, and converts
    ``TEXT_BLOCK`` entries to Python floats at a time, so that no string or
    float is held for every entry.
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    bits = values.view(np.int64)
    ordered = np.sort(bits)
    first = np.ones(bits.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    if 4 * np.count_nonzero(first) > bits.size:
        return itertools.chain.from_iterable(map(repr, values[i:i + TEXT_BLOCK].tolist())
                                             for i in range(0, values.size, TEXT_BLOCK))
    distinct = ordered[first]
    text = np.array(list(map(repr, distinct.view(np.float64).tolist())), dtype=object)
    return text[np.searchsorted(distinct, bits)]


def write_xy_csv(csv_file, header, xs, ys):
    """Stream a header line, then one `x,y` row of ``float_text`` reprs (-10 as -10.0)."""
    with open(csv_file, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(f"{x},{y}\n" for x, y in zip(float_text(xs), float_text(ys)))


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


def _load_columns(csv_file, time_col, value_col):
    """The columns as numpy's C reader parses them, if it takes the file and they pass the checks.

    Its converter is the one ``float()`` ends in, so a field it takes reads as the same double.
    """
    try:
        with open(csv_file, encoding="utf-8") as fh, warnings.catch_warnings():
            warnings.simplefilter("error")          # loadtxt only warns when there are no rows
            parts = fh.readline().split(",")
            try:
                float(parts[time_col]), float(parts[value_col])
                fh.seek(0)                          # line 1 is a row, not a header
            except (ValueError, IndexError):
                pass
            rows = np.loadtxt(fh, delimiter=",", usecols=(time_col, value_col),
                              comments=None, ndmin=2)
    except (ValueError, OverflowError, UserWarning):  # ValueError covers UnicodeDecodeError
        return None
    if len(rows) >= 2 and np.isfinite(rows).all() and (np.diff(rows[:, 0]) > 0).all():
        return tuple(rows.T.copy())
    return None


def _read_columns(csv_file, time_col=0, value_col=1):
    """Validated time and value columns of a CSV file.

    Blank lines and an unparsable first line (a header) are skipped.  Text
    that is not UTF-8, any other unparsable row, a non-finite number or
    fewer than 2 rows raise PARSE_ERROR; time that does not strictly
    increase raises NON_MONOTONE_TIME.  Row errors name their line.

    ``_load_columns`` tries numpy's C reader first.  The line loop runs only
    when that gives None: to name the line of a fault, or to read what numpy
    refuses and ``float()`` takes (whitespace-only lines, ``1_0``, non-ASCII digits).
    """
    loaded = _load_columns(csv_file, time_col, value_col)
    if loaded is not None:
        return loaded
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
    if time_col < 0 or value_col < 0:
        raise ConfigError("INVALID_CONFIG", f"columns count from 0, got {time_col} and {value_col}")
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
