"""Correctness checks on program outputs, written apart from the program.

Every check is a closed form or a property of the method, never a stored copy
of earlier output.  Each function returns a list of failure messages; an empty
list means the check passed.  The artifact readers parse files with the
standard library only, so a fault in the program's own readers cannot hide a
fault in its writers.
"""

import itertools
import json
from array import array

import numpy as np


# ---------------------------------------------------------------------------
# roundtrip: CLI artifacts of a mean-mode geometric p = 1/2 single-root run

def read_path_csv(csv_file):
    """(times, values) of a `time,value` CSV, parsed with float()."""
    times, values = array("d"), array("d")
    with open(csv_file) as fh:
        header = fh.readline().strip()
        if header != "time,value":
            raise ValueError(f"{csv_file}: unexpected header {header!r}")
        for line in fh:
            t, v = line.split(",")
            times.append(float(t))
            values.append(float(v))
    return np.frombuffer(times, dtype=times.typecode), np.frombuffer(values, dtype=values.typecode)


def _ndjson_columns(ndjson_file, fields, chunk=20_000):
    """Columns of an NDJSON file, parsed with json.loads a chunk of lines at a time."""
    cols = {f: [] for f in fields}
    with open(ndjson_file) as fh:
        while True:
            lines = list(itertools.islice(fh, chunk))
            if not lines:
                break
            recs = json.loads("[" + ",".join(lines) + "]")
            for f in fields:
                cols[f].append(np.array([r[f] for r in recs]))
    return {f: np.concatenate(v) if v else np.zeros(0) for f, v in cols.items()}


def _by_level(cols, fields):
    """{level: tuple of per-field arrays} with nodes in position order."""
    out = {}
    for level in np.unique(cols["level"]):
        at = np.nonzero(cols["level"] == level)[0]
        if not np.array_equal(cols["position"][at], np.arange(at.size)):
            raise ValueError(f"level {level}: positions are not 0..{at.size - 1} in order")
        orient = np.where(cols["orientation"][at] == "+", 1, -1).astype(np.int8)
        out[int(level)] = (orient,) + tuple(cols[f][at] for f in fields)
    return out


def read_tree_levels(ndjson_file):
    """Per-level arrays of a one-tree NDJSON file: (orientation, z, start, duration)."""
    fields = ("z", "start_time", "duration")
    cols = _ndjson_columns(ndjson_file, ("level", "position", "orientation") + fields)
    return _by_level(cols, fields)


def read_forest_levels(ndjson_file):
    """Per-level arrays of a forest NDJSON file: (orientation, count, start, end)."""
    fields = ("subcrossing_count", "start_time", "end_time")
    cols = _ndjson_columns(ndjson_file, ("level", "position", "orientation") + fields)
    return _by_level(cols, fields)


def check_csv_lattice(times, values, depth):
    """Times are exactly k * 4**-depth; values the running sum of +-2**-depth.

    Both are dyadic in mean mode, so the comparison is exact.
    """
    out = []
    k = np.arange(times.size, dtype=np.float64)
    if not np.array_equal(times, k * 4.0 ** -depth):
        bad = int(np.nonzero(times != k * 4.0 ** -depth)[0][0])
        out.append(f"csv time {bad} is {times[bad]!r}, not {bad} * 4^-{depth}")
    u = values * 2.0 ** depth
    steps = np.diff(u)
    if values[0] != 0.0 or not np.all(np.abs(steps) == 1.0):
        out.append("csv values are not a running sum of +-2^-depth from 0")
    elif not np.array_equal(u, np.concatenate([[0.0], np.cumsum(steps)])):
        out.append("csv values drift from the running sum of their steps")
    return out


def check_leaves_match_steps(tree_levels, values, depth):
    """Leaf orientations of the trees file equal the CSV steps."""
    leaves = tree_levels.get(-depth)
    if leaves is None:
        return [f"trees file has no level -{depth}"]
    steps = np.sign(np.diff(values)).astype(np.int8)
    if not np.array_equal(leaves[0], steps):
        return ["leaf orientations differ from the csv steps"]
    return []


def check_estimates(tree_levels, estimates, depth):
    """Per-level node counts equal per_level_counts; mean internal z is mu_hat."""
    out = []
    counts = {int(k): v for k, v in estimates["per_level_counts"].items()}
    tree_counts = {lv: int(c[0].size) for lv, c in tree_levels.items()}
    if counts != tree_counts:
        out.append(f"per_level_counts {counts} != tree counts {tree_counts}")
    z = [int(c[1].sum()) for lv, c in tree_levels.items() if lv > -depth]
    n = sum(tree_counts[lv] for lv in tree_levels if lv > -depth)
    if n == 0 or estimates["mu_hat"] != sum(z) / n:
        out.append(f"mu_hat {estimates['mu_hat']!r} != mean internal z {sum(z)}/{n}")
    return out


def check_forest_matches_tree(forest_levels, tree_levels, depth):
    """Forest records equal the tree nodes level by level, exactly."""
    out = []
    if sorted(forest_levels) != sorted(tree_levels):
        return [f"forest levels {sorted(forest_levels)} != tree levels {sorted(tree_levels)}"]
    for lv in sorted(tree_levels):
        o, z, s, d = tree_levels[lv]
        fo, fc, fs, fe = forest_levels[lv]
        want_c = z if lv > -depth else np.zeros_like(z)
        if fo.size != o.size:
            out.append(f"level {lv}: {fo.size} forest records, {o.size} tree nodes")
        elif not np.array_equal(fo, o):
            out.append(f"level {lv}: orientations differ")
        elif not np.array_equal(fc, want_c):
            out.append(f"level {lv}: subcrossing counts differ")
        elif not (np.array_equal(fs, s) and np.array_equal(fe, s + d)):
            out.append(f"level {lv}: crossing times differ")
    return out


# ---------------------------------------------------------------------------
# ensembles

def gw_w_variance(sigma2, mu, k):
    """Var(Z_k / mu^k) of a Galton-Watson chain from one ancestor."""
    return sigma2 * (1.0 - mu ** -k) / (mu * (mu - 1.0))


def check_w_samples(w, sigma2, mu, k, n_se=5.0):
    """W > 0; mean within n_se standard errors of 1; variance within n_se of the closed form."""
    w = np.asarray(w, dtype=np.float64)
    out = []
    if not np.all(w > 0):
        out.append(f"{int(np.sum(w <= 0))} W samples are <= 0")
    n = w.size
    se_mean = w.std(ddof=1) / np.sqrt(n)
    if abs(w.mean() - 1.0) > n_se * se_mean:
        out.append(f"mean W {w.mean():.5f} is more than {n_se} SE ({se_mean:.5f}) from 1")
    dev2 = (w - w.mean()) ** 2
    var = dev2.sum() / (n - 1)
    se_var = dev2.std(ddof=1) / np.sqrt(n)
    target = gw_w_variance(sigma2, mu, k)
    if abs(var - target) > n_se * se_var:
        out.append(f"var W {var:.5f} is more than {n_se} SE ({se_var:.5f}) from {target:.5f}")
    return out


def check_increments(plain, sup, t, n_se=5.0):
    """plain <= sup record by record; mean plain^2 within n_se SE of t.

    A mean-mode geometric p = 1/2 tiled path is a Donsker-scaled simple
    random walk, so E[(X(s+t) - X(s))^2] = t.
    """
    plain = np.asarray(plain, dtype=np.float64)
    sup = np.asarray(sup, dtype=np.float64)
    out = []
    if np.any(plain > sup):
        out.append(f"{int(np.sum(plain > sup))} records have plain > sup")
    sq = plain ** 2
    se = sq.std(ddof=1) / np.sqrt(sq.size)
    if abs(sq.mean() - t) > n_se * se:
        out.append(f"mean plain^2 {sq.mean():.5f} is more than {n_se} SE ({se:.5f}) from t={t}")
    return out


def check_remaining(slope, gaps, tol=0.2):
    """Remaining-time chord slope within tol of -1; every gap positive."""
    out = []
    if not abs(slope + 1.0) <= tol:
        out.append(f"remaining-time slope {slope:.4f} is not within {tol} of -1")
    gaps = np.asarray(gaps, dtype=np.float64)
    if not np.all(gaps > 0):
        out.append(f"{int(np.sum(~(gaps > 0)))} remaining-time gaps are not > 0")
    return out


# ---------------------------------------------------------------------------
# regularity

def check_band(label, a, b, max_ratio=10.0):
    """Modulus band [a, b] with a > 0 and b <= max_ratio * a."""
    if not (a > 0 and b <= max_ratio * a):
        return [f"{label}: band [{a}, {b}] is not positive within a factor {max_ratio}"]
    return []


def check_chaining(label, chain, exact, factor=3.0):
    """Chaining sup within a factor of the exact all-pairs modulus."""
    if not (exact > 0 and 1.0 / factor <= chain / exact <= factor):
        return [f"{label}: chaining sup {chain} vs exact {exact} outside factor {factor}"]
    return []


def check_exponents(label, exponents, target=0.5, tol=0.05):
    """Mean of the finite local exponents within tol of the target."""
    e = np.asarray(exponents, dtype=np.float64)
    e = e[np.isfinite(e)]
    if e.size == 0 or not abs(e.mean() - target) <= tol:
        mean = e.mean() if e.size else float("nan")
        return [f"{label}: mean local exponent {mean:.4f} not within {tol} of {target}"]
    return []


def check_ramp(label, exponents, n_grid):
    """A linear ramp measures exactly 1 at every grid point."""
    e = np.asarray(exponents, dtype=np.float64)
    if e.size != n_grid or not np.all(np.abs(e - 1.0) < 1e-6):
        return [f"{label}: ramp exponents are not all 1"]
    return []


def check_scale_invariance(ks, control_ks, ks_max=0.03, control_min=0.1):
    """True-mu KS below ks_max; doubled-mu control KS above control_min."""
    out = []
    if not ks < ks_max:
        out.append(f"scale-invariance KS {ks:.4f} is not below {ks_max}")
    if not control_ks > control_min:
        out.append(f"2mu control KS {control_ks:.4f} is not above {control_min}")
    return out
