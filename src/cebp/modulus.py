"""Modulus of continuity: dyadic block oscillations and scaling ratios.

For block width delta = 2**-l the path is cut into K = floor(span / delta)
blocks.  Phi_m is the sup oscillation of X around the block's left boundary
value; chaining adjacent blocks bounds the delta-modulus of continuity by

    S(delta) = max_m max(2 Phi_m, Phi_m + |A_m| + Phi_{m+1}),

with A_m the block boundary increment.  The ratio R(delta) = S(delta) /
(delta**H * |ln delta|**(1-H)) stays inside a fixed band over a range of
levels l exactly when the path obeys the Levy-type modulus with index H.

S(delta) sits between the true modulus and three times it, which the
brute-force evaluator makes testable path by path.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import AnalysisError, ConfigError
from .holder import _window_extrema

__all__ = [
    "OscillationTable",
    "ModulusReport",
    "h_modulus",
    "oscillation_table",
    "brute_force_modulus",
    "modulus_ratio",
]


def h_modulus(delta, hurst):
    """Gauge function delta**H * |ln delta|**(1 - H)."""
    delta = np.asarray(delta, dtype=float)
    return delta ** hurst * np.abs(np.log(delta)) ** (1.0 - hurst)


@dataclass
class OscillationTable:
    """Per-block sup oscillations of one path at one block width."""

    delta: float
    block_starts: np.ndarray      # left edges, length K
    boundary_values: np.ndarray   # X at block edges, length K + 1
    phi: np.ndarray               # sup |X - X(left edge)| per block
    @property
    def increments(self):
        return np.diff(self.boundary_values)

    @property
    def n_blocks(self):
        return int(self.phi.size)

    @property
    def chaining_sup(self):
        """max over blocks of the two-block chaining bound."""
        best = 2.0 * self.phi.max()
        if self.phi.size > 1:
            cross = self.phi[:-1] + np.abs(self.increments[:-1]) + self.phi[1:]
            best = max(best, float(cross.max()))
        return float(best)


def oscillation_table(path, delta):
    """Block oscillation table at the given block width."""
    t0 = float(path.times[0])
    span = path.span
    n_blocks = int(np.floor(span / delta + 1e-12))
    if n_blocks < 2:
        raise AnalysisError(
            "L_RANGE_INFEASIBLE",
            f"block width {delta} gives {n_blocks} block(s) over span {span}; need 2",
        )
    edges = t0 + delta * np.arange(n_blocks + 1)
    boundary = np.interp(edges, path.times, path.values)
    wmax, wmin = _window_extrema(path.times, path.values, edges[:-1], edges[1:])
    phi = np.maximum(wmax - boundary[:-1], boundary[:-1] - wmin)
    return OscillationTable(
        delta=float(delta), block_starts=edges[:-1],
        boundary_values=boundary, phi=phi,
    )


def brute_force_modulus(path, delta):
    """Exact sup of |X(t) - X(s)| over |t - s| <= delta.

    For a piecewise-linear path the sup is attained with one of the two
    points at a knot, so scanning a clipped window around every knot is
    exhaustive.
    """
    t = path.times
    lo = np.clip(t - delta, t[0], t[-1])
    hi = np.clip(t + delta, t[0], t[-1])
    wmax, wmin = _window_extrema(t, path.values, lo, hi)
    return float(np.maximum(wmax - path.values, path.values - wmin).max())


@dataclass
class ModulusReport:
    """Scaling ratios of the chained modulus against the Levy gauge."""

    hurst: float
    l_values: list
    deltas: np.ndarray
    sups: np.ndarray
    ratios: np.ndarray
    ratio_min: float
    ratio_max: float
    stable: bool
    halves: dict
    meta: dict = field(default_factory=dict)

    def summary(self):
        return {
            "hurst": self.hurst,
            "l_range": [self.l_values[0], self.l_values[-1]],
            "ratio_min": self.ratio_min,
            "ratio_max": self.ratio_max,
            "band_ratio": self.ratio_max / self.ratio_min,
            "stable": self.stable,
        }


def band_stability(levels, ratios, band_tol=0.25, max_band_ratio=10.0):
    """Band [a, b] of per-level ratios and its stability verdict.

    Returns (a, b, split_level, halves, stable).  The halves are the bands of
    the lower and upper halves of the level range, which share the middle
    level.  Stable means a > 0, b <= max_band_ratio * a, and the halves'
    endpoints agree within ``band_tol`` relative to their mean.
    """
    levels = np.asarray(levels)
    mid = (int(levels[0]) + int(levels[-1])) // 2
    first, second = ratios[levels <= mid], ratios[levels >= mid]
    a, b = float(ratios.min()), float(ratios.max())
    halves = {
        "first": (float(first.min()), float(first.max())),
        "second": (float(second.min()), float(second.max())),
    }
    close = all(abs(p - q) <= band_tol * 0.5 * (abs(p) + abs(q))
                for p, q in zip(halves["first"], halves["second"]))
    return a, b, mid, halves, bool(a > 0 and b <= max_band_ratio * a and close)


def modulus_ratio(path, l_range, hurst=None, band_tol=0.25, max_band_ratio=10.0):
    """Ratios R(2**-l) for l in [lo, hi] plus a band-stability verdict.

    ``stable`` is the verdict of ``band_stability``: the band is positive,
    narrower than ``max_band_ratio``, and its endpoints move less than
    ``band_tol`` (relative) between the lower and upper halves of the level
    range.
    """
    lo, hi = int(l_range[0]), int(l_range[1])
    if lo > hi:
        raise ConfigError("INVALID_CONFIG", f"level range [{lo}, {hi}] is empty")
    if hurst is None:
        hurst = path.hurst
    if hurst is None:
        raise ConfigError("INVALID_CONFIG", "no Hurst index on the path; pass hurst=")
    ls = list(range(lo, hi + 1))
    deltas = 2.0 ** -np.array(ls, dtype=float)
    sups = np.array([oscillation_table(path, d).chaining_sup for d in deltas])
    ratios = sups / h_modulus(deltas, hurst)
    r_min, r_max, mid, halves, stable = band_stability(ls, ratios, band_tol, max_band_ratio)
    halves = {"split_level": mid, **halves}
    return ModulusReport(
        hurst=float(hurst), l_values=ls, deltas=deltas, sups=sups,
        ratios=ratios, ratio_min=r_min, ratio_max=r_max,
        stable=stable, halves=halves,
        meta={"band_tol": band_tol, "max_band_ratio": max_band_ratio,
              "origin": path.origin},
    )
