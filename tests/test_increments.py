"""Tests for increment-tail and remaining-time-tail measurement."""

import numpy as np
import pytest

from cebp.errors import AnalysisError, ConfigError
from cebp.extract import extract_passage_times
from cebp.increments import (
    IncrementRecords,
    RemainingTimeRecords,
    increment_records,
    increment_tail,
    remaining_time_records,
    remaining_time_tail,
)
from cebp.offspring import make_offspring
from cebp.paths import SamplePath, SimulationConfig, simulate
from cebp.rng import STREAM_GAP, substream

GEOM = {"family": "geometric-pairs", "p": 0.5}


def test_increment_records_shapes_and_bounds():
    rec = increment_records(GEOM, t=0.05, n_records=40, master_seed=3, depth=5)
    assert rec.n_records == 40
    assert rec.hurst == pytest.approx(0.5)
    assert np.all(rec.plain >= 0) and np.all(rec.sup >= 0)
    # the sup dominates the plain increment record by record
    assert np.all(rec.plain <= rec.sup + 1e-15)


def test_increment_records_deterministic():
    a = increment_records(GEOM, t=0.05, n_records=25, master_seed=11, depth=5)
    b = increment_records(GEOM, t=0.05, n_records=25, master_seed=11, depth=5)
    assert np.array_equal(a.plain, b.plain) and np.array_equal(a.sup, b.sup)
    c = increment_records(GEOM, t=0.05, n_records=25, master_seed=12, depth=5)
    assert not np.array_equal(a.sup, c.sup)


def test_increment_records_worker_count_invariant():
    a = increment_records(GEOM, t=0.05, n_records=30, master_seed=7, depth=5)
    b = increment_records(GEOM, t=0.05, n_records=30, master_seed=7, depth=5,
                          workers=2)
    assert np.array_equal(a.plain, b.plain)
    assert np.array_equal(a.sup, b.sup)


def test_increment_tail_fit_smoke():
    rec = increment_records(GEOM, t=0.05, n_records=1500, master_seed=5, depth=6)
    fit = increment_tail(rec, window=(0.01, 0.3), n_points=10)
    assert fit.sandwich_violations == 0
    assert fit.slope == pytest.approx(1.0, abs=0.3)
    assert fit.r_squared > 0.98
    assert np.all(fit.plain_p_hat <= fit.p_hat + 1e-15)
    assert fit.n_records == 1500


def test_increment_bad_t_rejected():
    with pytest.raises(ConfigError):
        increment_records(GEOM, t=0.95, n_records=5, master_seed=0)
    with pytest.raises(ConfigError):
        increment_records(GEOM, t=0.0, n_records=5, master_seed=0)


def _ramp16():
    return SamplePath(
        times=np.array([0.0, 16.0]), values=np.array([0.0, 16.0]),
        resolution_level=0, hurst=1.0, mu=2.0, origin="ingested",
    )


def test_remaining_time_records_on_ramp():
    rec = remaining_time_records(_ramp16(), level=0, n_queries=500, master_seed=9)
    assert rec.n_dropped == 0
    # next integer-lattice passage after s is ceil(s)
    assert np.allclose(rec.gap, np.ceil(rec.s) - rec.s)
    assert np.allclose(rec.next_time, np.ceil(rec.s))
    # enclosing level-1 crossing is [2j, 2j+2): y is 1 on the first half
    expected_y = 1 + (np.floor(rec.s).astype(int) % 2)
    assert np.array_equal(rec.y, expected_y)
    assert 0 < rec.gap.max() <= 1.0


def test_remaining_time_records_deterministic():
    a = remaining_time_records(_ramp16(), 0, 100, master_seed=4)
    b = remaining_time_records(_ramp16(), 0, 100, master_seed=4)
    assert np.array_equal(a.s, b.s)
    c = remaining_time_records(_ramp16(), 0, 100, master_seed=4, query_index=1)
    assert not np.array_equal(a.s, c.s)


def test_remaining_time_tail_exact_law():
    # P(G <= u) = exp(-c/u) exactly when G = c / Exp(1); chord slope is -1
    rng = np.random.default_rng(0)
    gap = 0.7 / rng.exponential(1.0, size=200_000)
    rec = RemainingTimeRecords(
        level=0, mu=4.0, s=np.zeros_like(gap), gap=gap,
        next_time=gap, y=np.ones_like(gap, dtype=np.int64), n_dropped=0,
    )
    fit = remaining_time_tail(rec, window=(0.25, 1.0))
    assert fit.slope == pytest.approx(-1.0, abs=0.02)
    assert fit.r_squared > 0.999
    assert fit.target_exponent == -1.0


def test_remaining_time_tail_pools_levels():
    rng = np.random.default_rng(1)
    base = 0.7 / rng.exponential(1.0, size=50_000)
    recs = []
    for level in (0, 2):
        recs.append(RemainingTimeRecords(
            level=level, mu=4.0, s=np.zeros_like(base),
            gap=base * 4.0 ** level, next_time=base,
            y=np.ones_like(base, dtype=np.int64), n_dropped=0,
        ))
    fit = remaining_time_tail(recs)
    assert fit.levels == (0, 2)
    assert fit.n_records == 100_000
    assert fit.slope == pytest.approx(-1.0, abs=0.03)
    with pytest.raises(ConfigError):
        remaining_time_tail([])


def test_remaining_time_on_simulated_path():
    cfg = SimulationConfig(
        offspring=GEOM, depth=8, duration_mode="sampled", seed=31,
    )
    path = simulate(cfg)
    rec = remaining_time_records(path, level=-5, n_queries=20_000, master_seed=2)
    assert rec.n_records > 19_000
    fit = remaining_time_tail(rec)
    assert fit.slope == pytest.approx(-1.0, abs=0.25)
    assert fit.interior_fraction > 0.9
    assert np.all(rec.y >= 0)
    assert rec.y.max() >= 2


def test_increment_records_build_the_offspring_law_once(monkeypatch):
    import cebp.paths

    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return make_offspring(*args, **kwargs)

    monkeypatch.setattr(cebp.paths, "make_offspring", counting)
    increment_records(GEOM, t=0.05, n_records=20, master_seed=3, depth=4)
    assert len(calls) == 1


def test_remaining_time_tail_on_an_empty_pool_is_analysis_error():
    path = simulate(SimulationConfig(offspring=GEOM, depth=3, seed=5))
    rec = remaining_time_records(path, level=3, n_queries=50, master_seed=6)
    assert rec.n_records == 0 and rec.n_dropped == 50
    with pytest.raises(AnalysisError) as err:
        remaining_time_tail(rec)
    assert err.value.code == "INSUFFICIENT_TAIL_POINTS"


def reference_remaining_time_records(path, level, n_queries, master_seed, query_index=0):
    """The two-scan ``remaining_time_records``, kept as its oracle.

    It extracts the passages at level n and again at n + 1, and finds each
    query's enclosing level-(n+1) crossing by binary search on the second scan.
    """
    rng = substream(master_seed, STREAM_GAP, query_index)
    tau, _ = extract_passage_times(path, level)
    tau_up, _ = extract_passage_times(path, level + 1)
    t0 = float(path.times[0])
    s = rng.uniform(t0, t0 + 0.9 * path.span, size=n_queries)
    nxt = np.searchsorted(tau, s, side="left")
    ok = nxt < tau.size
    s, nxt = s[ok], nxt[ok]
    gap = tau[nxt] - s
    j = np.searchsorted(tau_up, s, side="right") - 1
    inside = (j >= 0) & (j + 1 < tau_up.size)
    parent_start = tau_up[np.clip(j, 0, tau_up.size - 1)]
    y = (np.searchsorted(tau, s, side="right")
         - np.searchsorted(tau, parent_start, side="right") + 1)
    y = np.where(inside, y, 0).astype(np.int64)
    return RemainingTimeRecords(
        level=int(level), mu=path.mu, s=s, gap=gap, next_time=tau[nxt], y=y,
        n_dropped=int(n_queries - s.size),
    )


RECORD_PATHS = [(p, mode, root_mode) for p in (0.5, 0.25) for mode in ("mean", "sampled")
                for root_mode in ("single", "tile")] + [None]


@pytest.mark.parametrize("kind", RECORD_PATHS,
                         ids=lambda kind: "-".join(map(str, kind or ["ramp"])))
def test_remaining_time_records_match_the_two_scan_reference(kind):
    """Bitwise, at every level from the path's resolution to one above its root.

    A single root at level 1 has no passage after its start, so every query is
    dropped; at level 0 there is no complete level-1 crossing, so y is 0.  The
    16-step ramp (``kind`` None) has one level-4 crossing and none at level 5.
    """
    for seed in (1, 2, 3):
        if kind is None:
            path, levels = _ramp16(), range(0, 6)
        else:
            p, mode, root_mode = kind
            depth = 6 if p == 0.5 else 4
            path = simulate(SimulationConfig(
                offspring={"family": "geometric-pairs", "p": p}, depth=depth,
                duration_mode=mode, root_mode=root_mode, target_horizon=3.0, seed=seed,
                keep_trees=False))
            levels = range(-depth, 2)
        for i, level in enumerate(levels):
            got = remaining_time_records(path, level, 2000, master_seed=seed, query_index=i)
            ref = reference_remaining_time_records(path, level, 2000, master_seed=seed,
                                                   query_index=i)
            for name in ("s", "gap", "next_time", "y"):
                a, b = getattr(got, name), getattr(ref, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (seed, level, name)
            assert (got.level, got.mu, got.n_dropped) == (ref.level, ref.mu, ref.n_dropped)
