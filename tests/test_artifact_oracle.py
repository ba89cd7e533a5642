"""Byte-identity oracle: sha256 pins of CLI artifacts at fixed seeds.

Refactors must leave these artifacts unchanged; a deliberate change of the
random-stream layout or of an artifact format updates the pins and says so.
Fitted reports (``estimates.json`` and the verify suites that fit a slope) are
left out because their least-squares fits may differ in the last bit between
LAPACK builds; ``verify assumptions`` fits nothing and is pinned.  The W
samples behind the ``w-tail`` suite are pinned directly instead of its report.
"""

import hashlib

import numpy as np
import pytest

from cebp.branching import sample_W
from cebp.cli import main
from cebp.extract import extract_crossing_forest
from cebp.offspring import make_offspring
from cebp.paths import read_path_csv
from cebp.treeio import read_trees

SIMULATE = ("simulate", "--family", "geometric-pairs", "--p", "0.5", "--depth", "5")
# Sampled, tiled runs of the two families whose draws take their own code:
# poisson-pairs draws with rng.poisson, custom with a binomial split across its
# table.  Neither reads the poisson-pairs pmf table; the check-dist and
# assumptions reports below do.
TILED = ("--depth", "5", "--mode", "sampled", "--root-mode", "tile", "--horizon", "2")

EXTERNAL_CSV = (
    "t, x, note\n"
    "0.0, 1.5, a\n"
    "0.5, 1.75, b\n"
    "1.0, 2.0, c\n"
    "1.25, 1.75, d\n"
    "2.0, 1.5, e\n"
    "2.5, 2.0, f\n"
    "3.0, 2.5, g\n"
)

# The sampled runs (tile, pois, cust) draw each root's leaf durations in
# LEAF_BLOCK blocks, block b on the stream (seed, STREAM_DURATION, root, b).
PINS = {
    "an.mean_duration.csv": "fa383fcdc1ef230156410f852cb59d40874eef71bc51cb597c128a8dd19c91c2",
    "chk_pois1.json": "581db288fdbff9b2b264e1a1e76c05b90ad51f488126678c909ec75bd8934caa",
    "chk_pois05.json": "6ef41a0a3ad10bf556dcf9fd6a0283364e02595ea7f7791c7f21688283b60c3b",
    "assumptions.json": "33f6a2eedcb6465368bf2441f4a106767d90dd7b85c38c65501cc0f2b2d6bb64",
    "ing.csv": "b0bae2980597a8bf2459c497b21fbbf04e591f94d8790991972b0497eb3ab5a0",
    "cust.csv": "32acbdc7a7cd9da369191bcabb0c1761902380c05afeb43e599459e7b1865f08",
    "cust.json": "a715197b9fcc20e578a1efe9ad54697856f834fd3e4f47743cb4a3ce07565763",
    "cust.trees.ndjson": "bcd0bffba77a6c41c17ad6ecf5b2c4d75a60bf8f2a68e073b5ce281938d1439a",
    "ing.json": "ca800666e1a5debb01d907fa2790afa6b943b2dbc396d1bd1e148b92202baf80",
    "mean.csv": "2e02cb221b83629fa780a2c7ff8e1aaace514d6086dda007339f6b35134501a2",
    "mean.json": "ef8557a7b51349bad4b09bb36a0856ad3776185c00b6be3b3a34597b2db1949a",
    "mean.trees.ndjson": "1e238650b4e69c37a4f59eb211c30f7d172034fd4a78e490eae438ad2631d641",
    "pois.csv": "ebd6db93acf85a9fa540cc0060ab8fe8b9c7ed5fc44cf5c7e8eaef35c1dbdac7",
    "pois.json": "6355feb29226da04360db750e86083b6a92cfe371e0cd7feafaf9dee3b3db8e6",
    "pois.trees.ndjson": "9c14be68ff631777fb9add274f14b67a515d3b0fa936b8c137d7bbb3fa9c6132",
    "tile.csv": "fb7f61ba85d52cb60e7ad406dd9182a1965c5533b065bb8cfb4263d8f1f11838",
    "tile.json": "3016c7db8f943a76d3eb8915e84ada0566f8d5220f5f0c33d6ae7e72f635c708",
    "tile.trees.ndjson": "e478d34dba621db436c524dcd442a340c1a03125dfdfee51e62240bf322a288e",
}


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    work = tmp_path_factory.mktemp("oracle")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(work)
        (work / "ext.csv").write_text(EXTERNAL_CSV)
        runs = [
            (*SIMULATE, "--seed", "3", "--out", "mean"),
            (*SIMULATE, "--mode", "sampled", "--root-mode", "tile", "--horizon", "2",
             "--seed", "4", "--out", "tile"),
            ("simulate", "--family", "poisson-pairs", "--lambda", "1", *TILED,
             "--seed", "5", "--out", "pois"),
            ("simulate", "--family", "custom", "--pmf", '{"2": 0.5, "4": 0.5}', *TILED,
             "--seed", "6", "--out", "cust"),
            ("analyze", "--path", "mean.csv", "--levels", "-5:0", "--emit-plots", "--out", "an"),
            ("ingest", "--path", "ext.csv", "--value-col", "1", "--anchor", "--out", "ing"),
            ("check-dist", "--family", "poisson-pairs", "--lambda", "1", "--out", "chk_pois1.json"),
            ("check-dist", "--family", "poisson-pairs", "--lambda", "0.5",
             "--out", "chk_pois05.json"),
            ("verify", "assumptions", "--out", "assumptions.json"),
        ]
        for argv in runs:
            assert main(list(argv)) == 0
    return work


@pytest.mark.parametrize("name", sorted(PINS))
def test_artifact_sha256_is_pinned(artifacts, name):
    digest = hashlib.sha256((artifacts / name).read_bytes()).hexdigest()
    assert digest == PINS[name]


def test_extracted_forest_is_the_pinned_tree_exactly(artifacts):
    """The crossings extracted from the pinned path are its pinned tree, bit for bit."""
    forest = extract_crossing_forest(
        read_path_csv(str(artifacts / "mean.csv"), str(artifacts / "mean.json")), (-5, 0))
    (tree,) = read_trees(artifacts / "mean.trees.ndjson")
    durations, starts = tree.timing()
    assert sorted(forest.levels) == [tree.root_level - g for g in range(tree.depth, -1, -1)]
    for g in range(tree.depth + 1):
        rec = forest[tree.root_level - g]
        counts = tree.z(g) if g < tree.depth else np.zeros(rec.n, dtype=np.int64)
        assert np.array_equal(rec.orientations, tree.orientations[g])
        assert np.array_equal(rec.subcrossing_counts, counts)
        assert np.array_equal(rec.start_times, starts[g])
        assert np.array_equal(rec.end_times, starts[g] + durations[g])


# sha256 of sample_W(dist, 12, 2000, seed=1).samples.tobytes(), drawn in W_BLOCK blocks
W_PINS = {
    "geometric-p0.5": ({"family": "geometric-pairs", "p": 0.5},
                       "e156d1f57fafa85f58b89549584bedb132a94a26f006f02f4a6074fb93093d30"),
    "geometric-p0.25": ({"family": "geometric-pairs", "p": 0.25},
                        "abcf3e7b225b82dbb4803e879de4b405990ab5de1097599b85f452e7e1477d9b"),
    "poisson-lam1": ({"family": "poisson-pairs", "lam": 1.0},
                     "58d54c9bcdbe87c5f692a781b877cc074d5979551fd241f32b801cc38acf597f"),
    "custom-2-4-8": ({"family": "custom", "pmf": {2: 0.5, 4: 0.3, 8: 0.2}},
                     "163bffd6c62273e83a345e1138cc5ad260b4ba7d87e3b8d8ddfb33b2a9855dbf"),
}


@pytest.mark.parametrize("name", sorted(W_PINS))
def test_w_samples_sha256_is_pinned(name):
    spec, pin = W_PINS[name]
    samples = sample_W(make_offspring(**spec), 12, 2000, seed=1).samples
    assert hashlib.sha256(samples.tobytes()).hexdigest() == pin
