"""Byte-identity oracle: sha256 pins of CLI artifacts at fixed seeds.

Refactors must leave these artifacts unchanged; a deliberate change of the
random-stream layout or of an artifact format updates the pins and says so.
Fitted reports (``estimates.json``, verify reports) are left out because their
least-squares fits may differ in the last bit between LAPACK builds.
"""

import hashlib

import pytest

from cebp.cli import main

SIMULATE = ("simulate", "--family", "geometric-pairs", "--p", "0.5", "--depth", "5")
# Sampled, tiled runs of the two families whose draws take their own code:
# the poisson-pairs pmf table and the custom binomial-split population step.
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

PINS = {
    "an.forest.ndjson": "12bf2a12595bd06b5aef9ed93b5b0c5779be261b6f6fb6f9a266cacf157e0cf8",
    "an.mean_duration.csv": "fa383fcdc1ef230156410f852cb59d40874eef71bc51cb597c128a8dd19c91c2",
    "ing.csv": "b0bae2980597a8bf2459c497b21fbbf04e591f94d8790991972b0497eb3ab5a0",
    "cust.csv": "776d8421fc1ebd45eb582a9946bb51a0adab38b544b6d3c3fe8e0c804f7a0deb",
    "cust.json": "a715197b9fcc20e578a1efe9ad54697856f834fd3e4f47743cb4a3ce07565763",
    "cust.trees.ndjson": "a41da59fd58d8b8a9f45a42001bce41f0991c462639089718833c2d6e3865c19",
    "ing.json": "ca800666e1a5debb01d907fa2790afa6b943b2dbc396d1bd1e148b92202baf80",
    "mean.csv": "2e02cb221b83629fa780a2c7ff8e1aaace514d6086dda007339f6b35134501a2",
    "mean.json": "ef8557a7b51349bad4b09bb36a0856ad3776185c00b6be3b3a34597b2db1949a",
    "mean.trees.ndjson": "a5fb4044943923bb744c6886b52287e68e56ffecc0878ee7c75d11b2c53464dd",
    "pois.csv": "8f48aaa403c085bd39f61c6a201f09e7d2c4a87b609041f5393ab71e7dc5c0e0",
    "pois.json": "6355feb29226da04360db750e86083b6a92cfe371e0cd7feafaf9dee3b3db8e6",
    "pois.trees.ndjson": "28f286e9b1ac37ce3b94a43324db89e37c6235f1b0332caf537c5b3d4d11f242",
    "tile.csv": "3908279f99c15df781cdbaca5e937f84f066a6e902f56a7cf8344c65d524d3ba",
    "tile.json": "3016c7db8f943a76d3eb8915e84ada0566f8d5220f5f0c33d6ae7e72f635c708",
    "tile.trees.ndjson": "741024ca526164076a4c882c4d47bf92c85b630a349c9f89759e8714bb2cbf97",
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
            ("analyze", "--path", "mean.csv", "--levels", "-5:0", "--emit-plots",
             "--out", "an"),
            ("ingest", "--path", "ext.csv", "--value-col", "1", "--anchor", "--out", "ing"),
        ]
        for argv in runs:
            assert main(list(argv)) == 0
    return work


@pytest.mark.parametrize("name", sorted(PINS))
def test_artifact_sha256_is_pinned(artifacts, name):
    digest = hashlib.sha256((artifacts / name).read_bytes()).hexdigest()
    assert digest == PINS[name]
