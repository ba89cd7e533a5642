"""Property tests: structural invariants over generated inputs.

Examples are derandomized so the suite gives the same verdict on every run.
"""

import itertools
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cebp.errors import CebpError
from cebp.extract import extract_crossing_forest, forest_matches_tree
from cebp.offspring import make_offspring
from cebp.paths import SimulationConfig, ingest_csv, read_path_csv, simulate
from cebp.tree import DOWN, UP, assign_durations, expand_tree, validate_tree
from cebp.treeio import read_trees, write_trees

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

FAMILIES = st.one_of(
    st.builds(lambda p: {"family": "geometric-pairs", "p": p}, st.floats(0.4, 0.9)),
    st.builds(lambda lam: {"family": "poisson-pairs", "lam": lam}, st.floats(0.1, 1.5)),
    st.builds(lambda b: {"family": "fixed-pairs", "b": b}, st.integers(2, 3)),
    st.builds(lambda w: {"family": "custom", "pmf": {2: w, 4: 1.0 - w}}, st.floats(0.1, 0.9)),
)

NUMBERS = st.one_of(st.floats(), st.integers(-3, 3), st.just(""))
CSV_TEXT = st.lists(st.tuples(NUMBERS, NUMBERS), max_size=6).map(
    lambda rows: "".join(f"{t},{v}\n" for t, v in rows).encode())

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=6,
)


@pytest.fixture(scope="module")
def new_file(tmp_path_factory):
    """A fresh file name per call; truncating a written file is slow on some filesystems."""
    root, names = tmp_path_factory.mktemp("properties"), itertools.count()
    return lambda suffix: root / f"{next(names)}{suffix}"


@settings(PROPERTY, max_examples=1000)
@given(content=st.one_of(st.binary(max_size=64), CSV_TEXT), anchor=st.booleans())
def test_csv_readers_raise_only_cebp_errors(new_file, content, anchor):
    csv_file = new_file(".csv")
    csv_file.write_bytes(content)
    for read in (read_path_csv, lambda f: ingest_csv(f, anchor_origin=anchor)):
        try:
            path = read(csv_file)
        except CebpError:
            continue
        assert np.all(np.diff(path.times) > 0)
        assert np.all(np.isfinite(path.values))


@settings(PROPERTY, max_examples=150)
@given(spec=FAMILIES, depth=st.integers(1, 4), root_level=st.integers(-6, 6),
       durations=st.sampled_from([None, "mean", "sampled"]),
       n_trees=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_tree_files_round_trip(new_file, spec, depth, root_level, durations, n_trees, seed):
    dist = make_offspring(**spec)
    trees = []
    for i in range(n_trees):
        rng = np.random.default_rng([seed, i])
        tree = expand_tree(dist, UP if i % 2 else DOWN, depth, rng, root_level=root_level)
        if durations is not None:
            assign_durations(tree, dist, durations, rng, w_generations=4)
        trees.append(tree)
    first, second = new_file(".ndjson"), new_file(".ndjson")
    write_trees(trees, first)
    back = read_trees(first)
    assert len(back) == n_trees
    assert all(validate_tree(tree) is None for tree in back)
    write_trees(back, second)
    assert first.read_bytes() == second.read_bytes()


@settings(PROPERTY, max_examples=150)
@given(spec=FAMILIES, depth=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1),
       mode=st.sampled_from(["mean", "sampled"]))
def test_simulated_forest_matches_its_tree(spec, depth, seed, mode):
    path = simulate(SimulationConfig(offspring=spec, depth=depth, duration_mode=mode,
                                     w_generations=4, seed=seed))
    forest = extract_crossing_forest(path, (-depth, 0))
    assert forest_matches_tree(forest, path.trees[0]) is None


@settings(PROPERTY, max_examples=400)
@given(data=st.data(), durations=st.booleans(), n_trees=st.integers(1, 2), value=JSON_VALUES)
def test_tree_reader_raises_only_cebp_errors(new_file, data, durations, n_trees, value):
    dist = make_offspring("fixed-pairs", b=2)
    trees = [expand_tree(dist, UP, 1, np.random.default_rng(i)) for i in range(n_trees)]
    if durations:
        trees = [assign_durations(tree, dist, "mean", None) for tree in trees]
    good = new_file(".ndjson")
    write_trees(trees, good)
    recs = [json.loads(line) for line in good.read_text().splitlines()]
    index = data.draw(st.integers(0, len(recs) - 1))
    recs[index][data.draw(st.sampled_from(sorted(recs[index])))] = value
    bad = new_file(".ndjson")
    bad.write_text("".join(json.dumps(rec) + "\n" for rec in recs))
    try:
        read_trees(bad)
    except CebpError:
        pass
