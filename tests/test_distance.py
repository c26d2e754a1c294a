"""Mixed-type distance and proximity estimation."""

import functools
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cafa.bench import covid_preset, lung_preset, train_test_split
from cafa.distance import _PAIR_CHUNK, delta, delta_to_rows, estimate_proximity
from cafa.errors import InvalidInputError
from cafa.schema import Dataset

from .conftest import make_schema, peak_bytes, random_instance, random_rows

MIXED = make_schema(
    ["cont", 6, "cont", 3, "cont"],
    weights=[1.0, 2.0, 0.5, 1.0, 3.0],
)


def delta_ref(a, b, schema):
    """Independent scalar re-implementation of the weighted mean distance."""
    acc = 0.0
    for j, f in enumerate(schema.features):
        d = (0.0 if a[j] == b[j] else 1.0) if f.is_categorical else abs(a[j] - b[j])
        acc += f.weight * d
    return acc / schema.weights.sum()


def test_delta_identity_and_examples():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = random_instance(MIXED, rng)
        assert delta(x, x, MIXED) == 0.0

    # m=4, unit weights, one categorical mismatch -> 1/4
    s4 = make_schema([3, 3, 3, 3])
    assert delta([0, 1, 2, 0], [0, 1, 2, 1], s4) == 0.25

    # m=2, weights (1, 3), continuous diffs (0.4, 0.0) -> 0.1
    s2 = make_schema(["cont", "cont"], weights=[1.0, 3.0])
    assert delta([0.4, 0.2], [0.0, 0.2], s2) == pytest.approx(0.1, abs=1e-15)


def test_delta_schema_mismatch():
    with pytest.raises(InvalidInputError):
        delta([0.1, 0.2], [0.1, 0.2, 0.3], MIXED)
    with pytest.raises(InvalidInputError):
        delta([0.1, 9, 0.2, 0, 0.3], [0.1, 0, 0.2, 0, 0.3], MIXED)  # bad code


@settings(max_examples=150)
@given(seed=st.integers(0, 2**31 - 1))
def test_metric_properties(seed):
    rng = np.random.default_rng(seed)
    a = random_instance(MIXED, rng)
    b = random_instance(MIXED, rng)
    c = random_instance(MIXED, rng)
    dab, dba = delta(a, b, MIXED), delta(b, a, MIXED)
    assert dab == dba  # symmetry is exact, same arithmetic both ways
    assert delta(a, a, MIXED) == 0.0
    assert 0.0 <= dab <= 1.0
    assert delta(a, c, MIXED) <= dab + delta(b, c, MIXED) + 1e-12
    assert abs(dab - delta_ref(a, b, MIXED)) <= 1e-12


def test_zero_weight_features_never_affect_delta():
    schema = make_schema(["cont", "cont", 4], weights=[1.0, 0.0, 2.0])
    a = np.array([0.3, 0.1, 2.0])
    b = np.array([0.7, 0.9, 1.0])
    base = delta(a, b, schema)
    for v in (0.0, 0.5, 1.0):
        b2 = b.copy()
        b2[1] = v
        assert delta(a, b2, schema) == base


def test_delta_to_rows_matches_scalar():
    rng = np.random.default_rng(3)
    X = random_rows(MIXED, rng, 60)
    x = random_instance(MIXED, rng)
    vec = delta_to_rows(X, x, MIXED)
    for i in range(X.shape[0]):
        assert abs(vec[i] - delta(X[i], x, MIXED)) <= 1e-15
    with pytest.raises(InvalidInputError):
        delta_to_rows(X[:, :3], x, MIXED)


def test_estimate_proximity_small_cases():
    schema = make_schema(["cont"])
    two_same = Dataset.from_normalized(schema, [[0.5], [0.5]], [0, 1])
    assert estimate_proximity(two_same) == 0.0
    extremes = Dataset.from_normalized(schema, [[0.0], [1.0]], [0, 1])
    assert estimate_proximity(extremes) == 1.0
    with pytest.raises(InvalidInputError):
        estimate_proximity(extremes, n_pairs=0)


def test_estimate_proximity_exhaustive_matches_brute_force():
    rng = np.random.default_rng(7)
    X = random_rows(MIXED, rng, 100)
    y = rng.integers(0, 2, size=100)
    y[:2] = [0, 1]
    data = Dataset.from_normalized(MIXED, X, y)
    # C(100, 2) = 4950 <= default n_pairs, so the estimator is exhaustive
    acc = 0.0
    n = 0
    for i in range(99):
        for j in range(i + 1, 100):
            acc += delta(X[i], X[j], MIXED)
            n += 1
    assert abs(estimate_proximity(data) - acc / n) <= 1e-9


def test_estimate_proximity_sampled_close_to_brute_force():
    rng = np.random.default_rng(11)
    X = random_rows(MIXED, rng, 300)
    y = rng.integers(0, 2, size=300)
    y[:2] = [0, 1]
    data = Dataset.from_normalized(MIXED, X, y)
    brute = estimate_proximity(data, n_pairs=10**9)  # forces the all-pairs path
    sampled = estimate_proximity(data, n_pairs=10_000, seed=0)
    assert abs(sampled - brute) <= 0.02
    assert estimate_proximity(data, n_pairs=10_000, seed=0) == sampled  # seeded


@functools.lru_cache(maxsize=None)
def _training_split(preset):
    """The training part the benchmark explains covid and lung rows against."""
    return train_test_split(preset(seed=0), 0.3, seed=0)[0]


SPLITS = {
    "covid": lambda breast: _training_split(covid_preset),
    "lung": lambda breast: _training_split(lung_preset),
    "breast": lambda breast: breast,
}


def sampled_proximity_reference(data, n_pairs, seed):
    """The sampled estimate with every pair scored at once: both column
    groups of all pairs gathered whole, then one mean."""
    X, w, cat = data.X, data.schema.weights, data.schema.is_categorical
    rng = np.random.default_rng(seed)
    i = rng.integers(0, data.n_rows, size=n_pairs)
    j = rng.integers(0, data.n_rows, size=n_pairs)
    clash = i == j
    while clash.any():
        j[clash] = rng.integers(0, data.n_rows, size=int(clash.sum()))
        clash = i == j
    acc = np.zeros(n_pairs)
    if cat.any():
        acc += (X[:, cat][i] != X[:, cat][j]).astype(np.float64) @ w[cat]
    if (~cat).any():
        acc += np.abs(X[:, ~cat][i] - X[:, ~cat][j]) @ w[~cat]
    return float(acc.mean() / w.sum())


@pytest.mark.parametrize("n_pairs", [1, _PAIR_CHUNK - 1, _PAIR_CHUNK, _PAIR_CHUNK + 1,
                                     10_000, 50_000])
@pytest.mark.parametrize("name", sorted(SPLITS))
def test_sampled_proximity_equals_the_unchunked_reference(name, n_pairs, breast_data):
    data = SPLITS[name](breast_data)
    if comb(data.n_rows, 2) <= n_pairs:
        # breast's 286 rows make 40,755 pairs, so every pair is scored
        assert (name, n_pairs) == ("breast", 50_000)
        assert estimate_proximity(data, n_pairs=n_pairs) == estimate_proximity(data, 10**9)
        return
    for seed in range(6):
        got = estimate_proximity(data, n_pairs=n_pairs, seed=seed)
        assert got.hex() == sampled_proximity_reference(data, n_pairs, seed).hex()


@pytest.mark.parametrize("name", ["covid", "lung"])
def test_sampled_proximity_peak_memory(name):
    # scoring all 10,000 pairs at once peaked at 2.2 MiB (covid) and 3.7 MiB
    # (lung), mostly the gathered column groups
    assert peak_bytes(estimate_proximity, SPLITS[name](None)) <= 2**20
