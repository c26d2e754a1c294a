"""Selective perturbation and balanced neighborhood generation."""

import hashlib
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare, kstest, truncnorm

from cafa.bench import lung_preset
from cafa.distance import delta, delta_to_rows, estimate_proximity
from cafa.errors import InvalidInputError, NeighborhoodImbalanceError
from cafa.forest import ForestParams, train_forest
from cafa.sampler import SIGMA, generate_neighborhood, perturb_batch
from cafa.schema import FeatureSchema

from .conftest import ProbModel, make_schema, random_instance


def perturb_once(x, schema: FeatureSchema, rng):
    """Single perturbation; uncontrollable features pass through unchanged."""
    return perturb_batch(x, schema, rng, 1)[0]


@settings(max_examples=60)
@given(seed=st.integers(0, 2**31 - 1), n_feats=st.integers(1, 6))
def test_perturbation_pins_uncontrollables(seed, n_feats):
    rng = np.random.default_rng(seed)
    kinds = [rng.choice(["cont", "cat"]) for _ in range(n_feats)]
    kinds = [k if k == "cont" else int(rng.integers(2, 6)) for k in kinds]
    ctrl = rng.random(n_feats) < 0.5
    schema = make_schema(kinds, controllable=ctrl)
    x = random_instance(schema, rng)
    out = perturb_once(x, schema, np.random.default_rng(seed + 1))
    unc = schema.uncontrollable_idx
    assert np.array_equal(out[unc], x[unc])  # pinned bit-exact
    for j in schema.controllable_idx:
        if schema.is_categorical[j]:
            assert out[j] == int(out[j]) and 0 <= out[j] < schema.vocab_sizes[j]
        else:
            assert 0.0 <= out[j] <= 1.0


def test_no_controllables_returns_x_unchanged():
    schema = make_schema(["cont", 4], controllable=[False, False])
    x = np.array([0.37, 2.0])
    out = perturb_once(x, schema, np.random.default_rng(0))
    assert np.array_equal(out, x)


def test_categorical_proposal_is_uniform():
    schema = make_schema([4])
    x = np.array([0.0])
    draws = perturb_batch(x, schema, np.random.default_rng(123), 10_000)[:, 0]
    counts = np.bincount(draws.astype(int), minlength=4)
    freqs = counts / 10_000
    assert np.all(np.abs(freqs - 0.25) <= 0.02)
    stat, p = chisquare(counts)
    assert p > 1e-3


def test_continuous_proposal_stays_near_query():
    schema = make_schema(["cont"])
    x = np.array([0.5])
    draws = perturb_batch(x, schema, np.random.default_rng(5), 10_000)[:, 0]
    assert draws.min() >= 0.0 and draws.max() <= 1.0
    assert abs(draws.mean() - 0.5) < 0.02  # symmetric truncation around 0.5
    assert 0.2 < draws.std() < 0.3


@pytest.mark.parametrize("mu", [0.0, 0.1, 0.5, 0.9, 1.0])
def test_continuous_proposal_is_the_truncated_gaussian(mu):
    schema = make_schema(["cont"])
    draws = perturb_batch(np.array([mu]), schema, np.random.default_rng(17), 20_000)[:, 0]
    ref = truncnorm(-mu / SIGMA, (1.0 - mu) / SIGMA, loc=mu, scale=SIGMA)
    assert kstest(draws, ref.cdf).pvalue > 1e-3


@pytest.mark.parametrize("value", [-0.5, 1.5, 5.0])
def test_perturb_batch_rejects_a_continuous_value_outside_the_unit_interval(value):
    with pytest.raises(InvalidInputError, match="outside"):
        perturb_batch(np.array([value]), make_schema(["cont"]), np.random.default_rng(0), 8)


def test_linear_boundary_neighborhood_contract():
    schema = make_schema(["cont", "cont"], controllable=[False, True])
    x = np.array([0.4, 0.5])
    f = ProbModel(lambda X: (X[:, 1] > 0.5).astype(float))  # boundary through x
    pi = 0.3
    nb = generate_neighborhood(x, f, schema, pi=pi, k=50, seed=0)
    data = nb.data
    assert data.n_rows == 100  # binary, K=50 -> exactly 2K rows
    for i in range(data.n_rows):
        assert delta(data.X[i], x, schema) <= pi
        assert data.X[i, 0] == x[0]  # uncontrollable pinned on every row
    counts = np.bincount(data.y)
    assert list(counts) == [50, 50]
    assert set(nb.stats) == {"attempts", "rejections_distance", "rejections_balance"}
    assert nb.stats["attempts"] >= 100


def test_binary_task_k500_gives_1000_rows():
    schema = make_schema(["cont", "cont"])
    x = np.array([0.5, 0.5])
    f = ProbModel(lambda X: (X[:, 0] + X[:, 1] > 1.0).astype(float))
    nb = generate_neighborhood(x, f, schema, pi=1.0, k=500, seed=1)
    assert nb.data.n_rows == 1000
    assert list(np.bincount(nb.data.y)) == [500, 500]


def test_three_class_balance_is_exact():
    schema = make_schema(["cont"])

    class ThreeWay:
        def predict_proba(self, X):
            v = X[:, 0]
            return np.column_stack([v < 0.33, (v >= 0.33) & (v < 0.66), v >= 0.66]).astype(float)

    nb = generate_neighborhood(np.array([0.5]), ThreeWay(), schema, pi=1.0, k=20, seed=2)
    assert nb.data.n_rows == 60
    assert list(np.bincount(nb.data.y)) == [20, 20, 20]


def test_constant_model_raises_imbalance():
    schema = make_schema(["cont", "cont"])
    f = ProbModel(lambda X: np.full(X.shape[0], 0.9))
    with pytest.raises(NeighborhoodImbalanceError) as exc_info:
        generate_neighborhood(np.array([0.5, 0.5]), f, schema, pi=0.5, k=10,
                              max_attempts=2048, seed=0)
    err = exc_info.value
    assert err.attempts == 2048
    assert list(err.class_counts) == [1]  # only the constant class observed
    assert err.exit_code == 5


def test_all_uncontrollable_schema_raises_imbalance():
    schema = make_schema(["cont", "cont"], controllable=[False, False])
    f = ProbModel(lambda X: (X[:, 0] > 0.3).astype(float))
    # every candidate equals x, so only one label is ever observed
    with pytest.raises(NeighborhoodImbalanceError):
        generate_neighborhood(np.array([0.5, 0.5]), f, schema, pi=0.5, k=5,
                              max_attempts=512, seed=0)


def test_determinism():
    schema = make_schema(["cont", 3, "cont"])
    x = np.array([0.5, 1.0, 0.4])
    f = ProbModel(lambda X: (X[:, 0] + X[:, 2] > 0.9).astype(float))
    a = generate_neighborhood(x, f, schema, pi=0.6, k=30, seed=42)
    b = generate_neighborhood(x, f, schema, pi=0.6, k=30, seed=42)
    c = generate_neighborhood(x, f, schema, pi=0.6, k=30, seed=43)
    assert np.array_equal(a.data.X, b.data.X)
    assert np.array_equal(a.data.y, b.data.y)
    assert a.stats == b.stats
    assert not np.array_equal(a.data.X, c.data.X)


def test_parameter_validation():
    schema = make_schema(["cont"])
    f = ProbModel(lambda X: X[:, 0])
    x = np.array([0.5])
    with pytest.raises(InvalidInputError):
        generate_neighborhood(x, f, schema, pi=0.0, k=5)
    with pytest.raises(InvalidInputError):
        generate_neighborhood(x, f, schema, pi=1.5, k=5)
    with pytest.raises(InvalidInputError):
        generate_neighborhood(x, f, schema, pi=0.5, k=0)
    with pytest.raises(InvalidInputError):
        generate_neighborhood(x, f, schema, pi=0.5, k=5, max_attempts=0)


def test_random_configurations_satisfy_invariants():
    # smaller cousin of the acceptance sweep: random schema, pi, and K
    rng = np.random.default_rng(2718)
    for _ in range(10):
        n_feats = int(rng.integers(2, 5))
        kinds = [("cont" if rng.random() < 0.6 else int(rng.integers(2, 5)))
                 for _ in range(n_feats)]
        ctrl = rng.random(n_feats) < 0.7
        ctrl[int(rng.integers(0, n_feats))] = True  # at least one controllable
        schema = make_schema(kinds, controllable=ctrl)
        x = random_instance(schema, rng)
        w = rng.normal(size=n_feats)
        pi = float(rng.uniform(0.2, 1.0))
        k = int(rng.integers(5, 30))
        # put the boundary inside the reachable score range so both classes
        # exist within the proximity ball
        probe = perturb_batch(x, schema, np.random.default_rng(1), 400)
        probe = probe[delta_to_rows(probe, x, schema) <= pi]
        scores = probe @ w
        thresh = float((scores.min() + scores.max()) / 2.0)

        def fn(X, w=w, thresh=thresh):
            return (X @ w > thresh).astype(float)

        nb = generate_neighborhood(x, ProbModel(fn), schema, pi=pi, k=k,
                                   seed=int(rng.integers(0, 1 << 30)))
        data = nb.data
        counts = np.bincount(data.y)
        assert all(c in (0, k) for c in counts) and (counts == k).sum() >= 2
        unc = schema.uncontrollable_idx
        for i in range(data.n_rows):
            assert delta(data.X[i], x, schema) <= pi
            assert np.array_equal(data.X[i][unc], x[unc])


def test_seeded_lung_neighborhood_is_bit_identical():
    # sha256 of the rows and labels; lung perturbs five continuous controllable
    # features, so this pins the truncated Gaussian's rejection stream
    data = lung_preset(seed=0)
    model = train_forest(data, ForestParams(n_trees=4, seed=2))
    nb = generate_neighborhood(data.X[7], model, data.schema,
                               pi=estimate_proximity(data, seed=0), k=40, seed=11)
    digest = hashlib.sha256(nb.data.X.tobytes() + nb.data.y.tobytes()).hexdigest()
    assert digest == "4f69aa003042cb6121781fc288a412d1a1d49b68a96af1fa7dd965b08c7d0603"


def _exits_without_scipy(script):
    import cafa

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.dirname(os.path.dirname(os.path.abspath(cafa.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, root]))
    proc = subprocess.run([sys.executable, "-c", script + _NO_SCIPY],
                          cwd=root, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


_NO_SCIPY = 'sys.exit("scipy was imported" if "scipy" in sys.modules else 0)\n'

_CATEGORICAL_NEIGHBORHOOD = textwrap.dedent("""
    import sys
    import numpy as np
    from cafa.sampler import generate_neighborhood
    from tests.conftest import ProbModel, make_schema

    schema = make_schema([3, 4, 2], controllable=[True, True, False])
    f = ProbModel(lambda X: (X[:, 0] + X[:, 1] > 2).astype(float))
    generate_neighborhood(np.array([1.0, 1.0, 0.0]), f, schema, pi=1.0, k=10, seed=0)
""")


def test_categorical_neighborhood_does_not_import_scipy():
    _exits_without_scipy(_CATEGORICAL_NEIGHBORHOOD)


_LUNG_EXPLANATION = textwrap.dedent("""
    import sys
    from cafa.bench import lung_preset
    from cafa.forest import ForestParams, train_forest
    from cafa.pipeline import CafaConfig, cafa_local

    data = lung_preset(seed=0)
    assert (~data.schema.is_categorical[data.schema.controllable_idx]).sum() == 5
    model = train_forest(data, ForestParams(n_trees=4, seed=2))
    cfg = CafaConfig(k=30, background_size=20, seed=1,
                     surrogate_params=ForestParams(n_trees=5, max_depth=4))
    cafa_local(data.X[7], model, data.schema, cfg, data=data)
""")


def test_continuous_explanation_does_not_import_scipy():
    # the truncated Gaussian is drawn by rejection from numpy's normal generator
    _exits_without_scipy(_LUNG_EXPLANATION)
