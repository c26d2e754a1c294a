"""End-to-end local/global attribution pipeline."""

import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import cafa
from cafa.bench import SynthSpec, generate_synth
from cafa.distance import delta_to_rows, estimate_proximity
from cafa.errors import (
    CorrelationUndefinedError,
    ExplanationError,
    GlobalFailureError,
    InvalidInputError,
    NeighborhoodImbalanceError,
)
from cafa.explain import Background, derive_seed, shapley_exact, shapley_forest
from cafa.forest import ForestParams, train_forest
from cafa.pipeline import (
    CafaConfig,
    GlobalCafaResult,
    cafa_global,
    cafa_local,
    compare_with_shap,
    pearson,
    resolve_pi,
    standard_shap,
)
from cafa.schema import Dataset, Feature, FeatureSchema

from .conftest import ProbModel, make_schema


def test_package_exports_resolve():
    assert len(set(cafa.__all__)) == len(cafa.__all__)
    missing = [name for name in cafa.__all__ if not hasattr(cafa, name)]
    assert missing == []


def _make_synth_task():
    spec = SynthSpec(
        m_controllable=4, m_uncontrollable=2, n_rows=500, seed=0,
        rule_features=(0, 2, 3, 4), rule_weights=(1.0, 0.8, 0.6, 0.9),
    )
    data = generate_synth(spec)
    model = train_forest(data, ForestParams(n_trees=40, max_depth=6, seed=0))
    return data, model


@pytest.fixture(scope="module")
def synth_task():
    return _make_synth_task()


FAST = dict(k=40, pi=0.5, n_perms=5, background_size=30, seed=3)


def test_hard_zero_and_linearity(synth_task):
    data, model = synth_task
    res = cafa_local(data.X[10], model, data.schema, CafaConfig(**FAST), data=data)
    phi = res.attribution.phi
    unc = data.schema.uncontrollable_idx
    assert np.all(phi[unc] == 0.0)  # bit-exact, not approximately
    assert np.any(phi[data.schema.controllable_idx] != 0.0)
    # the reported vector is exactly the mean of the per-row explanations
    resum = np.array([
        math.fsum(res.per_row_phi[:, j]) / res.per_row_phi.shape[0]
        for j in range(phi.size)
    ])
    assert np.max(np.abs(phi - resum)) <= 1e-12
    assert res.attribution.method == "cafa"
    assert res.per_row_phi.shape == (res.explained_rows.size, data.schema.arity)
    assert 0.0 <= res.surrogate_quality <= 1.0


def _leak_into(shapley_fn, col):
    """Wrap the tree explainer so it reports a small nonzero value on ``col``."""

    def leaky(*args, **kwargs):
        phi, phi0 = shapley_fn(*args, **kwargs)
        phi = phi.copy()
        phi[:, col] = 1e-3
        return phi, phi0

    return leaky


def test_nonzero_uncontrollable_raises(synth_task, monkeypatch):
    data, model = synth_task
    col = int(data.schema.uncontrollable_idx[0])
    monkeypatch.setattr("cafa.pipeline.shapley_forest", _leak_into(shapley_forest, col))
    with pytest.raises(ExplanationError, match="uncontrollable"):
        cafa_local(data.X[10], model, data.schema, CafaConfig(**FAST), data=data)


_LEAK_UNDER_O = textwrap.dedent("""
    import sys
    if __debug__:
        sys.exit("assertions are enabled; this check must run under python -O")
    import cafa.pipeline as pipeline
    from cafa.errors import ExplanationError
    from tests.test_pipeline import FAST, _leak_into, _make_synth_task

    data, model = _make_synth_task()
    col = int(data.schema.uncontrollable_idx[0])
    pipeline.shapley_forest = _leak_into(pipeline.shapley_forest, col)
    try:
        pipeline.cafa_local(data.X[10], model, data.schema, pipeline.CafaConfig(**FAST), data=data)
    except ExplanationError as exc:
        sys.exit(0 if "uncontrollable" in str(exc) else f"wrong error: {exc}")
    sys.exit("a nonzero uncontrollable attribution passed silently")
""")


def test_nonzero_uncontrollable_raises_under_optimize():
    # ``python -O`` strips assert statements; the zero check must survive it
    import cafa

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.dirname(os.path.dirname(os.path.abspath(cafa.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, root]))
    proc = subprocess.run([sys.executable, "-O", "-c", _LEAK_UNDER_O],
                          cwd=root, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_per_row_recomputation_oracle(synth_task):
    # the per-row attributions are the surrogate's exact Shapley values
    # against the stored background, and re-deriving them from the stored
    # surrogate and background reproduces them to the bit
    data, model = synth_task
    cfg = CafaConfig(**FAST)
    res = cafa_local(data.X[25], model, data.schema, cfg, data=data)
    rows = res.neighborhood.data.X
    for pos in (0, len(res.explained_rows) // 2, len(res.explained_rows) - 1):
        ri = int(res.explained_rows[pos])
        exact = shapley_exact(res.surrogate, rows[ri], res.background)
        assert np.max(np.abs(exact.phi - res.per_row_phi[pos])) <= 1e-12
        assert abs(exact.phi0 - res.attribution.phi0) <= 1e-12
    again, phi0 = shapley_forest(res.surrogate, rows[res.explained_rows], res.background)
    assert np.array_equal(again, res.per_row_phi)
    assert phi0 == res.attribution.phi0


def test_efficiency_on_average(synth_task):
    data, model = synth_task
    res = cafa_local(data.X[3], model, data.schema, CafaConfig(**FAST), data=data)
    rows = res.neighborhood.data.X[res.explained_rows]
    mean_prob = float(res.surrogate.predict_proba(rows)[:, 1].mean())
    attr = res.attribution
    assert abs(attr.phi0 + attr.phi.sum() - mean_prob) <= 1e-6


def test_reproducibility(synth_task):
    data, model = synth_task
    cfg = CafaConfig(**FAST)
    a = cafa_local(data.X[7], model, data.schema, cfg, data=data)
    b = cafa_local(data.X[7], model, data.schema, cfg, data=data)
    assert np.array_equal(a.attribution.phi, b.attribution.phi)
    assert a.attribution.phi0 == b.attribution.phi0
    assert np.array_equal(a.neighborhood.data.X, b.neighborhood.data.X)
    assert np.array_equal(a.explained_rows, b.explained_rows)


def test_n_locals_selects_nearest_rows(synth_task):
    data, model = synth_task
    x = data.X[11]
    cfg = CafaConfig(n_locals=15, **FAST)
    res = cafa_local(x, model, data.schema, cfg, data=data)
    assert res.explained_rows.size == 15
    rows = res.neighborhood.data.X
    d = delta_to_rows(rows, x, data.schema)
    want = np.sort(np.lexsort((np.arange(d.size), d))[:15])
    assert np.array_equal(res.explained_rows, want)
    # and every explained row is at least as close as every unexplained one
    others = np.setdiff1d(np.arange(rows.shape[0]), res.explained_rows)
    assert d[res.explained_rows].max() <= d[others].min() + 1e-12


def test_n_locals_exceeding_neighborhood_errors(synth_task):
    data, model = synth_task
    cfg = CafaConfig(n_locals=10_000, **FAST)
    with pytest.raises(InvalidInputError, match="n_locals"):
        cafa_local(data.X[0], model, data.schema, cfg, data=data)


def test_uncontrollable_only_model_raises_imbalance():
    # the model ignores every controllable feature, so the neighborhood
    # can never contain a second class
    schema = make_schema(["cont", "cont"], controllable=[False, True])
    f = ProbModel(lambda X: (X[:, 0] > 0.5).astype(float))
    cfg = CafaConfig(k=10, pi=0.5, max_attempts=2048, seed=0)
    with pytest.raises(NeighborhoodImbalanceError):
        cafa_local(np.array([0.2, 0.5]), f, schema, cfg)


def test_pearson():
    assert pearson([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == pytest.approx(1.0)
    assert pearson([1.0, 2.0, 3.0], [-1.0, -2.0, -3.0]) == pytest.approx(-1.0)
    with pytest.raises(CorrelationUndefinedError):
        pearson([1.0, 1.0], [0.0, 2.0])
    with pytest.raises(InvalidInputError):
        pearson([1.0], [2.0])


def test_compare_needs_two_controllables():
    schema = make_schema(["cont", "cont"], controllable=[False, True])
    f = ProbModel(lambda X: X[:, 1])
    with pytest.raises(InvalidInputError, match="two controllable"):
        compare_with_shap(np.array([0.5, 0.5]), f, schema, CafaConfig())


def test_compare_with_shap_smoke(synth_task):
    data, model = synth_task
    out = compare_with_shap(data.X[5], model, data.schema, CafaConfig(**FAST), data=data)
    assert -1.0 <= out.pearson_controllable <= 1.0
    assert out.shap.method == "tree-shap"  # the full model is a forest
    unc = data.schema.uncontrollable_idx
    assert np.all(out.cafa.attribution.phi[unc] == 0.0)
    assert np.any(out.shap.phi[unc] != 0.0)  # plain attribution has no such zeros


def test_standard_shap_paths(synth_task):
    data, model = synth_task
    x = data.X[0]
    tree = standard_shap(x, model, data.schema, CafaConfig(seed=1), data=data)
    assert tree.method == "tree-shap"
    # any other predict_proba model is enumerated up to 15 features...
    f = ProbModel(lambda X: 0.3 * X[:, 0] + 0.2 * X[:, 2] * X[:, 3] + 0.1 * X[:, 5])
    exact = standard_shap(x, f, data.schema, CafaConfig(seed=1), data=data)
    assert exact.method == "exact-shap"
    # ...and sampled beyond; every permutation of an additive model gives
    # feature j the same marginal, a_j (x_j - mean background_j)
    wide = generate_synth(SynthSpec(m_controllable=16, m_uncontrollable=0, n_rows=60, seed=2,
                                    kinds=("cont",) * 16))
    a = np.linspace(0.01, 0.05, 16)
    cfg = CafaConfig(seed=1, background_size=20)
    mc = standard_shap(wide.X[0], ProbModel(lambda X: X @ a), wide.schema, cfg, data=wide)
    assert mc.method == "mc-shap"
    bg = Background.from_dataset(wide, 20, derive_seed(1, 6))
    assert np.max(np.abs(mc.phi - a * (wide.X[0] - bg.rows.mean(axis=0)))) <= 1e-12
    # the tree path and enumeration agree on the forest
    want = shapley_exact(model, x, Background.from_dataset(data, 100, derive_seed(1, 6)))
    assert np.max(np.abs(tree.phi - want.phi)) <= 1e-12
    with pytest.raises(InvalidInputError):
        standard_shap(x, model, data.schema, CafaConfig(seed=1))  # background needs data


def test_standard_shap_uses_background_size(synth_task):
    data, model = synth_task
    x = data.X[0]
    small = standard_shap(x, model, data.schema, CafaConfig(seed=1, background_size=10), data=data)
    full = standard_shap(x, model, data.schema, CafaConfig(seed=1, background_size=100), data=data)
    assert not np.array_equal(small.phi, full.phi)
    assert small.phi0 != full.phi0


def test_resolve_pi(synth_task):
    data, _ = synth_task
    assert resolve_pi(CafaConfig(pi=0.4), None) == 0.4
    with pytest.raises(InvalidInputError):
        resolve_pi(CafaConfig(pi="estimate"), None)
    got = resolve_pi(CafaConfig(pi="estimate", seed=6), data)
    want = estimate_proximity(data, n_pairs=10_000, seed=derive_seed(6, 0))
    assert got == want


def test_config_validation():
    for bad in (
        dict(k=0),
        dict(pi=0.0),
        dict(pi=1.5),
        dict(pi="auto"),
        dict(n_perms=0),
        dict(n_locals=0),
        dict(background_size=0),
        dict(seed=-1),
    ):
        with pytest.raises(InvalidInputError):
            CafaConfig(**bad)
    d = CafaConfig(k=3).to_dict()
    assert d["k"] == 3 and d["surrogate_params"]["n_trees"] == 100
    assert set(d) == {"k", "pi", "surrogate_params", "n_perms", "n_locals", "background_size",
                      "max_attempts", "seed"}


def test_global_single_instance_equals_local(synth_task):
    data, model = synth_task
    xs = data.X[[4]]
    g = cafa_global(xs, model, data.schema, CafaConfig(**FAST), data=data)
    assert g.n_explained == 1 and not g.skipped
    only = g.per_instance[0][1]
    assert np.array_equal(g.mean_phi, only.attribution.phi)
    assert np.array_equal(g.mean_abs_phi, np.abs(only.attribution.phi))


def test_global_two_instance_aggregate(synth_task):
    data, model = synth_task
    g = cafa_global(data.X[[4, 9]], model, data.schema, CafaConfig(**FAST), data=data)
    p0 = g.per_instance[0][1].attribution.phi
    p1 = g.per_instance[1][1].attribution.phi
    assert np.max(np.abs(g.mean_phi - (p0 + p1) / 2)) <= 1e-12
    assert np.max(np.abs(g.mean_abs_phi - (np.abs(p0) + np.abs(p1)) / 2)) <= 1e-12
    unc = data.schema.uncontrollable_idx
    assert np.all(g.mean_abs_phi[unc] == 0.0)


def test_global_ranking_breaks_ties_by_feature_index():
    phis = np.array([[1.0, -3.0, 1.0]])
    g = GlobalCafaResult(phis=phis, mean_phi=phis[0], mean_abs_phi=np.abs(phis[0]),
                         per_instance=(), skipped=(), pi=0.5)
    # strictly decreasing mean |phi|, ties resolved by feature index
    assert list(g.ranking()) == [1, 0, 2]
    assert g.n_explained == 1


def test_global_skips_degenerate_instances_and_reports():
    schema = make_schema(["cont", "cont"], controllable=[False, True])

    def fn(X):
        # constant in the controllable direction when u0 is high
        return np.where(X[:, 0] > 0.7, 0.95, (X[:, 1] > 0.5).astype(float))

    f = ProbModel(fn)
    xs = np.array([[0.9, 0.5], [0.2, 0.5]])
    cfg = CafaConfig(k=15, pi=0.4, n_perms=4, background_size=20,
                     max_attempts=4096, seed=0)
    g = cafa_global(xs, f, schema, cfg)
    assert g.n_explained == 1
    assert g.per_instance[0][0] == 1  # the second instance survived
    assert len(g.skipped) == 1 and g.skipped[0][0] == 0
    assert "attempts" in g.skipped[0][1]

    with pytest.raises(GlobalFailureError):
        cafa_global(np.array([[0.9, 0.5], [0.95, 0.4]]), f, schema, cfg)
    with pytest.raises(InvalidInputError):
        cafa_global(np.zeros((0, 2)), f, schema, cfg)


def test_cafa_differs_from_controllable_only_retrain():
    # characterization: when a controllable feature is merely a proxy for an
    # uncontrollable driver, retraining without the driver inflates the
    # proxy, while attribution of the full model under pinned u0 does not
    rng = np.random.default_rng(0)
    n = 800
    u0 = rng.random(n)
    c0 = np.clip(u0 + rng.normal(0, 0.05, n), 0, 1)  # proxy for u0
    c1 = rng.random(n)  # independent direct cause
    X = np.column_stack([u0, c0, c1])
    y = ((u0 + 0.35 * c1) > np.median(u0 + 0.35 * c1)).astype(int)

    schema = FeatureSchema([
        Feature("u0", "cont", False),
        Feature("c0", "cont", True),
        Feature("c1", "cont", True),
    ])
    data = Dataset.from_normalized(schema, X, y)
    f = train_forest(data, ForestParams(n_trees=60, max_depth=7, seed=0))

    schema_c = FeatureSchema([
        Feature("c0", "cont", True),
        Feature("c1", "cont", True),
    ])
    data_c = Dataset.from_normalized(schema_c, X[:, 1:], y)
    f_c = train_forest(data_c, ForestParams(n_trees=60, max_depth=7, seed=0))

    x = np.array([0.55, 0.56, 0.5])
    cfg = CafaConfig(k=150, pi=0.35, n_perms=10, background_size=80, seed=5)
    res = cafa_local(x, f, schema, cfg, data=data)
    naive = standard_shap(x[1:], f_c, schema_c, CafaConfig(seed=5), data=data_c)

    assert abs(res.attribution.phi[2]) > abs(res.attribution.phi[1])  # c1 first
    assert abs(naive.phi[0]) > abs(naive.phi[1])  # the retrain promotes the proxy
