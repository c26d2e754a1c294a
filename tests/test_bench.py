"""Synthetic benchmark generators."""

import dataclasses

import numpy as np
import pytest

from cafa.bench import (
    SynthSpec,
    breast_ingestion_spec,
    covid_preset,
    covid_schema,
    generate_synth,
    lung_preset,
    lung_schema,
    train_test_split,
)
from cafa.errors import InvalidInputError
from cafa.forest import ForestParams, RandomForest, accuracy, train_forest
from cafa.schema import FeatureSchema, IngestionSpec, ingestion_spec_for, load_csv

from .conftest import DATA_DIR


def _dataset_ok(data):
    """Every cell respects its feature kind."""
    for j in range(data.schema.arity):
        col = data.X[:, j]
        if data.schema.is_categorical[j]:
            assert np.array_equal(col, np.round(col))
            assert col.min() >= 0 and col.max() < data.schema.vocab_sizes[j]
        else:
            assert col.min() >= 0.0 and col.max() <= 1.0


# -- generic generator -------------------------------------------------------


def test_generate_synth_deterministic():
    spec = SynthSpec(m_controllable=3, m_uncontrollable=2, n_rows=120, seed=9)
    a, b = generate_synth(spec), generate_synth(spec)
    assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)
    c = generate_synth(SynthSpec(m_controllable=3, m_uncontrollable=2, n_rows=120, seed=10))
    assert not np.array_equal(a.X, c.X)


def test_generate_synth_schema_layout():
    spec = SynthSpec(m_controllable=2, m_uncontrollable=2, n_rows=60, seed=0,
                     kinds=("cont", 4, "cont", 3))
    data = generate_synth(spec)
    assert data.schema.names == ("u0", "u1", "c0", "c1")
    assert [f.controllable for f in data.schema.features] == [False, False, True, True]
    assert data.schema.vocab_sizes[1] == 4 and data.schema.vocab_sizes[3] == 3
    _dataset_ok(data)


def test_noise_free_rule_is_learnable():
    spec = SynthSpec(
        m_controllable=2, m_uncontrollable=0, n_rows=1000, seed=4,
        kinds=("cont", "cont"), rule_features=(0, 1), rule_weights=(1.0, 1.0),
    )
    tr, te = train_test_split(generate_synth(spec), test_fraction=0.3, seed=0)
    model = train_forest(tr, ForestParams(n_trees=60, max_depth=8, seed=0))
    assert accuracy(model, te) >= 0.95


def test_label_noise_flips_labels():
    base = dict(m_controllable=2, m_uncontrollable=0, n_rows=400, seed=4,
                kinds=("cont", "cont"))
    clean = generate_synth(SynthSpec(**base))
    noisy = generate_synth(SynthSpec(noise=0.25, **base))
    flipped = np.mean(clean.y != noisy.y)
    assert 0.15 < flipped < 0.35


def test_generate_synth_zero_rows_rejected():
    with pytest.raises(InvalidInputError, match="n_rows"):
        generate_synth(SynthSpec(m_controllable=1, m_uncontrollable=1, n_rows=0))


def test_spec_validation():
    ok = dict(m_controllable=2, m_uncontrollable=1, n_rows=10)
    for bad in (
        dict(ok, m_controllable=-1),
        dict(ok, m_controllable=0, m_uncontrollable=0),
        dict(ok, noise=0.5),
        dict(ok, kinds=("cont",)),
        dict(ok, kinds=("cont", "x", 3)),
        dict(ok, kinds=("cont", 1, 3)),
        dict(ok, rule_features=()),
        dict(ok, rule_features=(3,)),
        dict(ok, rule_features=(0,), rule_weights=(1.0, 2.0)),
        dict(ok, seed=-1),
    ):
        with pytest.raises(InvalidInputError):
            SynthSpec(**bad)


@pytest.mark.parametrize("weight", [np.nan, np.inf, -np.inf, 10 ** 400],
                         ids=["nan", "inf", "-inf", "int-past-float"])
def test_rule_weights_must_be_finite_numbers(weight):
    # a NaN or infinite weight makes every rule score NaN or infinite, and the
    # labels one class
    with pytest.raises(InvalidInputError, match="rule_weights must list finite numbers"):
        SynthSpec(2, 0, 50, rule_weights=(1.0, weight))


@pytest.mark.parametrize("index", [1.5, 1.0, True, "1", None])
def test_rule_feature_index_must_be_an_integer(index):
    # a float or bool index would be truncated to a column when labelling
    with pytest.raises(InvalidInputError, match="rule_features entry must be an integer"):
        SynthSpec(2, 0, 50, rule_features=(index,))


def test_rule_feature_numpy_integer_accepted():
    spec = SynthSpec(2, 0, 50, kinds=("cont", "cont"), rule_features=(np.int64(1),))
    plain = dataclasses.replace(spec, rule_features=(1,))
    assert np.array_equal(generate_synth(spec).y, generate_synth(plain).y)


# -- epidemic-policy preset --------------------------------------------------

MEASURES = ("mask_indoor", "mask_outdoor", "home_visits", "contact_restr",
            "public_ban", "school_limit", "shop_closure", "daycare_closure",
            "industry_closure", "night_curfew")
CONTEXT = ("cases", "cum_cases", "deaths", "tests", "temperature", "humidity", "region")


@pytest.fixture(scope="module")
def covid():
    return covid_preset(seed=0)


def test_covid_shape_and_schema(covid):
    assert covid.X.shape == (3936, 17)
    schema = covid.schema
    assert set(schema.names) == set(MEASURES) | set(CONTEXT)
    for name in MEASURES:
        f = schema.features[schema.names.index(name)]
        assert f.controllable
        want = ("0", "M1", "M2", "M3", "M4", "H1", "H2", "H3", "H4") \
            if name in ("mask_indoor", "mask_outdoor", "home_visits",
                        "contact_restr", "public_ban", "school_limit") \
            else ("0", "1", "2", "3", "4")
        assert f.vocabulary == want
    for name in CONTEXT:
        assert not schema.features[schema.names.index(name)].controllable
    region = schema.features[schema.names.index("region")]
    assert region.vocabulary == tuple(f"R{i}" for i in range(12))
    _dataset_ok(covid)
    assert set(np.unique(covid.y)) == {0, 1}
    assert covid_schema().names == schema.names


def test_covid_deterministic(covid):
    again = covid_preset(seed=0)
    assert np.array_equal(covid.X, again.X) and np.array_equal(covid.y, again.y)
    other = covid_preset(seed=1)
    assert not np.array_equal(covid.X, other.X)


def _bin10(v):
    # decile codes for a continuous column
    qs = np.quantile(v, np.linspace(0.0, 1.0, 11)[1:-1])
    return np.searchsorted(qs, v, side="left")


def _plugin_mi(y, z):
    """Plug-in mutual information between two discrete code vectors (nats)."""
    mi = 0.0
    for yy in np.unique(y):
        my = y == yy
        p_y = my.mean()
        for zz in np.unique(z):
            p_yz = (my & (z == zz)).mean()
            if p_yz > 0.0:
                mi += p_yz * np.log(p_yz / (p_y * (z == zz).mean()))
    return mi


def test_covid_hard_contact_restrictions_carry_the_signal(covid):
    # the strongest planted lever must tell you more about the label than
    # any of the context columns an explainer is told to leave alone
    schema = covid.schema
    vocab = schema.features[schema.names.index("contact_restr")].vocabulary
    hard = {i for i, c in enumerate(vocab) if c.startswith("H")}
    cr_hard = np.isin(covid.X[:, schema.names.index("contact_restr")], sorted(hard)).astype(int)
    mi_lever = _plugin_mi(covid.y, cr_hard)
    for name in CONTEXT:
        col = covid.X[:, schema.names.index(name)]
        codes = col.astype(int) if schema.is_categorical[schema.names.index(name)] else _bin10(col)
        assert _plugin_mi(covid.y, codes) < mi_lever, name


def test_covid_is_learnable(covid):
    tr, te = train_test_split(covid, test_fraction=0.3, seed=0)
    model = train_forest(tr, ForestParams(n_trees=40, max_depth=8, seed=0))
    assert accuracy(model, te) >= 0.8


# -- treatment-outcome preset ------------------------------------------------


def test_lung_shape_and_schema():
    data = lung_preset(seed=0)
    assert data.X.shape == (2242, 28)
    unc = [f.name for f in data.schema.features if not f.controllable]
    assert unc == ["age", "sex", "ethnicity", "height"]
    _dataset_ok(data)
    assert set(np.unique(data.y)) == {0, 1}
    again = lung_preset(seed=0)
    assert np.array_equal(data.X, again.X) and np.array_equal(data.y, again.y)
    assert lung_schema().arity == 28


def test_lung_categorical_columns_are_skewed():
    data = lung_preset(seed=0)
    j = data.schema.names.index("regimen")
    counts = np.bincount(data.X[:, j].astype(int), minlength=9)
    assert counts[0] > counts[8] * 2  # low codes dominate, registry-style


# -- feature entries ---------------------------------------------------------

_PRESETS = {
    "covid": lambda request: request.getfixturevalue("covid"),
    "lung": lambda request: lung_preset(seed=0),
    "synth": lambda request: generate_synth(SynthSpec(3, 2, 200, seed=1)),
    "breast": lambda request: request.getfixturevalue("breast_data"),
}


@pytest.mark.parametrize("name", sorted(_PRESETS))
def test_schema_spec_and_model_share_one_feature_codec(name, request, tmp_path):
    data = _PRESETS[name](request)
    schema = data.schema
    assert FeatureSchema.from_dict(schema.to_dict()).features == schema.features
    assert ingestion_spec_for(data).columns == schema.features
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    train_forest(data, ForestParams(n_trees=2, max_depth=3, seed=0)).save(first)
    RandomForest.load(first).save(second)
    assert first.read_bytes() == second.read_bytes()


def test_breast_spec_round_trips_and_closes_every_vocabulary():
    spec = breast_ingestion_spec()
    assert IngestionSpec.from_dict(spec.to_dict()) == spec
    assert IngestionSpec.from_json(DATA_DIR / "breast_cancer.spec.json") == spec
    assert load_csv(DATA_DIR / "breast_cancer.csv", spec).schema.features == spec.columns


# -- splitting ---------------------------------------------------------------


def test_train_test_split_partitions_rows():
    data = generate_synth(SynthSpec(m_controllable=2, m_uncontrollable=1, n_rows=100, seed=1))
    tr, te = train_test_split(data, test_fraction=0.3, seed=5)
    assert tr.n_rows == 70 and te.n_rows == 30
    both = np.vstack([tr.X, te.X])
    assert both.shape[0] == 100
    # every original row appears exactly once across the two halves
    key = lambda X, y: sorted(map(tuple, np.column_stack([X, y])))
    assert key(both, np.concatenate([tr.y, te.y])) == key(data.X, data.y)
    tr2, te2 = train_test_split(data, test_fraction=0.3, seed=5)
    assert np.array_equal(tr.X, tr2.X) and np.array_equal(te.y, te2.y)


def test_train_test_split_validation():
    data = generate_synth(SynthSpec(m_controllable=2, m_uncontrollable=0, n_rows=10, seed=1))
    with pytest.raises(InvalidInputError):
        train_test_split(data, test_fraction=0.0)
    with pytest.raises(InvalidInputError):
        train_test_split(data, test_fraction=1.0)
    with pytest.raises(InvalidInputError):
        train_test_split(data, test_fraction=0.99)
