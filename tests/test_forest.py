"""Random-forest training, prediction, and serialization."""

import copy
import functools
import hashlib
import itertools
import json
import tracemalloc
import types

import numpy as np
import pytest

from cafa.bench import SynthSpec, covid_preset, generate_synth, lung_preset, train_test_split
from cafa.errors import InvalidInputError, ModelFormatError, TrainingError
from cafa.explain import Background, shapley_forest
from cafa.forest import ForestParams, RandomForest, accuracy, train_forest
from cafa.pipeline import CafaConfig, cafa_local
from cafa.schema import Dataset

from .conftest import BAD_TREES, forest_of, leaf, make_schema, random_rows, stump


def _stump_ref(x, feature, threshold, left, right, is_cat=False):
    go_left = (x[feature] == threshold) if is_cat else (x[feature] <= threshold)
    return left if go_left else right


def test_stump_oracle_continuous():
    left, right = np.array([0.9, 0.1]), np.array([0.2, 0.8])
    forest = forest_of(make_schema(["cont"] * 4), [stump(0, 0.5, left, right)])
    # brute force over all corners of the {0, 0.25, 1}^4 grid
    for corner in itertools.product([0.0, 0.25, 1.0], repeat=4):
        x = np.array(corner)
        want = _stump_ref(x, 0, 0.5, left, right)
        got = forest.predict_proba(x[None, :])[0]
        assert np.array_equal(got, want)


def test_stump_oracle_categorical():
    left, right = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    forest = forest_of(make_schema(["cont", 4]), [stump(1, 2.0, left, right, is_cat=True)])
    for code in range(4):
        x = np.array([0.0, float(code)])
        want = _stump_ref(x, 1, 2.0, left, right, is_cat=True)
        assert np.array_equal(forest.predict_proba(x[None, :])[0], want)


def _walk(tree, x):
    """Leaf reached by one row of a tree document, following the split rules
    node by node."""
    node = 0
    while tree["feature"][node] >= 0:
        v, thr = x[tree["feature"][node]], tree["threshold"][node]
        go_left = v == thr if tree["is_cat"][node] else v <= thr
        node = tree["left"][node] if go_left else tree["right"][node]
    return node


def _normalized(prob):
    """What a forest makes of its summed leaf probabilities: rows over their sums."""
    return prob / prob.sum(axis=1, keepdims=True)


def test_one_tree_forest_matches_row_by_row_walk():
    kinds = ("cont", 3, "cont", 5, 2, "cont")
    data = generate_synth(SynthSpec(6, 0, 300, seed=4, kinds=kinds))
    model = train_forest(data, ForestParams(n_trees=5, max_depth=6, seed=4))
    X = np.asfortranarray(data.X[:80])  # predict must not assume C order
    for tree in model.to_dict()["trees"]:
        want = _normalized(np.array(tree["leaf_prob"])[[_walk(tree, x) for x in X]])
        assert np.array_equal(forest_of(data.schema, [tree]).predict_proba(X), want)


def _apply_reference(tree, depth, X):
    """Leaf reached by every row of ``X``, one tree document of ``depth``
    walked on its own."""
    feature, is_cat, threshold, left, right = (
        np.array(tree[key]) for key in ("feature", "is_cat", "threshold", "left", "right"))
    rows = np.arange(X.shape[0])
    node = np.zeros(X.shape[0], dtype=np.intp)
    for _ in range(depth):
        vals = X[rows, np.maximum(feature[node], 0)]
        thr = threshold[node]
        go_left = np.where(is_cat[node], vals == thr, vals <= thr)
        node = np.where(go_left, left[node], right[node])
    return node


def predict_reference(forest, X):
    """Tree by tree of the model document: each tree's leaf probabilities
    added in order, then divided by the tree count and normalized."""
    trees = forest.to_dict()["trees"]
    acc = np.zeros((X.shape[0], forest.n_classes))
    for tree, depth in zip(trees, forest.depths.tolist(), strict=True):
        acc += np.array(tree["leaf_prob"])[_apply_reference(tree, depth, X)]
    acc /= len(trees)
    return _normalized(acc)


def test_forest_probability_is_mean_of_trees():
    t1 = stump(0, 0.5, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    forest = forest_of(make_schema(["cont"]), [t1, leaf([0.25, 0.75])])
    got = forest.predict_proba(np.array([[0.2]]))[0]
    assert np.allclose(got, [(1.0 + 0.25) / 2, (0.0 + 0.75) / 2], atol=1e-15)


def test_train_on_separable_data():
    spec = SynthSpec(
        m_controllable=2, m_uncontrollable=0, n_rows=200, seed=1,
        kinds=("cont", "cont"), rule_features=(0,), rule_weights=(1.0,),
    )
    data = generate_synth(spec)
    model = train_forest(data, ForestParams(n_trees=30, seed=0))
    assert accuracy(model, data) >= 0.95


def test_training_errors():
    schema = make_schema(["cont", "cont"])
    rng = np.random.default_rng(0)
    X = rng.random((12, 2))
    y = np.zeros(12, dtype=int)
    y[0] = 1
    small = Dataset.from_normalized(schema, X[:9], y[:9])
    with pytest.raises(TrainingError, match="at least 10 rows"):
        train_forest(small)
    # single-class data already fails Dataset validation...
    with pytest.raises(InvalidInputError):
        Dataset.from_normalized(schema, X, np.zeros(12, dtype=int))
    # ...and the trainer rejects it independently for duck-typed inputs
    mono = types.SimpleNamespace(
        n_rows=12, X=X, y=np.zeros(12, dtype=np.int64), schema=schema,
        norm_params=tuple((0.0, 1.0) for _ in range(2)), label_values=None,
    )
    with pytest.raises(TrainingError, match="single class"):
        train_forest(mono)


@pytest.mark.parametrize("code", [3.0, -1.0, 1.5, np.nan])
def test_training_rejects_codes_outside_the_vocabulary(code):
    data = generate_synth(SynthSpec(2, 0, 40, seed=1, kinds=("cont", 3)))
    X = data.X.copy()
    X[7, 1] = code
    with pytest.raises(InvalidInputError, match="within their vocabulary"):
        train_forest(Dataset.from_normalized(data.schema, X, data.y), ForestParams(n_trees=2))


def test_determinism_and_seed_sensitivity():
    data = generate_synth(SynthSpec(2, 1, 120, seed=3))
    a = train_forest(data, ForestParams(n_trees=10, seed=5))
    b = train_forest(data, ForestParams(n_trees=10, seed=5))
    c = train_forest(data, ForestParams(n_trees=10, seed=6))
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)
    assert json.dumps(a.to_dict(), sort_keys=True) != json.dumps(c.to_dict(), sort_keys=True)


def test_row_order_independence():
    data = generate_synth(SynthSpec(2, 1, 100, seed=4))
    perm = np.random.default_rng(9).permutation(data.n_rows)
    shuffled = Dataset.from_normalized(data.schema, data.X[perm], data.y[perm])
    a = train_forest(data, ForestParams(n_trees=8, seed=2))
    b = train_forest(shuffled, ForestParams(n_trees=8, seed=2))
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)


def test_probabilities_form_a_simplex():
    data = generate_synth(SynthSpec(3, 1, 150, seed=6))
    model = train_forest(data, ForestParams(n_trees=15, seed=1))
    probs = model.predict_proba(data.X)
    assert np.all(probs >= 0.0)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)


def test_pure_leaf_region_probability_one():
    spec = SynthSpec(
        m_controllable=2, m_uncontrollable=0, n_rows=400, seed=8,
        kinds=("cont", "cont"), rule_features=(0,), rule_weights=(1.0,),
    )
    data = generate_synth(spec)
    model = train_forest(data, ForestParams(n_trees=20, max_depth=6, seed=0))
    # deep inside the negative region every tree votes the same way
    probs = model.predict_proba(np.array([[0.01, 0.5]]))[0]
    assert probs[0] == 1.0


def test_save_load_round_trip(tmp_path):
    data = generate_synth(SynthSpec(2, 1, 120, seed=7))
    model = train_forest(data, ForestParams(n_trees=6, seed=3))
    p = tmp_path / "model.json"
    model.save(p)
    again = RandomForest.load(p)
    assert np.array_equal(model.predict_proba(data.X), again.predict_proba(data.X))
    assert again.params == model.params
    assert again.schema == model.schema
    assert again.norm_params == model.norm_params


def test_load_rejects_malformed_documents(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("not json at all")
    with pytest.raises(ModelFormatError):
        RandomForest.load(p)
    p.write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(ModelFormatError):
        RandomForest.load(p)
    p.write_text(json.dumps({"format": "cafa-forest", "trees": []}))
    with pytest.raises(ModelFormatError):
        RandomForest.load(p)
    with pytest.raises(ModelFormatError):
        RandomForest.load(tmp_path / "missing.json")


@pytest.mark.parametrize("flag", ["false", 0, 1, None])
def test_load_rejects_a_controllable_flag_that_is_not_boolean(flag):
    data = generate_synth(SynthSpec(2, 1, 60, seed=7))
    doc = json.loads(json.dumps(train_forest(data, ForestParams(n_trees=2, seed=0)).to_dict()))
    assert [f["controllable"] for f in doc["schema"]["features"]] == [False, True, True]
    doc["schema"]["features"][0]["controllable"] = flag
    with pytest.raises(ModelFormatError, match="'controllable' must be true or false"):
        RandomForest.from_dict(doc)


_STUMP = {
    "feature": [0, -1, -1], "is_cat": [0, 0, 0], "threshold": [0.5, 0.0, 0.0],
    "left": [1, 1, 2], "right": [2, 1, 2], "leaf_prob": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
}
# 0 -> (1, 2), 2 -> (3, 4); five nodes numbered depth first
_FIVE = {
    "feature": [0, -1, 1, -1, -1], "is_cat": [0] * 5, "threshold": [0.5] * 5,
    "left": [1, 1, 3, 3, 4], "right": [2, 1, 4, 3, 4], "leaf_prob": [[0.5, 0.5]] * 5,
}


def _trained_doc() -> dict:
    """JSON model document of a 2-tree forest over a 3-feature, 2-class schema."""
    data = generate_synth(SynthSpec(2, 1, 60, seed=7))
    return json.loads(json.dumps(train_forest(data, ForestParams(n_trees=2, seed=0)).to_dict()))


@pytest.mark.parametrize("edit", [
    pytest.param({"trees": [{**_STUMP, "left": [3, 1, 2]}]}, id="child-out-of-range"),
    pytest.param({"trees": [{**_STUMP, "right": [2, 1, -1]}]}, id="leaf-child-out-of-range"),
    pytest.param({"trees": [{**_FIVE, "left": [1, 1, 1, 3, 4]}]}, id="child-before-parent"),
    pytest.param({"trees": [{**_STUMP, "right": [1, 1, 2]}]}, id="two-parents"),
    pytest.param({"trees": [{**_STUMP, "left": [1, 2, 2]}]}, id="leaf-not-self"),
    pytest.param({"trees": [{**_STUMP, "left": [1, 1], "right": [2, 1]}]}, id="short-arrays"),
    pytest.param({"trees": [{**_STUMP, "feature": [3, -1, -1]}]}, id="feature-past-schema"),
    pytest.param({"trees": [{**_STUMP, "feature": [0, -2, -1]}]}, id="feature-below-leaf"),
    pytest.param({"trees": [{**_STUMP, "feature": [2 ** 40, -1, -1]}]}, id="feature-huge"),
    pytest.param({"trees": [{**_STUMP, "leaf_prob": [[0.0, 0.0, 1.0]] * 3}]}, id="wide-rows"),
    pytest.param({"trees": [{**_STUMP, "leaf_prob": [0.5, 0.5, 0.5]}]}, id="flat-leaf-prob"),
    pytest.param({"n_classes": 1}, id="one-class"),
    pytest.param({"trees": []}, id="no-trees"),
    pytest.param({"trees": [{**_STUMP, "leaf_prob": [[0.0, 0.0], [np.nan, np.nan], [0.0, 1.0]]}]},
                 id="nan-leaf"),
    pytest.param({"trees": [{**_STUMP, "leaf_prob": [[0.0, 0.0], [1.0, 0.0], [np.inf, 1.0]]}]},
                 id="infinite-leaf"),
    pytest.param({"trees": [{**_STUMP, "leaf_prob": [[0.0, 0.0], [1.5, -0.5], [0.0, 1.0]]}]},
                 id="negative-leaf"),
    pytest.param({"trees": [{**_STUMP, "leaf_prob": [[np.nan, 0.0], [1.0, 0.0], [0.0, 1.0]]}]},
                 id="nan-inner-node"),
    pytest.param({"trees": [{**_STUMP, "leaf_prob": [[0.0, 0.0], [0.5, 0.4], [0.0, 1.0]]}]},
                 id="leaf-sums-below-1"),
    pytest.param({"trees": [{**_STUMP, "leaf_prob": [[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]]}]},
                 id="leaf-sums-above-1"),
    # one entry per node, each of its JSON type
    pytest.param({"trees": [{**_STUMP, "threshold": [0.5]}]}, id="one-threshold"),
    pytest.param({"trees": [{**_STUMP, "is_cat": [0]}]}, id="one-is-cat"),
    pytest.param({"trees": [{**_STUMP, "feature": [1.7, -1, -1]}]}, id="fractional-feature"),
    pytest.param({"trees": [{**_STUMP, "feature": [True, -1, -1]}]}, id="boolean-feature"),
    pytest.param({"trees": [{**_STUMP, "left": [1.0, 1, 2]}]}, id="float-left"),
    pytest.param({"trees": [{**_STUMP, "right": [2, 1, "2"]}]}, id="string-right"),
    pytest.param({"trees": [{**_STUMP, "feature": [2 ** 70, -1, -1]}]}, id="feature-past-int64"),
    pytest.param({"trees": [{**_STUMP, "is_cat": ["no", 0, 0]}]}, id="string-is-cat"),
    pytest.param({"trees": [{**_STUMP, "is_cat": [2, 0, 0]}]}, id="is-cat-2"),
    pytest.param({"trees": [{**_STUMP, "is_cat": [0.5, 0, 0]}]}, id="fractional-is-cat"),
    pytest.param({"trees": [{**_STUMP, "threshold": [np.nan, 0.0, 0.0]}]}, id="nan-threshold"),
    pytest.param({"trees": [{**_STUMP, "threshold": [0.5, np.inf, 0.0]}]},
                 id="infinite-threshold"),
    pytest.param({"trees": [{**_STUMP, "threshold": ["0.5", 0.0, 0.0]}]}, id="string-threshold"),
    pytest.param({"trees": [{**_STUMP, "threshold": [10 ** 400, 0.0, 0.0]}]},
                 id="threshold-past-float"),
    pytest.param({"trees": [{**_STUMP, "leaf_prob": [[0, 0], ["1", "0"], [0, 1]]}]},
                 id="string-leaf-prob"),
    pytest.param({"n_classes": 2.9}, id="fractional-n-classes"),
    pytest.param({"n_classes": "2"}, id="string-n-classes"),
    # the trained schema is (cont, cat, cont), as BAD_TREES needs
    *(pytest.param({"trees": [tree]}, id=name) for name, tree in BAD_TREES.items()),
])
def test_load_rejects_a_tree_that_is_not_a_builder_tree(edit):
    with pytest.raises(ModelFormatError):
        RandomForest.from_dict({**_trained_doc(), **edit})


def test_load_takes_json_booleans_and_integers_where_numbers_go():
    # both splits test feature 1, which is categorical
    tree = {**_FIVE, "feature": [1, -1, 1, -1, -1], "is_cat": [True, False, 1, 0, False],
            "threshold": [1, 0, 2.0, 0.0, 0],
            "leaf_prob": [[0, 0], [1, 0], [0, 0], [0.0, 1], [1, 0.0]]}
    loaded = RandomForest.from_dict({**_trained_doc(), "trees": [tree]})
    assert loaded.is_cat.tolist() == [True, False, True, False, False]
    assert loaded.nodes["threshold"].tolist() == [1.0, 0.0, 2.0, 0.0, 0.0]
    assert loaded.leaf_prob.tolist() == [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 1.0],
                                         [1.0, 0.0]]


def test_load_rejects_a_trained_model_with_nan_leaves():
    doc = _trained_doc()
    for tree in doc["trees"]:
        tree["leaf_prob"] = [[float("nan")] * 2 for _ in tree["leaf_prob"]]
    with pytest.raises(ModelFormatError, match="finite"):
        RandomForest.from_dict(json.loads(json.dumps(doc)))


def test_load_takes_leaf_rows_that_sum_to_1_within_the_tolerance():
    third = 1.0 / 3.0
    leaves = [[0.0, 0.0], [third, 2.0 * third + 5e-7], [0.0, 1.0]]
    doc = {**_trained_doc(), "trees": [{**_STUMP, "leaf_prob": leaves}]}
    assert RandomForest.from_dict(doc).leaf_prob.tolist() == leaves


@pytest.mark.parametrize("norm_params", [
    pytest.param([[0.0, 1.0], None], id="short"),
    pytest.param([[0.0, 1.0], None, [0.0, 1.0], None], id="long"),
    pytest.param([[0.0, 1.0], None, [1.0, 1.0]], id="degenerate"),
    pytest.param([[0.0, 1.0], None, [2.0, 1.0]], id="reversed"),
    pytest.param([[0.0, 1.0], None, [0.0]], id="one-bound"),
    pytest.param([[0.0, 1.0], None, None], id="continuous-without-range"),
    pytest.param([[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]], id="categorical-with-range"),
    pytest.param([[0.0, 1.0], None, ["a", "b"]], id="string-bounds"),
    pytest.param([[0.0, 1.0], None, [False, True]], id="boolean-bounds"),
    pytest.param([[0.0, 1.0], None, [0.0, np.inf]], id="infinite-bound"),
])
def test_load_rejects_norm_params_that_do_not_fit_the_schema(norm_params):
    # the trained schema is (cont, cat, cont); Dataset rejects the same lists
    doc = {**_trained_doc(), "norm_params": norm_params}
    with pytest.raises(ModelFormatError, match="norm"):
        RandomForest.from_dict(doc)


def test_load_rejects_a_root_that_is_its_own_child():
    # walking this tree never reaches a leaf, so it must fail before any walk
    doc = {**_trained_doc(), "trees": [{**_STUMP, "left": [0, 1, 2]}]}
    with pytest.raises(ModelFormatError, match="numbered depth first"):
        RandomForest.from_dict(doc)


def test_hand_built_trees_load():
    schema = make_schema(["cont", "cont"])
    for tree in (_STUMP, _FIVE):
        assert forest_of(schema, [tree]).to_dict()["trees"] == [tree]


def test_accuracy_matches_manual_mean():
    data = generate_synth(SynthSpec(2, 1, 90, seed=10))
    model = train_forest(data, ForestParams(n_trees=5, seed=0))
    manual = float(np.mean(model.predict_classes(data.X) == data.y))
    assert accuracy(model, data) == manual


def test_params_validation():
    with pytest.raises(InvalidInputError):
        ForestParams(n_trees=0)
    with pytest.raises(InvalidInputError):
        ForestParams(max_depth=0)
    for mtry in (0, -3):
        with pytest.raises(InvalidInputError):
            ForestParams(features_per_split=mtry)
    with pytest.raises(InvalidInputError, match="seed"):
        ForestParams(seed=-1)
    assert ForestParams().resolve_mtry(9) == 3
    assert ForestParams(features_per_split=99).resolve_mtry(4) == 4


# -- bit identity of seeded forests -----------------------------------------


def _synth():
    return generate_synth(SynthSpec(4, 2, 400, seed=11))


def _three_class():
    d = _synth()
    return Dataset.from_normalized(d.schema, d.X, np.where(d.X[:, 0] > 0.7, 2, d.y))


def _constant_columns():
    # Two columns constant over every bootstrap, as uncontrollable features
    # are in a surrogate's neighborhood.
    d = _synth()
    X = d.X.copy()
    X[:, 0] = 0.5
    X[:, 1] = 2.0
    return Dataset.from_normalized(d.schema, X, d.y)


# sha256 of json.dumps(forest.to_dict(), sort_keys=True), computed with the
# per-candidate split search that the vectorized one replaced.
PINNED_FORESTS = {
    "covid": (lambda _: covid_preset(seed=0), ForestParams(n_trees=3, seed=1),
              "673b05d7c5ba11249b28fce384454808dd076d9dbdccad71396e0d9436d6b397"),
    "lung": (lambda _: lung_preset(seed=0), ForestParams(n_trees=4, seed=2),
             "594cf44a1ef0446cbc5ffbac8ee28a9c354d8e3c3d8f1c384b65e3c43b6857f7"),
    "breast": (lambda breast: breast, ForestParams(n_trees=4, seed=3),
               "e0651e4cf4af163c332d54ddc98bac00aca1234fbae4e4dc4efbc9c6a7822c77"),
    "three_class": (lambda _: _three_class(), ForestParams(n_trees=5, seed=4),
                    "02d3531c2a7ebac58e43c20a5157c6d34b4040d923d76ce50ddfcc287e2463ff"),
    "deep": (lambda _: _synth(), ForestParams(n_trees=3, min_leaf=1, max_depth=12, seed=5),
             "117f57aa9784306ef3857d202d4f8b7c6efd8c6d8bce13f272163c78d73381d9"),
    "all_features": (lambda _: _synth(), ForestParams(n_trees=4, features_per_split=6, seed=6),
                     "2a1c3294d97640f64542ea6c3ee4612cda892791e68af794f3cede09c21077c5"),
    "constant_columns": (lambda _: _constant_columns(), ForestParams(n_trees=5, seed=7),
                         "a9535eea66dc2f34e82f5302d8046e197966cbd9bf7ec4629180cfa6fe1f8b06"),
}


@pytest.mark.parametrize("case", sorted(PINNED_FORESTS))
def test_seeded_forest_is_bit_identical(case, breast_data):
    make, params, want = PINNED_FORESTS[case]
    model = train_forest(make(breast_data), params)
    doc = json.dumps(model.to_dict(), sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == want


def _records_of(right, threshold, value, n_classes=2):
    return np.dtype([("feature", "i1"), ("right", right), ("threshold", threshold),
                     ("value", value, (n_classes,))])


# The node table of each PINNED_FORESTS case; its to_dict hash cannot see
# records that got wider. Trees of more than 128 nodes take int16 right
# children.
PINNED_RECORDS = {
    "covid": _records_of("<i2", "<f8", "<u2"),
    "lung": _records_of("<i2", "<f8", "<u2"),
    "breast": _records_of("i1", "u1", "u1"),
    "three_class": _records_of("i1", "<f8", "u1", n_classes=3),
    "deep": _records_of("i1", "<f8", "u1"),
    "all_features": _records_of("i1", "<f8", "u1"),
    "constant_columns": _records_of("i1", "<f8", "u1"),
}


def _walked_depth(tree) -> int:
    """The number of tests on the longest path of a tree document, found by
    walking every path."""
    depth, stack = 0, [(0, 0)]
    while stack:
        node, d = stack.pop()
        depth = max(depth, d)
        if tree["feature"][node] >= 0:
            stack += [(tree["left"][node], d + 1), (tree["right"][node], d + 1)]
    return depth


@pytest.mark.parametrize("case", sorted(PINNED_FORESTS))
def test_seeded_forest_records_depths_and_round_trip(case, breast_data):
    make, params, _ = PINNED_FORESTS[case]
    data = make(breast_data)
    model = train_forest(data, params)
    assert model.nodes.dtype == PINNED_RECORDS[case]
    assert model.depths.tolist() == [_walked_depth(t) for t in model.to_dict()["trees"]]
    again = RandomForest.from_dict(json.loads(json.dumps(model.to_dict())))
    assert again.depths.tolist() == model.depths.tolist()
    assert again.starts.tolist() == model.starts.tolist()
    assert again.predict_proba(data.X).tobytes() == model.predict_proba(data.X).tobytes()


# -- packed node records -----------------------------------------------------


def _wide_tree(leaf_prob) -> dict:
    """A depth-2 tree whose root splits on feature 2**15, one past int16."""
    return {"feature": [2**15, -1, 1, -1, -1], "is_cat": [False, False, True, False, False],
            "threshold": [0.5, 0.0, 2.0, 0.0, 0.0], "left": [1, 1, 3, 3, 4],
            "right": [2, 1, 4, 3, 4], "leaf_prob": leaf_prob}


def _wide_schema():
    return make_schema(["cont", 3] + ["cont"] * (2**15 - 1))


def test_wide_feature_index_takes_int32_records():
    wide = 2**15
    schema = _wide_schema()
    tree = _wide_tree([[0, 0, 0], [1.0, 0, 0], [0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])
    forest = forest_of(schema, [tree], 3)
    assert forest.nodes.dtype["feature"] == np.int32
    assert forest.nodes.dtype["right"] == np.int8
    assert forest.depths.tolist() == [2]
    X = random_rows(make_schema(["cont", 3]), np.random.default_rng(0), 12)
    X = np.hstack([X, np.zeros((12, wide - 1))])
    X[:, wide] = np.linspace(0.0, 1.0, 12)
    want = [1 if x[wide] <= 0.5 else (3 if x[1] == 2.0 else 4) for x in X]
    assert np.array_equal(forest.predict_proba(X), _normalized(forest.leaf_prob[want]))
    written = forest.to_dict()["trees"]
    assert written == [tree]
    again = forest_of(schema, json.loads(json.dumps(written)), 3)
    assert again.to_dict()["trees"] == written
    assert again.nodes.dtype["feature"] == np.int32
    assert np.array_equal(again.predict_proba(X), forest.predict_proba(X))


def _wide_tree_case():
    """The int32-index tree above, and rows that reach each of its leaves."""
    wide = 2**15
    tree = _wide_tree([[0, 0, 0], [0.5, 0.5, 0], [0, 0, 0], [0, 0.25, 0.75], [0, 0, 1.0]])
    X = np.zeros((12, wide + 1))
    X[:, 1] = np.arange(12) % 3
    X[:, wide] = np.linspace(0.0, 1.0, 12)
    return forest_of(_wide_schema(), [tree], 3), X


def _mixed_depth_case():
    """Trained trees with a single leaf, a stump and a depth-5 chain added."""
    data = generate_synth(SynthSpec(3, 1, 150, seed=6))
    shallow, deep = (train_forest(data, ForestParams(n_trees=3, max_depth=d, seed=1))
                     .to_dict()["trees"] for d in (2, 4))
    chain = {"feature": [0, -1, 2, -1, 0, -1, 2, -1, 0, -1, -1], "is_cat": [False] * 11,
             "threshold": [0.8, 0, 0.3, 0, 0.6, 0, 0.1, 0, 0.4, 0, 0],
             "left": [1, 1, 3, 3, 5, 5, 7, 7, 9, 9, 10],
             "right": [2, 1, 4, 3, 6, 5, 8, 7, 10, 9, 10],
             "leaf_prob": [[0.5, 0.5], [0.9, 0.1], [0.5, 0.5], [0.3, 0.7], [0.5, 0.5],
                           [0.6, 0.4], [0.5, 0.5], [0.2, 0.8], [0.5, 0.5], [1.0, 0.0],
                           [0.0, 1.0]]}
    trees = [*deep, leaf([0.4, 0.6]),
             stump(1, 1.0, np.array([0.7, 0.3]), np.array([0.1, 0.9]), is_cat=True),
             *shallow, chain]
    forest = forest_of(data.schema, trees)
    assert sorted(set(forest.depths.tolist())) == [0, 1, 2, 4, 5]
    return forest, data.X


def _trained_case(make, params):
    data = make()
    return train_forest(data, params), data.X


PREDICT_CASES = {
    "mixed_depth": _mixed_depth_case,
    "three_class": lambda: _trained_case(_three_class, ForestParams(n_trees=7, seed=4)),
    "int32_index": _wide_tree_case,
    "one_tree": lambda: _trained_case(_synth, ForestParams(n_trees=1, seed=2)),
    "deep": lambda: _trained_case(_synth, ForestParams(n_trees=4, min_leaf=1, max_depth=12,
                                                       seed=5)),
}


@pytest.mark.parametrize("chunk_rows", [None, 7])
@pytest.mark.parametrize("case", sorted(PREDICT_CASES))
def test_predict_proba_matches_per_tree_reference(case, chunk_rows, monkeypatch):
    forest, X = PREDICT_CASES[case]()
    if chunk_rows:
        # the batch spans several chunks and ends in a short one
        monkeypatch.setattr("cafa.forest._WALK_BYTES", 8 * (forest.starts.size - 1) * chunk_rows)
        assert X.shape[0] > chunk_rows and X.shape[0] % chunk_rows
    assert forest.predict_proba(X).tobytes() == predict_reference(forest, X).tobytes()


def test_forest_keeps_one_node_table_and_trees_are_views_of_it():
    forest, _ = _mixed_depth_case()
    assert not forest.nodes.flags.writeable
    # the hand-built trees hold probabilities, so every row is one
    assert forest.nodes.dtype["value"].base == np.float64
    again = RandomForest.from_dict(forest.to_dict())
    assert again.to_dict()["trees"] == forest.to_dict()["trees"]
    for tree, depth in zip(forest.trees, forest.depths.tolist(), strict=True):
        assert tree.feature.base is forest.nodes
        assert tree.depth == depth
    trained = train_forest(_synth(), ForestParams(n_trees=3, seed=1))
    assert trained.nodes.dtype["value"].base == np.uint8  # no class reaches 256 rows
    assert trained.nodes.dtype["feature"] == trained.nodes.dtype["right"] == np.int8


def test_trained_forest_holds_little_beyond_its_node_table():
    # what an explanation that keeps its surrogate keeps: the bytes freed
    # when the forest goes
    tracemalloc.start()
    try:
        forest = train_forest(_synth(), ForestParams(n_trees=100, seed=0))
        packed = forest.nodes.nbytes
        with_forest = tracemalloc.get_traced_memory()[0]
        del forest
        held = with_forest - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert packed < held <= 1.05 * packed


def test_small_tree_takes_int8_records():
    forest = forest_of(make_schema(["cont"] * 4),
                       [stump(3, 0.5, np.array([1.0, 0.0]), np.array([0.0, 1.0]))])
    assert forest.nodes.dtype["feature"] == forest.nodes.dtype["right"] == np.int8
    assert forest.to_dict()["trees"] == [{
        "feature": [3, -1, -1], "is_cat": [0, 0, 0], "threshold": [0.5, 0.0, 0.0],
        "left": [1, 1, 2], "right": [2, 1, 2],
        "leaf_prob": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
    }]


def test_trained_trees_store_counts_and_reload_as_probabilities():
    data = generate_synth(SynthSpec(3, 1, 150, seed=6))
    model = train_forest(data, ForestParams(n_trees=4, seed=1))
    # 150 bootstrap rows: counts fit in a byte, against 8 for a probability
    assert model.nodes.dtype["value"].base == np.uint8
    again = RandomForest.from_dict(json.loads(json.dumps(model.to_dict())))
    assert again.nodes.dtype["value"].base == np.float64
    prob = model.leaf_prob
    assert np.allclose(prob.sum(axis=1), 1.0, atol=1e-15)
    assert again.to_dict()["trees"] == model.to_dict()["trees"]
    assert again.leaf_prob.tobytes() == prob.tobytes()
    assert again.predict_proba(data.X).tobytes() == model.predict_proba(data.X).tobytes()


@pytest.mark.parametrize("trained", [False, True])
def test_tree_fields_are_read_only(trained):
    if trained:
        data = generate_synth(SynthSpec(2, 1, 60, seed=3))
        forest = train_forest(data, ForestParams(n_trees=1, seed=0))
    else:
        forest = forest_of(make_schema(["cont"]),
                           [stump(0, 0.5, np.array([1.0, 0.0]), np.array([0.0, 1.0]))])
    tree = forest.trees[0]
    for name in ("feature", "depth"):
        with pytest.raises(AttributeError):
            setattr(tree, name, getattr(tree, name))
    with pytest.raises(ValueError, match="read-only"):
        tree.feature[0] = 1
    with pytest.raises(AttributeError):
        tree.extra = 1
    # the table columns the trees' kinds of test, children and leaves come from
    for column in (forest.is_cat, forest.nodes["threshold"], forest.nodes["right"],
                   forest.leaf_prob, forest.starts, forest.depths):
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 1


# -- threshold width ---------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _covid_local_surrogate():
    """The benchmark's covid-local explanation of training day 25, against a
    10-tree model: its surrogate and neighborhood rows."""
    train, _ = train_test_split(covid_preset(seed=0), 0.3, seed=0)
    model = train_forest(train, ForestParams(n_trees=10, seed=0))
    cfg = CafaConfig(k=100, pi="estimate", n_perms=6, background_size=60, seed=3)
    res = cafa_local(train.X[25], model, train.schema, cfg, data=train)
    return res.surrogate, res.neighborhood.data.X


def _categorical_forest():
    data = generate_synth(SynthSpec(4, 1, 300, seed=2, kinds=(3, 5, 2, 4, 6)))
    return train_forest(data, ForestParams(n_trees=6, seed=1)), data.X


def test_categorical_splits_store_one_byte_thresholds():
    forest, _ = _categorical_forest()
    assert forest.nodes.dtype["threshold"] == np.uint8
    surrogate, _ = _covid_local_surrogate()
    assert surrogate.nodes.dtype["threshold"] == np.uint8
    # int8 feature and right child; the threshold; two uint8 counts
    assert surrogate.nodes.dtype.itemsize == 5


def test_covid_quickstart_result_holds_five_byte_nodes():
    # what the benchmark keeps of each covid-local round: one cafa_local
    # result, surrogate included. With 10-byte nodes (int16 feature, left
    # and right, an is_cat flag) it held 110.6 KiB; with 5-byte ones, 89.8.
    train, _ = train_test_split(covid_preset(seed=0), 0.3, seed=0)
    model = train_forest(train, ForestParams(n_trees=100, max_depth=8, seed=0))
    cfg = CafaConfig(k=100, pi="estimate", background_size=60, seed=3)
    tracemalloc.start()
    try:
        res = cafa_local(train.X[25], model, train.schema, cfg, data=train)
        with_result = tracemalloc.get_traced_memory()[0]
        itemsize = res.surrogate.nodes.dtype.itemsize
        del res
        held = with_result - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert itemsize == 5
    assert held < 100 * 1024


@pytest.mark.parametrize("threshold, is_cat, want", [
    (0.5, False, np.float64),   # a continuous midpoint
    (2.0, True, np.uint8),
    (-0.0, True, np.float64),   # a uint8 0 reads back as +0.0
    (2.5, True, np.float64),
    (255.0, True, np.uint8),
    (256.0, True, np.uint16),   # a code above 255
    (65535.0, True, np.uint16),
    (65536.0, True, np.float64),
    (-1.0, True, np.float64),
])
def test_threshold_takes_the_narrowest_type_that_keeps_its_bits(threshold, is_cat, want):
    doc = stump(0, threshold, np.array([1.0, 0.0]), np.array([0.0, 1.0]), is_cat=is_cat)
    forest = forest_of(make_schema([2] if is_cat else ["cont"]), [doc])
    assert forest.nodes.dtype["threshold"] == want
    written = forest.to_dict()["trees"][0]["threshold"][0]
    assert written == threshold
    assert np.signbit(written) == np.signbit(threshold)


def test_one_wide_threshold_widens_the_whole_table():
    half = stump(1, 2.0, np.array([1.0, 0.0]), np.array([0.0, 1.0]), is_cat=True)
    # a leaf's threshold is part of the table too
    half_leaf = leaf([0.25, 0.75], threshold=0.5)
    wide = stump(1, 300.0, np.array([1.0, 0.0]), np.array([0.0, 1.0]), is_cat=True)
    schema = make_schema(["cont", 400])
    for trees, want in (([half, half], np.uint8), ([half, wide], np.uint16),
                        ([half, half_leaf], np.float64), ([wide, half_leaf], np.float64)):
        forest = forest_of(schema, trees)
        assert forest.nodes.dtype["threshold"] == want
        assert forest.to_dict()["trees"] == trees
    continuous = train_forest(_synth(), ForestParams(n_trees=2, seed=0))
    assert continuous.nodes.dtype["threshold"] == np.float64


def test_to_dict_writes_float_thresholds():
    forest, _ = _categorical_forest()
    for tree in forest.to_dict()["trees"]:
        assert all(type(t) is float for t in tree["threshold"])
    doc = stump(0, 2.0, np.array([1.0, 0.0]), np.array([0.0, 1.0]), is_cat=True)
    text = json.dumps(forest_of(make_schema([3]), [doc]).to_dict()["trees"][0])
    assert '"threshold": [2.0, 0.0, 0.0]' in text


def _with_float64_thresholds(forest):
    """The same forest with its node table re-packed with float64 thresholds."""
    wide = copy.copy(forest)
    dtype = np.dtype([(name, np.float64 if name == "threshold" else forest.nodes.dtype[name])
                      for name in forest.nodes.dtype.names])
    wide.nodes = forest.nodes.astype(dtype)
    assert wide.nodes.dtype["threshold"] == np.float64 and wide.nodes.dtype != forest.nodes.dtype
    assert np.array_equal(wide.nodes["threshold"], forest.nodes["threshold"])
    return wide


@pytest.mark.parametrize("case", ["categorical", "covid_local", "wide_code"])
def test_narrow_thresholds_predict_and_explain_as_float64_ones(case):
    if case == "categorical":
        forest, X = _categorical_forest()
    elif case == "covid_local":
        forest, X = _covid_local_surrogate()
    else:
        forest = forest_of(make_schema([3, 400]), [
            stump(1, 300.0, np.array([0.9, 0.1]), np.array([0.2, 0.8]), is_cat=True),
            stump(0, 1.0, np.array([0.6, 0.4]), np.array([0.3, 0.7]), is_cat=True)])
        X = np.column_stack([np.arange(40) % 3, np.arange(40) * 10 % 400]).astype(np.float64)
        assert forest.nodes.dtype["threshold"] == np.uint16
    wide = _with_float64_thresholds(forest)
    assert forest.predict_proba(X).tobytes() == wide.predict_proba(X).tobytes()
    bg = Background(X[::3])
    phi, phi0 = shapley_forest(forest, X[:50], bg)
    phi_wide, phi0_wide = shapley_forest(wide, X[:50], bg)
    assert phi.tobytes() == phi_wide.tobytes() and phi0 == phi0_wide
