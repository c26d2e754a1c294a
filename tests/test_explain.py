"""Shapley engines and the weighted-linear baseline."""

import json
import math
from itertools import combinations

import numpy as np
import pytest

from cafa.bench import SynthSpec, covid_preset, generate_synth, train_test_split
from cafa.errors import FitError, InvalidInputError, SizeLimitError
from cafa.explain import (
    Background,
    derive_seed,
    lime_explain,
    shapley_exact,
    shapley_forest,
    shapley_mc,
)
from cafa.forest import ForestParams, RandomForest, train_forest

from .conftest import (ProbModel, coalition_value, forest_of, leaf, make_schema, peak_bytes,
                       preorder, random_rows, stump)


def shapley_brute(f, x, bg, m):
    """Direct subset enumeration with factorial weights; the oracle."""
    cache = {}

    def v(S):
        if S not in cache:
            Z = np.array(bg.rows, copy=True)
            for j in S:
                Z[:, j] = x[j]
            cache[S] = float(f.predict_proba(Z)[:, 1].mean())
        return cache[S]

    phi = np.zeros(m)
    for j in range(m):
        others = [i for i in range(m) if i != j]
        for r in range(m):
            w = math.factorial(r) * math.factorial(m - r - 1) / math.factorial(m)
            for S in combinations(others, r):
                phi[j] += w * (v(tuple(sorted(S + (j,)))) - v(S))
    return phi, v(())


def _forest_on_m_features(m, seed):
    spec = SynthSpec(m_controllable=m, m_uncontrollable=0, n_rows=250, seed=seed)
    data = generate_synth(spec)
    return train_forest(data, ForestParams(n_trees=15, max_depth=5, seed=seed)), data


# --- coalition values -------------------------------------------------------

def test_coalition_value_examples():
    add = ProbModel(lambda X: X[:, 0] + X[:, 1])
    bg = Background(np.zeros((1, 2)))
    x = np.array([0.4, 0.6])
    assert coalition_value(add, x, [0, 1], bg) == pytest.approx(1.0, abs=1e-15)
    assert coalition_value(add, x, [], bg) == 0.0
    assert coalition_value(add, x, [0], bg) == pytest.approx(0.4, abs=1e-15)
    rng = np.random.default_rng(0)
    rows = rng.random((7, 2))
    wide = Background(rows)
    assert coalition_value(add, x, [], wide) == pytest.approx(
        float((rows[:, 0] + rows[:, 1]).mean()), abs=1e-12
    )


# --- exact Shapley ----------------------------------------------------------

def test_linear_model_closed_form():
    add = ProbModel(lambda X: X[:, 0] + X[:, 1])
    bg = Background(np.zeros((1, 2)))
    attr = shapley_exact(add, np.array([0.4, 0.6]), bg)
    assert np.allclose(attr.phi, [0.4, 0.6], atol=1e-12)
    assert abs(attr.phi0) <= 1e-12
    assert attr.method == "exact-shap"


def test_exact_matches_brute_force():
    rng = np.random.default_rng(99)
    for m in (4, 6):
        model, data = _forest_on_m_features(m, seed=m)
        bg = Background(data.X[: 12])
        for _ in range(5):
            x = random_rows(data.schema, rng, 1)[0]
            attr = shapley_exact(model, x, bg)
            want_phi, want_phi0 = shapley_brute(model, x, bg, m)
            assert np.max(np.abs(attr.phi - want_phi)) <= 1e-9
            assert abs(attr.phi0 - want_phi0) <= 1e-9


def test_exact_dummy_features_bit_zero():
    # stump forest reads only feature 0; features 1..3 are dummies
    schema = make_schema(["cont"] * 4)
    model = forest_of(schema, [stump(0, t, np.array([0.8, 0.2]), np.array([0.1, 0.9]))
                               for t in (0.3, 0.5, 0.7)])
    rng = np.random.default_rng(1)
    bg = Background(rng.random((10, 4)))
    attr = shapley_exact(model, rng.random(4), bg)
    assert attr.phi[1] == 0.0 and attr.phi[2] == 0.0 and attr.phi[3] == 0.0


def test_exact_efficiency():
    rng = np.random.default_rng(17)
    model, data = _forest_on_m_features(5, seed=21)
    bg = Background(data.X[:15])
    for _ in range(20):
        x = random_rows(data.schema, rng, 1)[0]
        attr = shapley_exact(model, x, bg)
        fx = float(model.predict_proba(x[None, :])[0, 1])
        assert abs(attr.phi0 + attr.phi.sum() - fx) <= 1e-9


def test_exact_symmetry():
    # symmetric in features 0 and 1 by construction
    f = ProbModel(lambda X: 0.1 + 0.3 * (X[:, 0] + X[:, 1]) + 0.2 * X[:, 2] ** 2)
    rng = np.random.default_rng(3)
    rows = rng.random((9, 3))
    rows[:, 1] = rows[:, 0]  # identical background marginals
    bg = Background(rows)
    x = np.array([0.7, 0.7, 0.2])
    attr = shapley_exact(f, x, bg)
    assert abs(attr.phi[0] - attr.phi[1]) <= 1e-9


def test_exact_size_limit():
    f = ProbModel(lambda X: X[:, 0])
    bg = Background(np.zeros((1, 16)))
    with pytest.raises(SizeLimitError, match="shapley_mc"):
        shapley_exact(f, np.zeros(16), bg)


def test_constant_feature_zero():
    # a feature equal in x and every background row gets phi exactly 0;
    # this is the mechanism behind the pipeline's uncontrollable zeros
    f = ProbModel(lambda X: 0.2 * X[:, 0] + 0.5 * X[:, 1] + 0.1 * X[:, 2])
    rng = np.random.default_rng(8)
    rows = rng.random((12, 3))
    rows[:, 1] = 0.44
    bg = Background(rows)
    attr = shapley_exact(f, np.array([0.9, 0.44, 0.3]), bg)
    assert attr.phi[1] == 0.0


# --- Monte-Carlo Shapley ----------------------------------------------------

def test_mc_close_to_exact_at_2000_perms():
    model, data = _forest_on_m_features(6, seed=5)
    bg = Background(data.X[:10])
    x = data.X[42]
    exact = shapley_exact(model, x, bg)
    mc = shapley_mc(model, x, bg, n_perms=2000, seed=0)
    assert np.max(np.abs(mc.phi - exact.phi)) <= 0.02
    assert mc.method == "mc-shap"


def test_mc_dummy_feature_small_and_exactly_zero():
    schema = make_schema(["cont"] * 4)
    model = forest_of(schema, [stump(0, 0.5, np.array([0.9, 0.1]), np.array([0.2, 0.8]))])
    rng = np.random.default_rng(2)
    bg = Background(rng.random((8, 4)))
    mc = shapley_mc(model, rng.random(4), bg, n_perms=2000, seed=1)
    assert abs(mc.phi[2]) <= 0.02  # the documented tolerance...
    assert mc.phi[2] == 0.0  # ...and unread features are in fact bit-zero


def test_mc_determinism():
    model, data = _forest_on_m_features(5, seed=9)
    bg = Background(data.X[:10])
    x = data.X[0]
    a = shapley_mc(model, x, bg, n_perms=50, seed=7)
    b = shapley_mc(model, x, bg, n_perms=50, seed=7)
    c = shapley_mc(model, x, bg, n_perms=50, seed=8)
    assert np.array_equal(a.phi, b.phi) and a.phi0 == b.phi0
    assert not np.array_equal(a.phi, c.phi)


def test_mc_local_accuracy():
    model, data = _forest_on_m_features(5, seed=13)
    bg = Background(data.X[:10])
    for i in (3, 50, 111):
        x = data.X[i]
        mc = shapley_mc(model, x, bg, n_perms=25, seed=i)
        fx = float(model.predict_proba(x[None, :])[0, 1])
        # telescoping makes this hold per permutation, not just in the limit
        assert abs(mc.phi0 + mc.phi.sum() - fx) <= 1e-6


def test_mc_error_shrinks_with_more_permutations():
    model, data = _forest_on_m_features(5, seed=31)
    bg = Background(data.X[:8])
    x = data.X[7]
    exact = shapley_exact(model, x, bg)
    errs = [
        float(np.max(np.abs(shapley_mc(model, x, bg, n_perms=n, seed=4).phi - exact.phi)))
        for n in (100, 400, 1600)
    ]
    inversions = sum(errs[i + 1] > errs[i] for i in range(len(errs) - 1))
    assert inversions <= 1


def test_mc_validation():
    with pytest.raises(InvalidInputError):
        shapley_mc(ProbModel(lambda X: X[:, 0]), np.zeros(2), Background(np.zeros((1, 2))),
                   n_perms=0)


# --- dense references ------------------------------------------------------

def dense_exact(f, x, bg):
    """Exact Shapley scoring the full (2^m, B) coalition grid; the reference."""
    m, B = x.size, bg.size
    n_masks = 1 << m
    bits = ((np.arange(n_masks)[:, None] >> np.arange(m)) & 1).astype(bool)
    Z = np.where(bits[:, None, :], x[None, None, :], bg.rows[None, :, :])
    v = f.predict_proba(Z.reshape(-1, m))[:, 1].reshape(-1, B).mean(axis=1)
    sizes = bits.sum(axis=1)
    fact = [math.factorial(i) for i in range(m + 1)]
    weight = np.array([fact[s] * fact[m - 1 - s] / fact[m] for s in range(m)])
    phi = np.empty(m)
    all_masks = np.arange(n_masks)
    for j in range(m):
        without = all_masks[~bits[:, j]]
        phi[j] = np.dot(weight[sizes[without]], v[without | (1 << j)] - v[without])
    return phi, float(v[0])


def _mc_perms(m, n_perms, seed):
    rng = np.random.default_rng(seed)
    return rng.permuted(np.tile(np.arange(m), (n_perms, 1)), axis=1)


def dense_mc(f, x, bg, n_perms, seed):
    """Permutation Shapley scoring every (P, m+1, B) chain row; the reference."""
    m, B = x.size, bg.size
    perms = _mc_perms(m, n_perms, seed)
    Z = np.empty((n_perms, m + 1, B, m))
    Z[:, 0] = bg.rows
    pidx = np.arange(n_perms)
    for step in range(1, m + 1):
        Z[:, step] = Z[:, step - 1]
        col = perms[:, step - 1]
        Z[pidx, step, :, col] = x[col][:, None]
    v = f.predict_proba(Z.reshape(-1, m))[:, 1].reshape(n_perms, m + 1, B).mean(axis=2)
    phi = np.zeros(m)
    np.add.at(phi, perms.ravel(), (v[:, 1:] - v[:, :-1]).ravel())
    return phi / n_perms, float(v[0, 0])


def _mixed_case(m, n_bg, seed):
    """A mixed-type forest, a query, and a background that shares many of
    the query's values (whole columns, scattered cells, a duplicated row)."""
    kinds = tuple("cont" if j % 3 else 2 + j % 4 for j in range(m))
    data = generate_synth(SynthSpec(m_controllable=m, m_uncontrollable=0, n_rows=300,
                                    seed=seed, kinds=kinds))
    model = train_forest(data, ForestParams(n_trees=8, max_depth=6, seed=seed))
    rng = np.random.default_rng(seed)
    x = data.X[0].copy()
    rows = data.X[rng.choice(np.arange(1, data.n_rows), size=n_bg, replace=False)].copy()
    rows[:, ::3] = x[::3]  # pinned columns, as uncontrollables are in a neighborhood
    agree = rng.random(rows.shape) < 0.3
    rows[agree] = np.broadcast_to(x, rows.shape)[agree]
    if n_bg > 2:
        rows[2] = rows[1]
    return model, x, Background(rows)


@pytest.mark.parametrize("m, n_bg", [(3, 7), (3, 1), (9, 12), (9, 1), (70, 5)])
def test_mc_bit_equal_to_dense_reference(m, n_bg):
    model, x, bg = _mixed_case(m, n_bg, seed=m + n_bg)
    n_perms = 4 if m == 70 else 30
    got = shapley_mc(model, x, bg, n_perms=n_perms, seed=11)
    want_phi, want_phi0 = dense_mc(model, x, bg, n_perms, seed=11)
    assert np.array_equal(got.phi, want_phi)
    assert got.phi0 == want_phi0


@pytest.mark.parametrize("m, n_bg", [(3, 7), (3, 1), (9, 12), (9, 1)])
def test_exact_bit_equal_to_dense_reference(m, n_bg):
    model, x, bg = _mixed_case(m, n_bg, seed=m + n_bg)
    got = shapley_exact(model, x, bg)
    want_phi, want_phi0 = dense_exact(model, x, bg)
    assert np.array_equal(got.phi, want_phi)
    assert got.phi0 == want_phi0


def test_coalition_chunks_are_byte_bounded():
    # a chunk's coalition grid holds about _BATCH_BYTES (8 MiB) at any
    # feature count; a row cap let this 70-feature run peak at 147 MiB
    rng = np.random.default_rng(0)
    f = ProbModel(lambda X: 0.5 + 0.01 * X[:, :10].sum(axis=1))
    x = rng.random(70)
    bg = Background(rng.random((50, 70)))
    assert peak_bytes(shapley_mc, f, x, bg, 200) <= 16 * 2**20


def test_signed_zero_counts_as_a_different_value():
    # 0.0 == -0.0, but a model may still tell them apart, so a background
    # holding -0.0 where the query holds 0.0 must still be overwritten
    f = ProbModel(lambda X: 0.25 + 0.5 * np.signbit(X[:, 0]) + 0.1 * X[:, 1])
    x = np.array([0.0, 0.6])
    bg = Background(np.array([[-0.0, 0.2], [-0.0, 0.6], [0.0, 0.1]]))
    got = shapley_exact(f, x, bg)
    want_phi, want_phi0 = dense_exact(f, x, bg)
    assert np.array_equal(got.phi, want_phi) and got.phi0 == want_phi0
    got = shapley_mc(f, x, bg, n_perms=5, seed=2)
    want_phi, want_phi0 = dense_mc(f, x, bg, 5, seed=2)
    assert np.array_equal(got.phi, want_phi) and got.phi0 == want_phi0


# --- exact tree path --------------------------------------------------------

def _chain_tree(schema, rng, depth, features) -> dict:
    """Document of a tree with one path of ``depth`` tests on ``features`` (repeats
    allowed) and a leaf beside every test; the first test is categorical and
    the path takes its right branch. Nodes are numbered depth first."""
    feature, is_cat, threshold, left, right, prob = [], [], [], [], [], []

    def node(f=-1, cat=False, thr=0.0):
        feature.append(f)
        is_cat.append(cat)
        threshold.append(thr)
        left.append(len(left))
        right.append(len(right))
        p = rng.random()
        prob.append([1.0 - p, p])
        return len(feature) - 1

    cur = None
    for d in range(depth):
        f = int(features[d % len(features)])
        cat = bool(schema.is_categorical[f])
        thr = float(rng.integers(schema.vocab_sizes[f])) if cat else float(rng.random())
        here = node(f, cat, thr)
        if cur is not None:
            (left if went_left else right)[cur] = here
        went_left = d > 0 and bool(rng.random() < 0.5)
        (right if went_left else left)[here] = node()
        cur = here
    (left if went_left else right)[cur] = node()
    return preorder({"feature": feature, "is_cat": is_cat, "threshold": threshold,
                     "left": left, "right": right, "leaf_prob": prob})


def _tree_case(m, n_bg, seed):
    """``_mixed_case`` with two depth-10 chain trees added to its forest."""
    model, x, bg = _mixed_case(m, n_bg, seed)
    rng = np.random.default_rng(seed)
    cat = np.flatnonzero(model.schema.is_categorical)
    chains = [
        _chain_tree(model.schema, rng, 10, [cat[0], *rng.choice(m, size=3, replace=False)])
        for _ in range(2)
    ]
    forest = forest_of(model.schema, model.to_dict()["trees"] + chains)
    return forest, x, bg


def _paths(tree):
    """Root-to-leaf test lists ``(feature, is_cat, went_left)`` of a tree document."""
    out, stack = [], [(0, ())]
    while stack:
        node, tests = stack.pop()
        f = tree["feature"][node]
        if f < 0:
            out.append(tests)
            continue
        c = bool(tree["is_cat"][node])
        stack.append((tree["left"][node], tests + ((f, c, True),)))
        stack.append((tree["right"][node], tests + ((f, c, False),)))
    return out


@pytest.mark.parametrize("m, n_bg", [(3, 7), (3, 1), (6, 9), (9, 12), (9, 1), (10, 4)])
def test_tree_path_matches_exact_enumeration(m, n_bg):
    forest, x, bg = _tree_case(m, n_bg, seed=m + n_bg)
    paths = [p for t in forest.to_dict()["trees"] for p in _paths(t)]
    assert forest.depths.max() == 10
    assert any(len({f for f, _, _ in p}) < len(p) for p in paths)  # a repeated feature
    assert any(c and not left for p in paths for _, c, left in p)  # a categorical right branch
    # the query, a copy of a background row, and a row sharing half of each
    X = np.vstack([x, bg.rows[0], np.where(np.arange(m) % 2, x, bg.rows[-1])])
    phi, phi0 = shapley_forest(forest, X, bg)
    for i in range(X.shape[0]):
        want = shapley_exact(forest, X[i], bg)
        assert np.max(np.abs(phi[i] - want.phi)) <= 1e-12
        assert abs(phi0 - want.phi0) <= 1e-12


def test_tree_path_zeros_are_positive():
    forest, x, bg = _tree_case(9, 12, seed=5)
    pinned = np.arange(0, 9, 3)  # _mixed_case pins these columns in the background
    rng = np.random.default_rng(0)
    X = bg.rows[rng.permutation(bg.size)]
    X[::2, 1:] = x[1:]
    phi, _ = shapley_forest(forest, X, bg)
    assert np.all(phi[:, pinned] == 0.0) and not np.any(np.signbit(phi[:, pinned]))
    assert np.any(phi != 0.0)

    # features no tree splits on: a forest of chain trees on two columns
    chains = [_chain_tree(forest.schema, rng, 6, [1, 5]) for _ in range(3)]
    sparse = forest_of(forest.schema, chains)
    phi, _ = shapley_forest(sparse, X, bg)
    unsplit = [j for j in range(9) if j not in (1, 5)]
    assert np.all(phi[:, unsplit] == 0.0) and not np.any(np.signbit(phi[:, unsplit]))
    assert np.any(phi[:, [1, 5]] != 0.0)

    # a forest of single leaves splits on nothing at all
    phi, phi0 = shapley_forest(forest_of(forest.schema, [leaf([0.4, 0.6])]), X, bg)
    assert np.all(phi == 0.0) and not np.any(np.signbit(phi)) and abs(phi0 - 0.6) <= 1e-15


@pytest.mark.parametrize("m, n_bg", [(3, 1), (9, 12), (70, 5)])
def test_tree_path_efficiency_per_row(m, n_bg):
    forest, x, bg = _tree_case(m, n_bg, seed=m)
    X = np.vstack([x, bg.rows, bg.rows[::-1] * 0.5])
    phi, phi0 = shapley_forest(forest, X, bg)
    want = forest.predict_proba(X)[:, 1]
    assert np.max(np.abs(phi0 + phi.sum(axis=1) - want)) <= 1e-12


def test_tree_path_reloaded_forest_bit_identical():
    forest, x, bg = _tree_case(9, 12, seed=2)
    again = RandomForest.from_dict(json.loads(json.dumps(forest.to_dict())))
    X = np.vstack([x, bg.rows])
    phi, phi0 = shapley_forest(forest, X, bg)
    phi_again, phi0_again = shapley_forest(again, X, bg)
    assert np.array_equal(phi, phi_again) and phi0 == phi0_again


def test_tree_path_scores_no_coalition_row(monkeypatch):
    forest, x, bg = _tree_case(9, 12, seed=3)
    seen = []
    predict = RandomForest.predict_proba

    def counting(self, X):
        seen.append(np.array(X, copy=True))
        return predict(self, X)

    monkeypatch.setattr(RandomForest, "predict_proba", counting)
    shapley_forest(forest, np.vstack([x, bg.rows[:3]]), bg)
    # only the background rows themselves are scored, once, for phi0
    assert len(seen) == 1 and np.array_equal(seen[0], bg.rows)


def _exact_per_row(forest, X, bg):
    """``shapley_exact`` of every row of ``X``, enumerated once per distinct row."""
    distinct, inverse = np.unique(X, axis=0, return_inverse=True)
    want = np.array([shapley_exact(forest, row, bg).phi for row in distinct])
    return want[inverse.ravel()]


def _assert_exact(forest, X, bg, pinned=()):
    phi, phi0 = shapley_forest(forest, X, bg)
    assert np.max(np.abs(phi - _exact_per_row(forest, X, bg))) <= 1e-12
    assert abs(phi0 - forest.predict_proba(bg.rows)[:, 1].mean()) <= 1e-12
    assert np.all(phi[:, pinned] == 0.0) and not np.any(np.signbit(phi[:, pinned]))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_tree_path_duplicate_rows(seed):
    # many rows share a fail mask under every leaf, and many pairs share both
    forest, x, bg = _tree_case(9, 12, seed=seed)
    rng = np.random.default_rng(seed)
    pool = np.vstack([x, bg.rows[:4]])  # columns 0, 3 and 6 agree across the pool
    X = pool[rng.integers(0, pool.shape[0], size=40)]
    dup_bg = Background(pool[rng.integers(0, pool.shape[0], size=25)])
    _assert_exact(forest, X, dup_bg, pinned=[0, 3, 6])


@pytest.mark.parametrize("n, n_bg", [(1, 1), (1, 12)])
def test_tree_path_single_row_or_background(n, n_bg):
    forest, x, bg = _tree_case(9, 12, seed=n + n_bg)
    X = np.vstack([x, bg.rows[::-1]])[:n]
    _assert_exact(forest, X, Background(bg.rows[:n_bg]), pinned=[0, 3, 6])


def test_tree_path_no_rows():
    forest, x, bg = _tree_case(9, 12, seed=1)
    phi, phi0 = shapley_forest(forest, np.empty((0, 9)), bg)
    assert phi.shape == (0, 9) and phi0 == shapley_forest(forest, x, bg)[1]


def test_tree_path_row_values_do_not_depend_on_the_batch():
    forest, x, bg = _tree_case(9, 12, seed=4)
    X = np.vstack([x, bg.rows, bg.rows[:, ::-1] * 0.5])
    phi, _ = shapley_forest(forest, X, bg)
    rng = np.random.default_rng(4)
    perm = rng.permutation(X.shape[0])
    assert np.max(np.abs(shapley_forest(forest, X[perm], bg)[0] - phi[perm])) <= 1e-13
    for i in (0, 5, X.shape[0] - 1):
        alone, _ = shapley_forest(forest, X[i : i + 1], bg)
        assert np.max(np.abs(alone[0] - phi[i])) <= 1e-13


def test_tree_path_chunking_changes_nothing(monkeypatch):
    # a one-byte budget puts one leaf in a chunk and one row mask in a
    # batch of pairs
    forest, x, bg = _tree_case(9, 12, seed=6)
    X = np.vstack([x, bg.rows, np.where(np.arange(9) % 2, x, bg.rows[-1])])
    phi, phi0 = shapley_forest(forest, X, bg)
    monkeypatch.setattr("cafa.explain._TREE_CHUNK_BYTES", 1)
    small, small0 = shapley_forest(forest, X, bg)
    assert np.max(np.abs(small - phi)) <= 1e-13 and small0 == phi0
    assert np.array_equal(small == 0.0, phi == 0.0) and not np.any(np.signbit(small[small == 0.0]))


def _deep_forest():
    data = generate_synth(SynthSpec(m_controllable=8, m_uncontrollable=0, n_rows=2000, seed=1))
    return train_forest(data, ForestParams(n_trees=10, max_depth=14, min_leaf=1, seed=1)), data


def test_tree_path_depth_14_forest():
    forest, data = _deep_forest()
    assert forest.depths.max() == 14
    X, rows = data.X[:4].copy(), data.X[100:120].copy()
    X[:, 2] = rows[:, 2] = X[0, 2]
    _assert_exact(forest, X, Background(rows), pinned=[2])


def test_tree_path_slots_beyond_64():
    # masks span two 64-bit words: a chain of 64 tests every row passes,
    # then one test on each other feature, first tested past depth 64
    forest, x, bg = _tree_case(9, 12, seed=8)
    schema = forest.schema
    cont = int(np.flatnonzero(~schema.is_categorical)[0])
    feats = [cont] * 64 + [j for j in range(9) if j != cont]
    d = len(feats)
    # node k < d tests feats[k], goes on left to node k + 1 and has leaf
    # 2d - k on its right; node d is the leaf at the end of the chain
    thr = [2.0] * 64 + [float(x[j]) if schema.is_categorical[j] else 0.5 for j in feats[64:]]
    chain = {
        "feature": feats + [-1] * (d + 1),
        "is_cat": [bool(schema.is_categorical[j]) for j in feats] + [False] * (d + 1),
        "threshold": thr + [0.0] * (d + 1),
        "left": [*range(1, d + 1), *range(d, 2 * d + 1)],
        "right": [*range(2 * d, d, -1), *range(d, 2 * d + 1)],
        "leaf_prob": np.column_stack([1.0 - np.linspace(0.1, 0.9, 2 * d + 1),
                                      np.linspace(0.1, 0.9, 2 * d + 1)]).tolist(),
    }
    forest = forest_of(schema, [*forest.to_dict()["trees"], chain])
    assert forest.depths.max() == d == 72
    X = np.vstack([x, bg.rows[0], np.where(np.arange(9) % 2, x, bg.rows[-1])])
    _assert_exact(forest, X, bg, pinned=[0, 3, 6])


def test_tree_path_peak_memory():
    # the per-leaf pass matrices, fail masks and mask pairs are chunked to
    # about _TREE_CHUNK_BYTES each; the dense pair scorer this replaced
    # peaked at 1.34 MiB on the covid-shaped input
    bound = 1.35 * 2**20
    data = covid_preset(seed=0)
    _, nb = train_test_split(data, 200 / data.n_rows, seed=0)
    surrogate = train_forest(nb, ForestParams(n_trees=100, max_depth=8, seed=0))
    assert peak_bytes(shapley_forest, surrogate, nb.X, Background.from_dataset(nb, 60)) <= bound
    deep, data = _deep_forest()
    assert peak_bytes(shapley_forest, deep, data.X[:100], Background(data.X[100:150])) <= bound


# --- LIME-style baseline ----------------------------------------------------

def test_lime_constant_model_gives_zero_coefficients():
    schema = make_schema(["cont", "cont", 3])
    f = ProbModel(lambda X: np.full(X.shape[0], 0.7))
    attr = lime_explain(f, np.array([0.5, 0.5, 1.0]), schema, n_samples=500, seed=0)
    assert np.max(np.abs(attr.phi)) <= 1e-6
    assert attr.phi0 == pytest.approx(0.7, abs=1e-6)
    assert attr.method == "lime"


def test_lime_recovers_linear_coefficient():
    schema = make_schema(["cont"])
    f = ProbModel(lambda X: 3.0 * X[:, 0])
    attr = lime_explain(f, np.array([0.5]), schema, n_samples=1000, seed=0)
    assert abs(attr.phi[0] - 3.0) <= 0.1


def test_lime_determinism():
    schema = make_schema(["cont", 4])
    f = ProbModel(lambda X: 0.5 * X[:, 0] + 0.1 * (X[:, 1] == 2))
    x = np.array([0.3, 2.0])
    a = lime_explain(f, x, schema, n_samples=400, seed=5)
    b = lime_explain(f, x, schema, n_samples=400, seed=5)
    assert np.array_equal(a.phi, b.phi) and a.phi0 == b.phi0


def test_lime_sample_budget_validation():
    schema = make_schema(["cont"] * 4)
    f = ProbModel(lambda X: X[:, 0])
    with pytest.raises(InvalidInputError):
        lime_explain(f, np.zeros(4), schema, n_samples=5, seed=0)  # needs m+2


def test_lime_categorical_match_indicator():
    schema = make_schema([3, "cont"])
    # reward agreeing with the query's category 1
    f = ProbModel(lambda X: 0.2 + 0.6 * (X[:, 0] == 1.0))
    attr = lime_explain(f, np.array([1.0, 0.5]), schema, n_samples=800, seed=3)
    assert attr.phi[0] > 0.3
    assert abs(attr.phi[1]) < 0.1


# --- background and seeds ---------------------------------------------------

def test_background_from_dataset():
    data = generate_synth(SynthSpec(3, 0, 40, seed=1))
    small = Background.from_dataset(data, size=100, seed=0)
    assert small.size == 40  # fewer rows than requested: use them all
    sub = Background.from_dataset(data, size=10, seed=0)
    assert sub.size == 10
    sub2 = Background.from_dataset(data, size=10, seed=0)
    assert np.array_equal(sub.rows, sub2.rows)
    rows_set = {tuple(r) for r in data.X}
    assert all(tuple(r) in rows_set for r in sub.rows)
    with pytest.raises(InvalidInputError):
        Background.from_dataset(data, size=0)
    with pytest.raises(InvalidInputError):
        Background(np.zeros((0, 3)))


def test_derive_seed_is_stable_and_path_sensitive():
    assert derive_seed(0, 1) == derive_seed(0, 1)
    assert derive_seed(0, 1) != derive_seed(0, 2)
    assert derive_seed(0, 1, 2) != derive_seed(0, 2, 1)
    assert derive_seed(1, 1) != derive_seed(0, 1)
