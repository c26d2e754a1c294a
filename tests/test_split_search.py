"""Vectorized split search against the per-candidate loop it replaced."""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from cafa.forest import ForestParams, _gini_cost, _TreeBuilder

from .conftest import make_schema


def _gini_cost_reference(left_counts, right_counts):
    ln = left_counts.sum(axis=1)
    rn = right_counts.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        gl = 1.0 - np.square(left_counts / np.maximum(ln, 1)[:, None]).sum(axis=1)
        gr = 1.0 - np.square(right_counts / np.maximum(rn, 1)[:, None]).sum(axis=1)
    return (ln * gl + rn * gr) / (ln + rn)


def best_split_reference(X, y, idx, cand, schema, n_classes, min_leaf):
    """One candidate at a time: ``(feature, threshold, is_cat)`` or None."""
    best_cost = np.inf
    best = None
    y_node = y[idx]
    total = np.bincount(y_node, minlength=n_classes)
    for f in cand:
        v = X[idx, f]
        if schema.is_categorical[f]:
            codes = v.astype(np.int64)
            k = int(schema.vocab_sizes[f])
            cnt = np.zeros((k, n_classes))
            np.add.at(cnt, (codes, y_node), 1.0)
            left_n = cnt.sum(axis=1)
            right_n = idx.size - left_n
            cost = _gini_cost_reference(cnt, total[None, :] - cnt)
            cost[(left_n < min_leaf) | (right_n < min_leaf)] = np.inf
            c = int(np.argmin(cost))
            if cost[c] < best_cost:
                best_cost = cost[c]
                best = (int(f), float(c), True)
        else:
            order = np.argsort(v, kind="stable")
            sv = v[order]
            sy = y_node[order]
            cum = np.cumsum(np.eye(n_classes)[sy], axis=0)
            lc = cum[:-1]
            rc = cum[-1] - lc
            ln = np.arange(1, idx.size)
            cost = _gini_cost_reference(lc, rc)
            invalid = (sv[:-1] >= sv[1:]) | (ln < min_leaf) | (idx.size - ln < min_leaf)
            cost[invalid] = np.inf
            p = int(np.argmin(cost))
            if cost[p] < best_cost:
                best_cost = cost[p]
                best = (int(f), (sv[p] + sv[p + 1]) / 2.0, False)
    return best


@pytest.mark.parametrize("n_classes", [2, 3, 7, 8, 9, 12])
def test_gini_cost_adds_classes_in_the_reference_order(n_classes):
    # Class-major blocks must give the bits of the class-last reference,
    # whose row sums NumPy adds sequentially below 8 terms, pairwise above.
    rng = np.random.default_rng(n_classes)
    left = rng.integers(0, 1000, size=(n_classes, 4000))
    total = left + rng.integers(0, 1000, size=(n_classes, 4000))
    right = total - left
    ln, rn = left.sum(axis=0), right.sum(axis=0)
    got = _gini_cost(left, right, ln, rn)
    # The loop's count blocks were C-ordered, (positions, classes).
    want = _gini_cost_reference(
        np.ascontiguousarray(left.T, dtype=float), np.ascontiguousarray(right.T, dtype=float)
    )
    assert got.tobytes() == want.tobytes()


def _bits(split):
    return None if split is None else (split[0], float(split[1]).hex(), split[2])


# Few distinct values, so sorted columns hold ties; -0.0 ties with 0.0.
_CONT_VALUES = st.sampled_from([-0.0, 0.0, 0.1, 0.25, 1 / 3, 0.5, 0.7, 1.0])


@st.composite
def nodes(draw):
    """A tree's rows, one node of them, candidate columns and the tree's settings."""
    m = draw(st.integers(1, 6))
    kinds = draw(st.lists(st.sampled_from(["cont", 2, 3, 5]), min_size=m, max_size=m))
    n_rows = draw(st.integers(2, 40))
    n_classes = draw(st.sampled_from([2, 2, 3, 9]))
    X = np.empty((n_rows, m))
    for j, kind in enumerate(kinds):
        if draw(st.booleans()) and draw(st.booleans()):  # constant over the tree
            X[:, j] = 0.5 if kind == "cont" else draw(st.integers(0, kind - 1))
        elif kind == "cont":
            X[:, j] = draw(st.lists(_CONT_VALUES | st.floats(0, 1), min_size=n_rows, max_size=n_rows))
        else:
            # Codes from the low end only, so high categories are absent.
            top = draw(st.integers(0, kind - 1))
            X[:, j] = draw(st.lists(st.integers(0, top), min_size=n_rows, max_size=n_rows))
    y = np.array(draw(st.lists(st.integers(0, n_classes - 1), min_size=n_rows, max_size=n_rows)))
    idx = np.flatnonzero(draw(st.lists(st.booleans(), min_size=n_rows, max_size=n_rows)))
    cand = np.array(sorted(draw(st.sets(st.integers(0, m - 1), min_size=1))))
    min_leaf = draw(st.integers(1, 4))
    return X, y, kinds, n_classes, idx, cand, min_leaf


@given(nodes())
def test_best_split_matches_per_candidate_loop(node):
    X, y, kinds, n_classes, idx, cand, min_leaf = node
    # The domain _grow calls the split search on.
    assume(idx.size >= 2 * min_leaf)
    assume(np.count_nonzero(np.bincount(y[idx], minlength=n_classes)) >= 2)
    schema = make_schema(kinds)
    params = ForestParams(n_trees=1, min_leaf=min_leaf)
    builder = _TreeBuilder(X, y, schema, params, n_classes, np.random.default_rng(0))
    counts = np.bincount(y[idx], minlength=n_classes)
    got = builder._best_split(idx, y[idx], counts, cand[builder.varies[cand]])
    want = best_split_reference(X, y, idx, cand, schema, n_classes, min_leaf)
    assert _bits(got) == _bits(want)


def test_tied_costs_go_to_the_first_candidate_then_position():
    # Columns 0 and 2 are copies, so both split with the same cost; the
    # categorical column 1 scores the same split too.
    X = np.array([[0.1, 0, 0.1], [0.2, 0, 0.2], [0.8, 1, 0.8], [0.9, 1, 0.9]])
    y = np.array([0, 0, 1, 1])
    schema = make_schema(["cont", 2, "cont"])
    builder = _TreeBuilder(X, y, schema, ForestParams(min_leaf=1), 2, np.random.default_rng(0))
    idx = np.arange(4)
    for cand, want in (([0, 1, 2], (0, 0.5, False)), ([1, 2], (1, 0.0, True)), ([2], (2, 0.5, False))):
        cand = np.array(cand)
        got = builder._best_split(idx, y, np.bincount(y), cand)
        assert _bits(got) == _bits(want)
        assert _bits(got) == _bits(best_split_reference(X, y, idx, cand, schema, 2, 1))


def test_constant_columns_are_never_candidates():
    X = np.array([[0.3, 2.0, 0.1], [0.3, 2.0, 0.9], [0.3, 2.0, 0.5]])
    schema = make_schema(["cont", 3, "cont"])
    builder = _TreeBuilder(X, np.array([0, 1, 0]), schema, ForestParams(), 2, np.random.default_rng(0))
    assert builder.varies.tolist() == [False, False, True]
