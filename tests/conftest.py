"""Shared helpers: small schemas, model fakes, hand-written trees and forests, trees a model file must not hold, random instances, a coalition-value reference, a memory-peak probe."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from cafa.explain import Background, _prob1
from cafa.forest import ForestParams, RandomForest
from cafa.schema import Feature, FeatureSchema

DATA_DIR = Path(__file__).resolve().parents[1] / "data"

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")


class ProbModel:
    """Model fake driven by a vectorized positive-class probability function.

    Anything exposing predict_proba(X) -> (n, 2) can stand in for a trained
    forest in the explainers and the sampler.
    """

    def __init__(self, fn):
        self.fn = fn

    def predict_proba(self, X):
        p = np.asarray(self.fn(np.asarray(X, dtype=np.float64)), dtype=np.float64)
        return np.column_stack([1.0 - p, p])

    def predict_classes(self, X):
        return np.argmax(self.predict_proba(X), axis=1)


def coalition_value(f, x, coalition, bg: Background) -> float:
    """Mean prediction with ``coalition`` columns pinned to the query."""
    x = np.asarray(x, dtype=np.float64)
    Z = bg.rows.copy()
    idx = np.asarray(coalition, dtype=np.intp)
    if idx.size:
        Z[:, idx] = x[idx]
    return float(_prob1(f, Z).mean())


def stump(feature, threshold, left_prob, right_prob, is_cat=False) -> dict:
    """Tree document of a single split, for hand-built oracles."""
    return {
        "feature": [feature, -1, -1],
        "is_cat": [is_cat, False, False],
        "threshold": [threshold, 0.0, 0.0],
        "left": [1, 1, 2],
        "right": [2, 1, 2],
        "leaf_prob": [[0.0] * len(left_prob), np.asarray(left_prob, dtype=np.float64).tolist(),
                      np.asarray(right_prob, dtype=np.float64).tolist()],
    }


def leaf(prob, threshold=0.0) -> dict:
    """Tree document of a single leaf."""
    return {"feature": [-1], "is_cat": [False], "threshold": [threshold],
            "left": [0], "right": [0], "leaf_prob": [list(prob)]}


def preorder(doc) -> dict:
    """Tree document ``doc`` renumbered as the builder numbers nodes: depth
    first, a split's left child next."""
    order, stack = [], [0]
    while stack:
        i = stack.pop()
        order.append(i)
        if doc["feature"][i] >= 0:
            stack += [doc["right"][i], doc["left"][i]]
    new = {old: k for k, old in enumerate(order)}
    out = {key: [doc[key][i] for i in order]
           for key in ("feature", "is_cat", "threshold", "leaf_prob")}
    for key in ("left", "right"):
        out[key] = [new[doc[key][i]] for i in order]
    return out


# Trees over feature 0 (continuous) and feature 1 (categorical) that a model
# file must not hold.
BAD_TREES = {
    # depth 2, numbered breadth first: the root's left child is node 1, but
    # node 1's left child is node 3
    "breadth-first": {
        "feature": [0, 1, 0, -1, -1, -1, -1], "is_cat": [0, 1, 0, 0, 0, 0, 0],
        "threshold": [0.5, 1.0, 0.25, 0.0, 0.0, 0.0, 0.0],
        "left": [1, 3, 5, 3, 4, 5, 6], "right": [2, 4, 6, 3, 4, 5, 6],
        "leaf_prob": [[0.0, 0.0]] * 3 + [[1.0, 0.0], [0.0, 1.0]] * 2,
    },
    "is-cat-on-cont": stump(0, 0.5, [1.0, 0.0], [0.0, 1.0], is_cat=True),
    "is-cat-on-leaf": {**stump(0, 0.5, [1.0, 0.0], [0.0, 1.0]), "is_cat": [False, True, False]},
}


def forest_of(schema, tree_docs, n_classes=2) -> RandomForest:
    """A forest of tree documents, decoded and checked as a model file is."""
    return RandomForest.from_dict({
        "format": "cafa-forest", "version": 1,
        "params": ForestParams(n_trees=len(tree_docs)).to_dict(),
        "n_classes": n_classes, "schema": schema.to_dict(), "trees": list(tree_docs),
    })


def make_schema(kinds, controllable=None, weights=None, names=None):
    """Build a schema from a list of "cont" / int-vocab-size entries."""
    feats = []
    for i, k in enumerate(kinds):
        feats.append(
            Feature(
                name=names[i] if names else f"f{i}",
                kind="cont" if k == "cont" else "cat",
                controllable=True if controllable is None else bool(controllable[i]),
                weight=1.0 if weights is None else float(weights[i]),
                vocabulary=None if k == "cont" else tuple(str(c) for c in range(k)),
            )
        )
    return FeatureSchema(feats)


def peak_bytes(fn, *args):
    """tracemalloc peak of ``fn(*args)``, run once beforehand so one-time
    allocations stay out of it."""
    fn(*args)
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def random_instance(schema, rng):
    x = np.empty(schema.arity, dtype=np.float64)
    for j in range(schema.arity):
        if schema.is_categorical[j]:
            x[j] = rng.integers(0, schema.vocab_sizes[j])
        else:
            x[j] = rng.random()
    return x


def random_rows(schema, rng, n):
    return np.stack([random_instance(schema, rng) for _ in range(n)])


@pytest.fixture(scope="session")
def breast_data():
    from cafa.schema import IngestionSpec, load_csv

    spec = IngestionSpec.from_json(DATA_DIR / "breast_cancer.spec.json")
    return load_csv(DATA_DIR / "breast_cancer.csv", spec)
