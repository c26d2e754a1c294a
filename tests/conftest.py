"""Shared helpers: small schemas, model fakes, stump trees, random instances, a coalition-value reference."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from cafa.explain import Background, _prob1
from cafa.forest import Tree
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


def stump(feature, threshold, left_prob, right_prob, is_cat=False) -> Tree:
    """Single-split tree, for hand-built oracles."""
    return Tree(
        feature=[feature, -1, -1],
        is_cat=[is_cat, False, False],
        threshold=[threshold, 0.0, 0.0],
        left=[1, 1, 2],
        right=[2, 1, 2],
        leaf_prob=np.vstack([np.zeros_like(left_prob, dtype=np.float64), left_prob, right_prob]),
    )


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
