"""Random-forest classifier with axis-aligned splits on mixed feature types.

Continuous features split on a threshold (``x <= t`` goes left); categorical
features split one-vs-rest on a single category code (``x == c`` goes left).
Training rows are put into a canonical order before bootstrapping, so the
same data in any row order yields bit-identical forests for a given seed.

Explainers in this package depend only on the ``predict_proba`` surface, so
any object exposing ``predict_proba(X) -> (n, n_classes)`` can stand in for
a trained forest.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, ModelFormatError, TrainingError
from .schema import Dataset, FeatureSchema


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 100
    max_depth: int = 8
    min_leaf: int = 2
    features_per_split: int | None = None  # default: ceil(sqrt(m))
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1 or self.max_depth < 1 or self.min_leaf < 1:
            raise InvalidInputError("forest params must be positive")
        if self.features_per_split is not None and self.features_per_split < 1:
            raise InvalidInputError("features_per_split must be >= 1 when given")

    def resolve_mtry(self, m: int) -> int:
        k = self.features_per_split or math.ceil(math.sqrt(m))
        return max(1, min(k, m))

    def to_dict(self) -> dict:
        return {
            "n_trees": self.n_trees,
            "max_depth": self.max_depth,
            "min_leaf": self.min_leaf,
            "features_per_split": self.features_per_split,
            "seed": self.seed,
        }


class Tree:
    """Flat-array decision tree.

    ``feature[i] == -1`` marks a leaf; leaves point to themselves so batch
    traversal can run a fixed number of steps.
    """

    # Every result keeps its surrogate's trees alive, so a tree stores its
    # indices as int32, has no per-instance dict and holds no views.
    __slots__ = ("feature", "is_cat", "threshold", "_children", "leaf_prob", "depth")

    def __init__(self, feature, is_cat, threshold, left, right, leaf_prob):
        self.feature = np.asarray(feature, dtype=np.int32)
        self.is_cat = np.asarray(is_cat, dtype=bool)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        # One interleaved child table, node i's children at flat positions
        # 2 * i and 2 * i + 1, so traversal steps with a single gather.
        self._children = np.stack(
            [np.asarray(left, dtype=np.int32), np.asarray(right, dtype=np.int32)], axis=1
        )
        self.leaf_prob = np.asarray(leaf_prob, dtype=np.float64)
        self.depth = self._measure_depth()

    @property
    def left(self) -> np.ndarray:
        return self._children[:, 0]

    @property
    def right(self) -> np.ndarray:
        return self._children[:, 1]

    def _measure_depth(self) -> int:
        feature = self.feature.tolist()
        children = self._children.tolist()
        depth = 0
        frontier = [(0, 0)]
        while frontier:
            node, d = frontier.pop()
            depth = max(depth, d)
            if feature[node] >= 0:
                left, right = children[node]
                frontier += ((left, d + 1), (right, d + 1))
        return depth

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf index reached by every row of ``X``."""
        n, m = X.shape
        flat = X.ravel()
        row_start = np.arange(0, n * m, m)
        # Index with intp copies, so no step converts its indices.
        gather = np.maximum(self.feature, 0).astype(np.intp)
        children = self._children.ravel().astype(np.intp)
        node = np.zeros(n, dtype=np.int64)
        for _ in range(self.depth):
            vals = flat.take(row_start + gather.take(node))
            thr = self.threshold.take(node)
            go_left = np.where(self.is_cat.take(node), vals == thr, vals <= thr)
            node = children.take(2 * node + ~go_left)
        return node

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return self.leaf_prob[self.apply(X)]

    def to_dict(self) -> dict:
        return {
            "feature": self.feature.tolist(),
            "is_cat": self.is_cat.astype(int).tolist(),
            "threshold": self.threshold.tolist(),
            "left": self.left.tolist(),
            "right": self.right.tolist(),
            "leaf_prob": self.leaf_prob.tolist(),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "Tree":
        return cls(
            doc["feature"],
            np.asarray(doc["is_cat"], dtype=bool),
            doc["threshold"],
            doc["left"],
            doc["right"],
            doc["leaf_prob"],
        )


def _gini_cost(left_counts, right_counts):
    """Size-weighted Gini impurity of a split, vectorized over candidates."""
    ln = left_counts.sum(axis=1)
    rn = right_counts.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        gl = 1.0 - np.square(left_counts / np.maximum(ln, 1)[:, None]).sum(axis=1)
        gr = 1.0 - np.square(right_counts / np.maximum(rn, 1)[:, None]).sum(axis=1)
    return (ln * gl + rn * gr) / (ln + rn)


class _TreeBuilder:
    def __init__(self, X, y, schema, params, n_classes, rng):
        self.X = X
        self.y = y
        self.schema = schema
        self.params = params
        self.n_classes = n_classes
        self.rng = rng
        self.mtry = params.resolve_mtry(schema.arity)
        self.feature = []
        self.is_cat = []
        self.threshold = []
        self.left = []
        self.right = []
        self.leaf_prob = []

    def build(self) -> Tree:
        self._grow(np.arange(self.X.shape[0]), depth=0)
        return Tree(
            self.feature, self.is_cat, self.threshold,
            self.left, self.right, np.vstack(self.leaf_prob),
        )

    def _new_node(self):
        i = len(self.feature)
        self.feature.append(-1)
        self.is_cat.append(False)
        self.threshold.append(0.0)
        self.left.append(i)
        self.right.append(i)
        self.leaf_prob.append(np.zeros(self.n_classes))
        return i

    def _grow(self, idx, depth) -> int:
        node = self._new_node()
        counts = np.bincount(self.y[idx], minlength=self.n_classes)
        self.leaf_prob[node] = counts / idx.size
        if (
            depth >= self.params.max_depth
            or idx.size < 2 * self.params.min_leaf
            or np.count_nonzero(counts) < 2
        ):
            return node
        cand = np.sort(self.rng.choice(self.schema.arity, size=self.mtry, replace=False))
        split = self._best_split(idx, cand)
        if split is None:
            return node
        f, thr, cat = split
        v = self.X[idx, f]
        mask = (v == thr) if cat else (v <= thr)
        self.feature[node] = f
        self.is_cat[node] = cat
        self.threshold[node] = thr
        self.left[node] = self._grow(idx[mask], depth + 1)
        self.right[node] = self._grow(idx[~mask], depth + 1)
        return node

    def _best_split(self, idx, cand):
        best_cost = np.inf
        best = None
        y_node = self.y[idx]
        total = np.bincount(y_node, minlength=self.n_classes)
        min_leaf = self.params.min_leaf
        for f in cand:
            v = self.X[idx, f]
            if self.schema.is_categorical[f]:
                codes = v.astype(np.int64)
                k = int(self.schema.vocab_sizes[f])
                cnt = np.zeros((k, self.n_classes))
                np.add.at(cnt, (codes, y_node), 1.0)
                left_n = cnt.sum(axis=1)
                right_n = idx.size - left_n
                cost = _gini_cost(cnt, total[None, :] - cnt)
                cost[(left_n < min_leaf) | (right_n < min_leaf)] = np.inf
                c = int(np.argmin(cost))
                if cost[c] < best_cost:
                    best_cost = cost[c]
                    best = (int(f), float(c), True)
            else:
                order = np.argsort(v, kind="stable")
                sv = v[order]
                sy = y_node[order]
                cum = np.cumsum(np.eye(self.n_classes)[sy], axis=0)
                lc = cum[:-1]
                rc = cum[-1] - lc
                ln = np.arange(1, idx.size)
                cost = _gini_cost(lc, rc)
                invalid = (
                    (sv[:-1] >= sv[1:])
                    | (ln < min_leaf)
                    | (idx.size - ln < min_leaf)
                )
                cost[invalid] = np.inf
                p = int(np.argmin(cost))
                if cost[p] < best_cost:
                    best_cost = cost[p]
                    best = (int(f), (sv[p] + sv[p + 1]) / 2.0, False)
        return best


@dataclass
class RandomForest:
    """Bagged decision trees plus the schema they were trained against."""

    trees: list
    params: ForestParams
    schema: FeatureSchema
    n_classes: int
    norm_params: tuple | None = None
    label_values: tuple | None = None

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Class probabilities for a batch of normalized instances."""
        X = np.ascontiguousarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.schema.arity:
            raise InvalidInputError("prediction batch does not match schema arity")
        acc = np.zeros((X.shape[0], self.n_classes))
        for tree in self.trees:
            acc += tree.predict_proba(X)
        acc /= len(self.trees)
        acc /= acc.sum(axis=1, keepdims=True)
        return acc

    def predict_classes(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_proba(X), axis=1)

    def to_dict(self) -> dict:
        return {
            "format": "cafa-forest",
            "version": 1,
            "params": self.params.to_dict(),
            "n_classes": self.n_classes,
            "schema": self.schema.to_dict(),
            "norm_params": [list(p) if p else None for p in (self.norm_params or [])],
            "label_values": list(self.label_values) if self.label_values else None,
            "trees": [t.to_dict() for t in self.trees],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "RandomForest":
        try:
            if doc.get("format") != "cafa-forest":
                raise ModelFormatError("not a forest model document")
            params = ForestParams(**doc["params"])
            schema = FeatureSchema.from_dict(doc["schema"])
            trees = [Tree.from_dict(t) for t in doc["trees"]]
            norm_params = tuple(
                tuple(p) if p else None for p in doc.get("norm_params") or []
            ) or None
            label_values = tuple(doc["label_values"]) if doc.get("label_values") else None
            return cls(trees, params, schema, int(doc["n_classes"]),
                       norm_params, label_values)
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelFormatError(f"malformed model document: {exc}") from None

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "RandomForest":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ModelFormatError(f"cannot read model file: {exc}") from None
        return cls.from_dict(doc)


def _canonical_order(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row order independent of how the input happened to be arranged."""
    keys = [y] + [X[:, j] for j in range(X.shape[1] - 1, -1, -1)]
    return np.lexsort(keys)


def train_forest(data: Dataset, params: ForestParams | None = None) -> RandomForest:
    """Fit a forest by bootstrap aggregation with Gini splits.

    Deterministic for a given seed; independent of training-row order.
    """
    params = params or ForestParams()
    if data.n_rows < 10:
        raise TrainingError(f"need at least 10 rows, got {data.n_rows}")
    if len(np.unique(data.y)) < 2:
        raise TrainingError("training data contains a single class")
    if data.schema.arity < 1:
        raise TrainingError("empty feature set")

    order = _canonical_order(data.X, data.y)
    X = np.ascontiguousarray(data.X[order])
    y = np.ascontiguousarray(data.y[order])
    n = X.shape[0]
    n_classes = int(y.max()) + 1

    seeds = np.random.SeedSequence(params.seed).spawn(params.n_trees)
    trees = []
    for t in range(params.n_trees):
        rng = np.random.default_rng(seeds[t])
        boot = rng.integers(0, n, size=n)
        builder = _TreeBuilder(X[boot], y[boot], data.schema, params, n_classes, rng)
        trees.append(builder.build())
    return RandomForest(
        trees, params, data.schema, n_classes,
        norm_params=data.norm_params, label_values=data.label_values,
    )


def accuracy(model, data: Dataset) -> float:
    """Fraction of rows whose predicted class matches the label."""
    return float(np.mean(model.predict_classes(data.X) == data.y))
