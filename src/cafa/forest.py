"""Random-forest classifier with axis-aligned splits on mixed feature types.

Continuous features split on a threshold (``x <= t`` goes left); categorical
features split one-vs-rest on a single category code (``x == c`` goes left).
Training rows are put into a canonical order before bootstrapping, so the
same data in any row order yields bit-identical forests for a given seed.

The explained model is used only through ``predict_proba``, so any object
exposing ``predict_proba(X) -> (n, n_classes)`` can stand in for it. The
surrogate forest's explainer, ``explain.shapley_forest``, reads the forest's
node table.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError, ModelFormatError, TrainingError
from .schema import Dataset, FeatureSchema, integer, read_json, string_list


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 100
    max_depth: int = 8
    min_leaf: int = 2
    features_per_split: int | None = None  # default: ceil(sqrt(m))
    seed: int = 0

    def __post_init__(self):
        integer(self.n_trees, "n_trees", 1)
        integer(self.max_depth, "max_depth", 1)
        integer(self.min_leaf, "min_leaf", 1)
        if self.features_per_split is not None:
            integer(self.features_per_split, "features_per_split", 1)
        integer(self.seed, "seed")

    def resolve_mtry(self, m: int) -> int:
        k = self.features_per_split or math.ceil(math.sqrt(m))
        return max(1, min(k, m))

    def to_dict(self) -> dict:
        return asdict(self)


# How far a loaded leaf's class probabilities may sum from 1.
_PROB_TOL = 1e-6
# Bytes of one predict chunk's (trees, rows) matrix of node indices. The
# walk's other temporaries take about eight times as much: a 1,024-row call
# on 100 trees peaked at 0.65 MiB, and larger budgets ran no faster.
_WALK_BYTES = 64 * 1024


@functools.lru_cache(maxsize=None)
def _node_dtype(n_classes: int, feature: type, right: type, value: type,
                threshold: type) -> np.dtype:
    """Record of one tree node: its split feature, right child, threshold and
    class values. The left child and the kind of test are not stored: a
    split's left child is the next record, and its test is categorical iff
    its feature is."""
    return np.dtype([
        ("feature", feature), ("right", right), ("threshold", threshold),
        ("value", value, (n_classes,)),
    ])


def _is_cat(feature: np.ndarray, is_categorical: np.ndarray) -> np.ndarray:
    """Read-only flags of whether each node's test is categorical: true on a
    split over a categorical feature, false on a leaf (``feature < 0``)."""
    is_cat = is_categorical.take(feature) & (feature >= 0)
    is_cat.flags.writeable = False
    return is_cat


def _prob(value: np.ndarray) -> np.ndarray:
    """Read-only class probabilities of ``value`` rows (classes last): the
    rows themselves, or class counts divided by their row sums."""
    if value.dtype.kind == "f":
        return value
    prob = value / value.sum(axis=-1, keepdims=True)
    prob.flags.writeable = False
    return prob


def _narrowest(top: int, types) -> type:
    """The first of ``types`` whose range reaches ``top``."""
    for t in types:
        if top <= np.iinfo(t).max:
            return t
    raise ValueError(f"{top} is out of range")


def _threshold_type(threshold: np.ndarray) -> type:
    """uint8 or uint16 if it holds every float64 ``threshold`` with the same
    bits, else float64: a ``-0.0`` or a fraction keeps the table float64."""
    if (threshold >= 0).all() and (threshold <= np.iinfo(np.uint16).max).all():
        narrow = _narrowest(int(threshold.max()), (np.uint8, np.uint16))
        back = threshold.astype(narrow).astype(np.float64)
        if np.array_equal(back.view(np.uint64), threshold.view(np.uint64)):
            return narrow
    return np.float64


def _records(feature, threshold, right, value) -> np.ndarray:
    """The nodes of one tree, or of trees in turn, as one read-only record array.

    ``value`` holds class probabilities (floats) or class counts, which
    take the narrowest unsigned type that holds them. Thresholds take
    uint8 or uint16 when every one of them is a category code that fits
    (as in a forest that splits only on categorical features), else
    float64. ``feature`` and ``right`` each take the narrowest of int8,
    int16 and int32 that holds them; a tree's last node is a leaf that
    points to itself, so ``right`` reaches its largest node index.
    """
    feature, right = np.asarray(feature), np.asarray(right)
    value_type = np.float64
    if value.dtype.kind != "f":
        value_type = _narrowest(value.max(), (np.uint8, np.uint16, np.uint32, np.uint64))
    threshold = np.asarray(threshold, dtype=np.float64)
    signed = (np.int8, np.int16, np.int32)
    dtype = _node_dtype(value.shape[1], _narrowest(feature.max(), signed),
                        _narrowest(right.max(), signed), value_type, _threshold_type(threshold))
    nodes = np.empty(len(feature), dtype=dtype)
    for name, field in (("feature", feature), ("right", right), ("threshold", threshold),
                        ("value", value)):
        nodes[name] = field
    nodes.flags.writeable = False
    return nodes


class Tree(NamedTuple):
    """One tree of a forest: its nodes' split ``feature`` (``-1`` marks a
    leaf), a read-only slice of the forest's node table, and its ``depth``,
    the number of tests on its longest path. ``RandomForest.trees`` makes
    one per tree on each access."""

    feature: np.ndarray
    depth: int


def _decode_tree(doc: dict, schema: FeatureSchema, n_classes: int) -> tuple[np.ndarray, int]:
    """Records and depth of a tree document whose nodes are numbered as the
    builder numbers them, in preorder: a split's ``left`` child is the next
    node, its ``right`` child the node after its left subtree, and a leaf
    (``feature < 0``) points to itself. Every node has a ``feature`` in
    ``[-1, arity)``, ``left`` and ``right`` as JSON integers, an ``is_cat``
    boolean (or 0/1) that is true exactly on a split over a categorical
    feature, a finite ``threshold`` and a ``leaf_prob`` row of
    ``n_classes`` numbers, each finite and >= 0; a leaf's row sums to 1
    within ``_PROB_TOL``.
    """
    ints = [doc[key] for key in ("feature", "left", "right")]
    if not all(type(v) is int for v in itertools.chain(*ints)):
        raise ModelFormatError("tree feature, left and right entries must be JSON integers")
    if not all(type(v) in (bool, int) and v in (0, 1) for v in doc["is_cat"]):
        raise ModelFormatError("tree is_cat entries must be true, false, 0 or 1")
    numbers = itertools.chain(doc["threshold"], *doc["leaf_prob"])
    if not all(type(v) in (int, float) for v in numbers):
        raise ModelFormatError("tree threshold and leaf_prob entries must be JSON numbers")
    feature, left, right = (np.asarray(a, dtype=np.int64) for a in ints)
    is_cat = np.asarray(doc["is_cat"], dtype=bool)
    threshold = np.asarray(doc["threshold"], dtype=np.float64)
    leaf_prob = np.asarray(doc["leaf_prob"], dtype=np.float64)
    if (feature.size == 0 or leaf_prob.ndim != 2 or not feature.shape == is_cat.shape
            == threshold.shape == left.shape == right.shape == leaf_prob.shape[:1]):
        raise ModelFormatError("a tree needs one feature, is_cat, threshold, left, right and "
                               "leaf_prob entry per node")
    # Walked depth first, left before right, the tree must reach its nodes
    # in index order; the walk also gives each node's level.
    level = [0] * feature.size
    stack = [(0, 0)]
    for i, (f, a, b) in enumerate(zip(feature.tolist(), left.tolist(), right.tolist())):
        if not stack or stack[-1][0] != i or (f < 0 and (a, b) != (i, i)):
            raise ModelFormatError("tree nodes are not numbered depth first")
        level[i] = stack.pop()[1]
        if f >= 0:
            stack += [(b, level[i] + 1), (a, level[i] + 1)]
    if stack:
        raise ModelFormatError("tree nodes are not numbered depth first")
    if feature.min() < -1 or feature.max() >= schema.arity:
        raise ModelFormatError("tree splits on a feature outside the schema")
    if not np.array_equal(is_cat, _is_cat(feature, schema.is_categorical)):
        raise ModelFormatError("tree is_cat entries must be true exactly on splits over a "
                               "categorical feature")
    if not np.isfinite(threshold).all():
        raise ModelFormatError("tree thresholds must be finite")
    if leaf_prob.shape[1] != n_classes:
        raise ModelFormatError(f"tree leaf_prob rows must hold {n_classes} classes")
    if not (np.isfinite(leaf_prob).all() and (leaf_prob >= 0.0).all()):
        raise ModelFormatError("tree leaf_prob values must be finite and >= 0")
    if (np.abs(leaf_prob[feature < 0].sum(axis=1) - 1.0) > _PROB_TOL).any():
        raise ModelFormatError(f"a leaf's leaf_prob row must sum to 1 within {_PROB_TOL}")
    return _records(feature, threshold, right, leaf_prob), max(level)


def _sum_classes(a):
    """``a.sum(axis=0)``, added in the order a contiguous class-last row takes.

    NumPy adds up fewer than 8 terms of a contiguous row one after another,
    as a reduction over axis 0 does; from 8 on it adds the row pairwise.
    """
    if a.shape[0] < 8:
        return a.sum(axis=0)
    return np.moveaxis(a, 0, -1).copy().sum(axis=-1)


def _gini_cost(left_counts, right_counts, ln, rn):
    """Size-weighted Gini impurity of splits, vectorized over trailing axes.

    Class counts run along axis 0; ``ln`` and ``rn`` are the row counts of
    each side, which sum to the node size.
    """
    gl = 1.0 - _sum_classes(np.square(left_counts / np.maximum(ln, 1)))
    gr = 1.0 - _sum_classes(np.square(right_counts / np.maximum(rn, 1)))
    return (ln * gl + rn * gr) / (ln + rn)


class _TreeBuilder:
    """Grows one tree on its bootstrap rows, depth first.

    Every node draws ``mtry`` candidate columns and scores every split of all
    of them at once: categorical candidates through one ``bincount`` over
    (class, candidate, code) keys, continuous ones through one batched
    stable argsort and a cumulative class count over the (candidate,
    position) block. A column constant over the tree's rows can only score
    ``inf``, so it is never scored. Ties go to the first candidate, then to
    its first category or position.
    """

    def __init__(self, X, y, schema, params, n_classes, rng):
        self.XT = np.ascontiguousarray(X.T)
        self.y = y
        self.params = params
        self.n_classes = n_classes
        self.rng = rng
        self.arity = schema.arity
        self.is_categorical = schema.is_categorical
        self.vocab_sizes = schema.vocab_sizes
        self.mtry = params.resolve_mtry(schema.arity)
        self.varies = (X != X[:1]).any(axis=0)
        self.classes = np.arange(n_classes)[:, None, None]
        self.depth = 0
        self.feature = []
        self.threshold = []
        self.right = []
        self.counts = []

    def build(self) -> np.ndarray:
        """The tree's records, holding class counts; ``depth`` is its depth."""
        self._grow(np.arange(self.XT.shape[1]), depth=0)
        return _records(self.feature, self.threshold, self.right, np.vstack(self.counts))

    def _grow(self, idx, depth) -> int:
        node = len(self.feature)
        self.depth = max(self.depth, depth)
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.right.append(node)
        y_node = self.y[idx]
        counts = np.bincount(y_node, minlength=self.n_classes)
        self.counts.append(counts)
        if (
            depth >= self.params.max_depth
            or idx.size < 2 * self.params.min_leaf
            or np.count_nonzero(counts) < 2
        ):
            return node
        cand = np.sort(self.rng.choice(self.arity, size=self.mtry, replace=False))
        split = self._best_split(idx, y_node, counts, cand[self.varies[cand]])
        if split is None:
            return node
        f, thr, cat = split
        v = self.XT[f].take(idx)
        mask = (v == thr) if cat else (v <= thr)
        self.feature[node] = f
        self.threshold[node] = thr
        self._grow(idx[mask], depth + 1)  # the left child, node + 1
        self.right[node] = self._grow(idx[~mask], depth + 1)
        return node

    def _best_split(self, idx, y_node, total, cand):
        """``(feature, threshold, is_cat)`` of the node's lowest-cost split, or None.

        ``idx`` are the node's rows, ``y_node`` their labels, ``total`` their
        class counts and ``cand`` the candidate columns in ascending order.
        """
        if cand.size == 0:
            return None
        n = idx.size
        min_leaf = self.params.min_leaf
        total = total[:, None, None]
        cat = self.is_categorical[cand]
        blocks = []  # (candidate rows, costs by category or position)
        if cat.any():
            fc = cand[cat]
            k = int(self.vocab_sizes[fc].max())
            codes = self.XT.take(fc, axis=0).take(idx, axis=1).astype(np.intp)
            keys = codes + k * (np.arange(fc.size)[:, None] + fc.size * y_node)
            cnt = np.bincount(keys.ravel(), minlength=self.n_classes * fc.size * k)
            cnt = cnt.reshape(self.n_classes, fc.size, k)
            ln = cnt.sum(axis=0)
            c_cost = _gini_cost(cnt, total - cnt, ln, n - ln)
            c_cost[(ln < min_leaf) | (n - ln < min_leaf)] = np.inf
            blocks.append((cat, c_cost))
        if not cat.all():
            # Position p puts p + 1 rows left; only [lo, hi) leave min_leaf
            # rows on both sides.
            lo, hi = min_leaf - 1, n - min_leaf
            v = self.XT.take(cand[~cat], axis=0).take(idx, axis=1)
            order = np.argsort(v, axis=1, kind="stable")
            sv = np.sort(v, axis=1)
            lc = (y_node.take(order) == self.classes).cumsum(axis=2)[:, :, lo:hi]
            ln = np.arange(lo + 1, hi + 1)
            v_cost = _gini_cost(lc, total - lc, ln, n - ln)
            v_cost[sv[:, lo:hi] >= sv[:, lo + 1 : hi + 1]] = np.inf
            blocks.append((~cat, v_cost))
        if len(blocks) == 1:
            cost = blocks[0][1]
        else:
            # One row per candidate in ``cand`` order, padded with inf, so
            # the flat argmin takes the first candidate, then its first
            # category or position.
            cost = np.full((cand.size, max(b.shape[1] for _, b in blocks)), np.inf)
            for rows, b in blocks:
                cost[rows, : b.shape[1]] = b
        best = int(cost.argmin())
        i, p = divmod(best, cost.shape[1])
        if cost[i, p] == np.inf:
            return None
        f = int(cand[i])
        if cat[i]:
            return f, float(p), True
        row = sv[np.count_nonzero(~cat[:i])]
        return f, (row[lo + p] + row[lo + p + 1]) / 2.0, False


class RandomForest:
    """Bagged decision trees plus the schema they were trained against.

    The trees' node records live in one read-only table, ``nodes``, tree
    after tree, with each tree's right children numbered within the tree
    (a split's left child is the next record). Tree ``t`` is records
    ``starts[t]`` to ``starts[t + 1]`` and has depth ``depths[t]``.
    ``is_cat`` derives every node's kind of test from ``schema`` and
    ``leaf_prob`` every node's class probabilities; ``to_dict`` writes
    each tree's lists from these whole-table columns. ``train_forest``
    (class counts) and ``from_dict`` (probabilities) pass each tree's
    packed records and depth.
    """

    # Every result keeps its surrogate alive, so a forest holds three arrays
    # and no per-instance dict. A covid-local surrogate's node takes 5
    # bytes: an int8 feature and right child, a uint8 threshold and two
    # uint8 class counts (12 with a float64 threshold, as on lung).
    __slots__ = ("nodes", "starts", "depths", "params", "schema", "n_classes",
                 "norm_params", "label_values")

    def __init__(self, records, depths, params: ForestParams, schema: FeatureSchema,
                 n_classes: int, norm_params: tuple | None = None,
                 label_values: tuple | None = None):
        self.nodes = _records(*(np.concatenate([r[name] for r in records]) for name in
                                ("feature", "threshold", "right", "value")))
        self.starts = np.cumsum([0] + [r.size for r in records])
        self.depths = np.array(depths)
        self.starts.flags.writeable = self.depths.flags.writeable = False
        self.params = params
        self.schema = schema
        self.n_classes = n_classes
        self.norm_params = norm_params
        self.label_values = label_values

    # Only the benchmark in perf/ reads ``trees``, for split features and
    # depths; it can go once perf/ reads ``nodes`` and ``depths`` (ROADMAP 2a).
    @property
    def trees(self) -> list:
        """A ``Tree`` of each tree's features and depth, made on each access."""
        bounds = self.starts.tolist()
        feature = self.nodes["feature"]
        return [Tree(feature[a:b], d)
                for a, b, d in zip(bounds, bounds[1:], self.depths.tolist())]

    @property
    def leaf_prob(self) -> np.ndarray:
        """Every node's class probabilities, in ``nodes`` order."""
        return _prob(self.nodes["value"])

    @property
    def is_cat(self) -> np.ndarray:
        """Whether every node's test is categorical, in ``nodes`` order."""
        return _is_cat(self.nodes["feature"], self.schema.is_categorical)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Class probabilities for a batch of normalized instances.

        All trees are walked at once: a tree-major ``(trees, rows)`` matrix of
        node indices, in chunks of rows of about ``_WALK_BYTES``, gathers
        whole records one level per step. A test's kind comes from its
        feature, and a split's left child is the next record. Leaf
        probabilities are added in tree order, as a running sum along the
        tree axis.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.schema.arity:
            raise InvalidInputError("prediction batch does not match schema arity")
        n, m = X.shape
        # Each row gets a last cell, NaN, which a leaf's feature (-1) reads
        # from the row before it (or, in the first row, from the last). No
        # test sends NaN left, and a leaf's right child is itself.
        continuous = np.append(~self.schema.is_categorical, False)
        roots = self.starts[:-1, None]
        depth = int(self.depths.max())
        value = self.nodes["value"]
        acc = np.empty((n, value.shape[1]))
        step = max(1, _WALK_BYTES // (8 * roots.size))
        for lo in range(0, n, step):
            rows = np.empty((min(step, n - lo), m + 1))
            rows[:, :m] = X[lo : lo + step]
            rows[:, m] = np.nan
            flat = rows.ravel()
            row_start = np.arange(0, flat.size, m + 1)
            cell_continuous = np.tile(continuous, rows.shape[0])
            node = np.repeat(roots, row_start.size, axis=1)
            for _ in range(depth):
                rec = self.nodes.take(node)
                cell = row_start + rec["feature"]
                vals = flat.take(cell)
                thr = rec["threshold"]
                # x == t on a categorical test, x <= t on a continuous one.
                go_left = (vals <= thr) & ((vals == thr) | cell_continuous.take(cell))
                right = roots + rec["right"]
                node = right + (node + 1 - right) * go_left
            acc[lo : lo + step] = np.cumsum(_prob(value[node]), axis=0)[-1]
        acc /= roots.size
        acc /= acc.sum(axis=1, keepdims=True)
        return acc

    def predict_classes(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_proba(X), axis=1)

    def to_dict(self) -> dict:
        """The model document. Each tree lists, per node, its ``feature``,
        ``is_cat`` as 0/1, ``threshold`` as a float, tree-local ``left`` and
        ``right`` children and ``leaf_prob``, class counts as probabilities."""
        feature, bounds = self.nodes["feature"], self.starts.tolist()
        local = np.arange(feature.size) - np.repeat(self.starts[:-1], np.diff(self.starts))
        columns = {
            "feature": feature,
            "is_cat": self.is_cat.astype(int),
            "threshold": self.nodes["threshold"].astype(np.float64),
            "left": local + (feature >= 0),
            "right": self.nodes["right"],
            "leaf_prob": self.leaf_prob,
        }
        return {
            "format": "cafa-forest",
            "version": 1,
            "params": self.params.to_dict(),
            "n_classes": self.n_classes,
            "schema": self.schema.to_dict(),
            "norm_params": [list(p) if p else None for p in (self.norm_params or [])],
            "label_values": list(self.label_values) if self.label_values else None,
            "trees": [{name: column[a:b].tolist() for name, column in columns.items()}
                      for a, b in zip(bounds, bounds[1:])],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "RandomForest":
        if not isinstance(doc, dict) or doc.get("format") != "cafa-forest":
            raise ModelFormatError("not a forest model document")
        try:
            params = ForestParams(**doc["params"])
            schema = FeatureSchema.from_dict(doc["schema"])
            n_classes = integer(doc["n_classes"], "n_classes", 2)
            trees = [_decode_tree(t, schema, n_classes) for t in doc["trees"]]
            norm_params = tuple(
                tuple(p) if p else None for p in doc.get("norm_params") or []
            ) or None
            if norm_params is not None:
                schema.check_norm_params(norm_params)
            label_values = doc.get("label_values")
            if label_values is not None:
                label_values = string_list(label_values, "label_values")
        except (KeyError, TypeError, ValueError, OverflowError, InvalidInputError) as exc:
            raise ModelFormatError(f"malformed model document: {exc}") from None
        if label_values is not None and len(label_values) < n_classes:
            raise ModelFormatError(f"label_values names {len(label_values)} of {n_classes} classes")
        if not trees:
            raise ModelFormatError("model has no trees")
        records, depths = zip(*trees)
        return cls(records, depths, params, schema, n_classes, norm_params, label_values)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "RandomForest":
        return cls.from_dict(read_json(path, "model file", ModelFormatError, ModelFormatError))


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
    # The split search counts categories by code, so a code outside its
    # vocabulary would be counted against another feature.
    cat = data.schema.is_categorical
    codes = data.X[:, cat]
    if np.any((codes != np.floor(codes)) | (codes < 0) | (codes >= data.schema.vocab_sizes[cat])):
        raise InvalidInputError("categorical values must be codes within their vocabulary")

    order = _canonical_order(data.X, data.y)
    X = np.ascontiguousarray(data.X[order])
    y = np.ascontiguousarray(data.y[order])
    n = X.shape[0]
    n_classes = int(y.max()) + 1

    seeds = np.random.SeedSequence(params.seed).spawn(params.n_trees)
    records, depths = [], []
    for t in range(params.n_trees):
        rng = np.random.default_rng(seeds[t])
        boot = rng.integers(0, n, size=n)
        builder = _TreeBuilder(X[boot], y[boot], data.schema, params, n_classes, rng)
        records.append(builder.build())
        depths.append(builder.depth)
    return RandomForest(
        records, depths, params, data.schema, n_classes,
        norm_params=data.norm_params, label_values=data.label_values,
    )


def accuracy(model, data: Dataset) -> float:
    """Fraction of rows whose predicted class matches the label."""
    return float(np.mean(model.predict_classes(data.X) == data.y))
