"""Weighted mixed-type distance between instances.

Per-feature distances: categorical features contribute 0/1 (match/mismatch),
continuous features the absolute difference of their normalized values. The
instance distance is the weight-normalized sum, so it always lies in [0, 1]
and is a metric whenever every per-feature weight is non-negative. The
weights and feature kinds come from the :class:`FeatureSchema`.
"""

from __future__ import annotations

from math import comb

import numpy as np

from .errors import InvalidInputError
from .schema import Dataset, FeatureSchema, validate_instance


def _weighted_sum(A: np.ndarray, B: np.ndarray, schema: FeatureSchema, pairs=None) -> np.ndarray:
    """Weighted per-feature distance sum between the rows of ``A`` and ``B``.

    ``B`` is one instance (broadcast against every row) or a row matrix
    paired row by row with ``A``. ``pairs``, an ``(ia, ib)`` pair of row
    index arrays, pairs row ``ia[p]`` of ``A`` with row ``ib[p]`` of ``B``
    instead; the rows are gathered one column group at a time, so the paired
    rows are never copied whole.
    """
    cat = schema.is_categorical
    w = schema.weights
    ia, ib = pairs if pairs is not None else (slice(None), Ellipsis)
    acc = np.zeros(A.shape[0] if pairs is None else len(ia), dtype=np.float64)
    if cat.any():
        acc += (A[:, cat][ia] != B[..., cat][ib]).astype(np.float64) @ w[cat]
    if (~cat).any():
        acc += np.abs(A[:, ~cat][ia] - B[..., ~cat][ib]) @ w[~cat]
    return acc


def delta(x1, x2, schema: FeatureSchema) -> float:
    """Weighted mean of per-feature distances between two instances."""
    a = validate_instance(schema, x1)
    b = validate_instance(schema, x2)
    return float(delta_to_rows(a[None, :], b, schema)[0])


def delta_to_rows(X: np.ndarray, x: np.ndarray, schema: FeatureSchema) -> np.ndarray:
    """Vectorized distance from one instance to every row of ``X``.

    Fast path: inputs are assumed valid (shape-checked only).
    """
    X = np.asarray(X, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != x.shape[0] or x.shape[0] != schema.arity:
        raise InvalidInputError("shape mismatch in distance computation")
    return _weighted_sum(X, x, schema) / schema.weights.sum()


def estimate_proximity(data: Dataset, n_pairs: int = 10_000, seed: int = 0) -> float:
    """Average pairwise distance over the dataset.

    All C(n, 2) pairs are used when that count fits inside ``n_pairs``;
    otherwise ``n_pairs`` pairs are sampled uniformly (seeded).
    """
    schema = data.schema
    n = data.n_rows
    if n < 2:
        raise InvalidInputError("proximity estimation needs at least 2 rows")
    if n_pairs < 1:
        raise InvalidInputError("n_pairs must be >= 1")

    X = data.X
    total_pairs = comb(n, 2)
    if total_pairs <= n_pairs:
        acc = 0.0
        for i in range(n - 1):
            acc += float(delta_to_rows(X[i + 1 :], X[i], schema).sum())
        return acc / total_pairs

    rng = np.random.default_rng(seed)
    i = rng.integers(0, n, size=n_pairs)
    j = rng.integers(0, n, size=n_pairs)
    clash = i == j
    while clash.any():
        j[clash] = rng.integers(0, n, size=int(clash.sum()))
        clash = i == j
    return float(_weighted_sum(X, X, schema, pairs=(i, j)).mean() / schema.weights.sum())
