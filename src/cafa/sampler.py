"""Selective-perturbation neighborhood generator.

Candidates keep the query's uncontrollable feature values, resample every
controllable feature independently (uniform over the vocabulary for
categorical features, truncated Gaussian around the query value for
continuous ones), and survive only when their distance to the query stays
within the proximity threshold. Survivors are labeled by the model and
accumulated until every observed class has the requested count, then each
class is downsampled to exactly that count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distance import delta_to_rows
from .errors import InvalidInputError, NeighborhoodImbalanceError
from .schema import Dataset, FeatureSchema, validate_instance

# Standard deviation of the truncated Gaussian that perturbs a continuous feature.
SIGMA = 0.25
_CHUNK = 1024


@dataclass(frozen=True)
class NeighborhoodSample:
    """Balanced, model-labeled neighborhood of one query instance."""

    data: Dataset
    origin: np.ndarray
    pi: float
    k: int
    stats: dict
    seed: int


def perturb_batch(x, schema: FeatureSchema, rng, n: int):
    """Draw ``n`` candidates around ``x`` varying only controllable features.

    ``x`` must be a normalized instance of ``schema`` (:func:`validate_instance`).
    """
    x = validate_instance(schema, x)
    out = np.tile(x, (n, 1))
    for j in schema.controllable_idx:
        if schema.is_categorical[j]:
            out[:, j] = rng.integers(0, schema.vocab_sizes[j], size=n)
        else:
            # Rejection: with x[j] in [0, 1], a draw lands in [0, 1] with p >= 0.4999.
            v = rng.normal(x[j], SIGMA, n)
            bad = np.flatnonzero((v < 0.0) | (v > 1.0))
            while bad.size:
                v[bad] = rng.normal(x[j], SIGMA, bad.size)
                bad = bad[(v[bad] < 0.0) | (v[bad] > 1.0)]
            out[:, j] = v
    return out


def generate_neighborhood(
    x,
    f,
    schema: FeatureSchema,
    pi: float,
    k: int,
    max_attempts: int = 200_000,
    seed: int = 0,
) -> NeighborhoodSample:
    """Rejection-sample a balanced labeled neighborhood of ``x``.

    Sampling stops once at least two classes are observed and every observed
    class has ``k`` members; each class is then cut to exactly ``k``. Raises
    :class:`NeighborhoodImbalanceError` when the attempt budget runs out
    first, which happens when the model is (locally) constant over the
    reachable neighborhood or a rare observed class stays short of ``k``.
    """
    x = validate_instance(schema, x)
    if not 0.0 < pi <= 1.0:
        raise InvalidInputError(f"proximity must be in (0, 1], got {pi}")
    if k < 1:
        raise InvalidInputError("k must be >= 1")
    if max_attempts < 1:
        raise InvalidInputError("max_attempts must be >= 1")

    rng = np.random.default_rng(seed)
    rows = []
    labels = []
    attempts = 0
    rejected_distance = 0

    def balanced() -> bool:
        if not labels:
            return False
        counts = np.bincount(np.concatenate(labels))
        present = counts[counts > 0]
        return len(present) >= 2 and present.min() >= k

    while not balanced():
        budget = max_attempts - attempts
        if budget <= 0:
            counts = {}
            if labels:
                flat = np.concatenate(labels)
                counts = {int(c): int(n) for c, n in zip(*np.unique(flat, return_counts=True))}
            raise NeighborhoodImbalanceError(
                f"exhausted {max_attempts} attempts before every class reached "
                f"k={k}; observed class counts: {counts or '{}'} "
                f"(the model may be constant within the proximity ball)",
                class_counts=counts,
                attempts=attempts,
            )
        n_draw = min(_CHUNK, budget)
        cand = perturb_batch(x, schema, rng, n_draw)
        attempts += n_draw
        keep = delta_to_rows(cand, x, schema) <= pi
        rejected_distance += int(n_draw - keep.sum())
        if keep.any():
            survivors = cand[keep]
            probs = f.predict_proba(survivors)
            rows.append(survivors)
            labels.append(np.argmax(probs, axis=1).astype(np.int64))

    all_rows = np.concatenate(rows)
    all_labels = np.concatenate(labels)
    classes = np.unique(all_labels)
    picked = []
    for c in classes:
        members = np.flatnonzero(all_labels == c)
        picked.append(members[rng.choice(members.size, size=k, replace=False)])
    keep_idx = np.sort(np.concatenate(picked))
    stats = {
        "attempts": attempts,
        "rejections_distance": rejected_distance,
        "rejections_balance": int(all_rows.shape[0] - k * classes.size),
    }
    data = Dataset.from_normalized(schema, all_rows[keep_idx], all_labels[keep_idx])
    return NeighborhoodSample(data=data, origin=x, pi=float(pi), k=k, stats=stats, seed=seed)
