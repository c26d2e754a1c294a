"""Shapley attribution engines and a locally weighted linear baseline.

All explainers target the model's positive-class probability. Feature
removal is interventional: the value of a coalition S is the model's mean
prediction over background rows with the coalition's columns overwritten by
the query's values.

A ``RandomForest`` is explained in closed form, leaf by leaf, by
``shapley_forest``. For one leaf and a (row, background row) pair, the
terms depend only on the leaf's path features each side fails, F_x and
F_b: the pair reaches the leaf iff they are disjoint, and then the
features in A = F_b gain and those in C = F_x lose. So each leaf scores
every pair of distinct fail masks once, not every pair of rows.

``shapley_exact`` (up to ``EXACT_LIMIT`` features) and ``shapley_mc``
serve any other ``predict_proba`` model. Both score the dense grid of
coalition rows against every background row, chunked so the rows of one
model call hold about ``_BATCH_BYTES``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distance import delta_to_rows
from .errors import FitError, InvalidInputError, SizeLimitError
from .schema import Dataset, FeatureSchema

# Bytes of coalition rows per model call, so a chunk's grid stays small at
# any feature count.
_BATCH_BYTES = 8 * 2**20
EXACT_LIMIT = 15  # most features shapley_exact enumerates (2^15 coalitions)
# Bytes per temporary of the tree explainer: a leaf chunk's (leaves, path
# slots, rows) arrays and a pair batch's (path slots, mask pairs) ones. It
# trades memory for speed: 4x the budget ran the benchmark's surrogates
# about 20% faster but peaked at 3-4 MiB instead of 1-1.25 MiB.
_TREE_CHUNK_BYTES = 256 * 1024


def derive_seed(base: int, *path: int) -> int:
    """Stable child seed for a (base, path) pair; independent streams."""
    return int(np.random.SeedSequence(base, spawn_key=tuple(path)).generate_state(1)[0])


def rank_by_magnitude(values) -> np.ndarray:
    """Feature indices by decreasing ``|values|``, ties by feature index."""
    return np.argsort(-np.abs(values), kind="stable")


@dataclass(frozen=True)
class Attribution:
    """Per-feature attributions for one explained instance."""

    phi: np.ndarray
    phi0: float
    method: str
    seed: int | None = None

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=np.float64)
        phi.flags.writeable = False
        object.__setattr__(self, "phi", phi)


@dataclass(frozen=True)
class Background:
    """Reference rows used to marginalize removed features."""

    rows: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[0] < 1:
            raise InvalidInputError("background needs a non-empty 2-d row matrix")
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)

    @property
    def size(self) -> int:
        return self.rows.shape[0]

    @classmethod
    def from_dataset(cls, data: Dataset, size: int = 100, seed: int = 0) -> "Background":
        if size < 1:
            raise InvalidInputError("background size must be >= 1")
        if data.n_rows <= size:
            return cls(data.X)
        rng = np.random.default_rng(seed)
        idx = np.sort(rng.choice(data.n_rows, size=size, replace=False))
        return cls(data.X[idx])


def _prob1(f, Z: np.ndarray) -> np.ndarray:
    """Positive-class probability for each row of ``Z``."""
    return f.predict_proba(Z)[:, 1]


def _coalition_means(f, x: np.ndarray, bg: Background, pinned: np.ndarray) -> np.ndarray:
    """Mean positive-class probability of each coalition in ``pinned``.

    ``pinned`` is a ``(C, m)`` boolean matrix; coalition ``c`` takes the
    query's values on its pinned columns and background row ``b``'s values
    elsewhere. All ``C * B`` rows are built and scored in one call.
    """
    grid = np.where(pinned[:, None, :], x, bg.rows)
    return _prob1(f, grid.reshape(-1, x.size)).reshape(pinned.shape[0], bg.size).mean(axis=1)


def shapley_exact(f, x, bg: Background) -> Attribution:
    """Exact interventional Shapley values by coalition enumeration over at
    most ``EXACT_LIMIT`` features."""
    x = np.asarray(x, dtype=np.float64)
    m = x.size
    if m > EXACT_LIMIT:
        raise SizeLimitError(
            f"exact enumeration over {m} features needs 2^{m} coalitions; "
            f"limit is {EXACT_LIMIT} (use shapley_mc instead)"
        )
    n_masks = 1 << m
    bits = ((np.arange(n_masks)[:, None] >> np.arange(m)) & 1).astype(bool)

    chunk = max(1, _BATCH_BYTES // (8 * max(m, 1) * bg.size))
    v = np.concatenate([_coalition_means(f, x, bg, bits[start : start + chunk])
                        for start in range(0, n_masks, chunk)])

    sizes = bits.sum(axis=1)
    fact = [math.factorial(i) for i in range(m + 1)]
    weight = np.array([fact[s] * fact[m - 1 - s] / fact[m] for s in range(m)])
    phi = np.empty(m, dtype=np.float64)
    all_masks = np.arange(n_masks)
    for j in range(m):
        without = all_masks[~bits[:, j]]
        phi[j] = np.dot(weight[sizes[without]], v[without | (1 << j)] - v[without])
    return Attribution(phi=phi, phi0=float(v[0]), method="exact-shap")


def shapley_mc(f, x, bg: Background, n_perms: int = 2000, seed: int = 0) -> Attribution:
    """Permutation-sampling Shapley estimate.

    Each sampled permutation contributes one telescoping chain of coalition
    values, so the estimate satisfies local accuracy exactly and a feature
    the model never reads gets a bit-exact zero.
    """
    x = np.asarray(x, dtype=np.float64)
    m = x.size
    if n_perms < 1:
        raise InvalidInputError("n_perms must be >= 1")
    rng = np.random.default_rng(seed)
    perms = rng.permuted(np.tile(np.arange(m), (n_perms, 1)), axis=1)

    phi = np.zeros(m, dtype=np.float64)
    perms_per_chunk = max(1, _BATCH_BYTES // (8 * max(m, 1) * (m + 1) * bg.size))
    for start in range(0, n_perms, perms_per_chunk):
        chunk = perms[start : start + perms_per_chunk]
        # Step s of a chain pins the first s columns of its permutation,
        # the columns whose rank in it is below s.
        pinned = np.argsort(chunk, axis=1)[:, None, :] < np.arange(m + 1)[:, None]
        v = _coalition_means(f, x, bg, pinned.reshape(-1, m)).reshape(-1, m + 1)
        np.add.at(phi, chunk.ravel(), (v[:, 1:] - v[:, :-1]).ravel())
    phi /= n_perms
    # Every chain starts from the empty coalition, so any chunk's v[0, 0] is phi0.
    return Attribution(phi=phi, phi0=float(v[0, 0]), method="mc-shap", seed=seed)


def _forest_paths(forest):
    """Root-to-leaf paths of the leaves with a positive class-1 value.

    Returns the forest's node fields (``feature``, ``threshold``, and
    ``is_cat`` as ``RandomForest.is_cat`` derives it), ``path``, the
    ``(L, D)`` node indices of each leaf's tests padded with -1 to the
    forest depth ``D``, ``went_left``, whether the path takes each node's
    left branch (to the next record), and ``v``, the leaf's class-1
    probability divided by the tree count. Leaves with ``v == 0`` add
    nothing to any Shapley value and are dropped.
    """
    nodes, starts = forest.nodes, forest.starts
    offset = np.repeat(starts[:-1], np.diff(starts))
    feature = nodes["feature"]
    # A split's left child is the next record; its right one is tree-local.
    right = nodes["right"] + offset
    value = forest.leaf_prob[:, 1] / (starts.size - 1)
    D = int(forest.depths.max())

    # Walk all trees one level at a time, extending every open path.
    node = starts[:-1]
    path = np.empty((node.size, 0), dtype=np.int64)
    went_left = np.empty((node.size, 0), dtype=bool)
    leaves, paths, lefts = [], [], []
    for d in range(D + 1):
        at_leaf = feature[node] < 0
        keep = at_leaf & (value[node] > 0.0)
        leaves.append(node[keep])
        paths.append(np.pad(path[keep], ((0, 0), (0, D - d)), constant_values=-1))
        lefts.append(np.pad(went_left[keep], ((0, 0), (0, D - d))))
        inner = ~at_leaf
        parent = node[inner]
        node = np.concatenate([parent + 1, right[parent]])
        path = np.tile(np.column_stack([path[inner], parent]), (2, 1))
        went_left = np.column_stack([
            np.tile(went_left[inner], (2, 1)), np.repeat([True, False], parent.size),
        ])
    return (feature, nodes["threshold"], forest.is_cat, np.concatenate(paths),
            np.concatenate(lefts), value[np.concatenate(leaves)])


def _distinct_masks(masks: np.ndarray):
    """Distinct fail masks under each leaf, by a row-wise sort.

    ``masks`` holds the ``(W, l, r)`` 64-bit mask words of r rows under each
    of l leaves. The G distinct (leaf, mask) pairs are numbered leaf by
    leaf. Returns the ``(l * r,)`` number of each (leaf, row) entry and, per
    distinct mask, its ``(W, G)`` words, its row count and its leaf.
    """
    W, l, r = masks.shape
    order = np.lexsort(masks, axis=-1) if W > 1 else np.argsort(masks[0], axis=-1)
    ranked = np.take_along_axis(masks, order[None], axis=-1)
    new = np.ones((l, r), dtype=bool)
    new[:, 1:] = (ranked[:, :, 1:] != ranked[:, :, :-1]).any(axis=0)
    new = new.ravel()
    number = np.empty(l * r, dtype=np.intp)
    number[(order + np.arange(0, l * r, r)[:, None]).ravel()] = np.cumsum(new) - 1
    starts = np.flatnonzero(new)
    return number, ranked.reshape(W, -1)[:, starts], np.diff(starts, append=l * r), starts // r


def shapley_forest(forest, X, bg: Background) -> tuple[np.ndarray, float]:
    """Exact interventional Shapley values of a ``RandomForest``, leaf by leaf.

    Returns the ``(n, m)`` per-row values of the rows of ``X`` and ``phi0``,
    the mean class-1 probability of the background rows. For one leaf, let
    F_x be the path features a row x fails and F_b those a background row b
    fails (a feature passes when it passes every test on it along the
    path). A hybrid row, x's values on a coalition and b's elsewhere,
    reaches the leaf for some coalition iff F_x and F_b are disjoint. The
    leaf's game is then an AND game worth v on coalitions that hold A = F_b
    (the features only x passes) and avoid C = F_x (those only b passes),
    so each j in F_b gets ``v (|A|-1)! |C|! / (|A|+|C|)!`` and each j in
    F_x gets ``-v |A|! (|C|-1)! / (|A|+|C|)!`` (Lundberg et al. 2020).

    A pair's terms thus depend only on its two fail masks. Each leaf scores
    every pair of a distinct row mask and a distinct background mask once,
    weighted by the background mask's row count, and hands the result to
    every row with that mask. No coalition row is built or scored. A column
    on which x and every b agree never enters F_x or F_b, so its value is
    exactly ``+0.0``, as is that of a feature no tree splits on.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    n, m = X.shape
    B = bg.size
    phi0 = float(_prob1(forest, bg.rows).mean())
    feature, threshold, is_cat, path, went_left, v = _forest_paths(forest)
    L, D = path.shape
    # Terms are only ever added to +0.0, so a column whose terms are all
    # zeros of either sign ends as +0.0.
    phi = np.zeros((n, m), dtype=np.float64)
    # With D == 0 every tree is a single leaf, which every hybrid row reaches.
    if D == 0 or n == 0:
        return phi, phi0

    # Weights of a disjoint pair with |A| = a and |C| = c, at a * (D + 1) + c.
    fact = [math.factorial(i) for i in range(D + 1)]
    w_in = np.zeros((D + 1) ** 2)
    w_out = np.zeros_like(w_in)
    for a in range(D + 1):
        for c in range(D + 1 - a):
            if a:
                w_in[a * (D + 1) + c] = fact[a - 1] * fact[c] / fact[a + c]
            if c:
                w_out[a * (D + 1) + c] = -fact[a] * fact[c - 1] / fact[a + c]

    ZT = np.ascontiguousarray(np.vstack([X, bg.rows]).T)
    # Every (leaves, path slots, rows) temporary of a chunk, and every
    # (path slots, mask pairs) one of a batch of its pairs, stays within
    # the budget.
    step = max(1, _TREE_CHUNK_BYTES // (8 * D * (n + B)))
    pair_cap = _TREE_CHUNK_BYTES // (8 * D)
    positions = np.arange(D)
    # Path slot s is bit s % 64 of word s // 64 of a fail mask.
    W = -(-D // 64)
    word = positions // 64
    bit = np.left_shift(np.uint64(1), (positions % 64).astype(np.uint64))
    for lo in range(0, L, step):
        p = path[lo : lo + step]
        l = p.shape[0]
        real = p >= 0
        feat = np.where(real, feature[p], 0)
        # A path feature's tests all land in one slot, the position of its
        # first test; the other positions stay empty.
        same = (feat[:, :, None] == feat[:, None, :]) & real[:, None, :]
        slot = np.where(real, np.argmax(same, axis=2), positions)
        # A test sends a row left iff low <= value <= high: a categorical
        # one on equality, a continuous one on value <= threshold. Padding
        # sends every row left and counts as a left branch, so no row fails it.
        high = np.where(real, threshold[p], np.inf)
        low = np.where(real & is_cat[p], high, -np.inf)
        vals = ZT[feat]  # (l, D, n + B)
        fails = (vals >= low[:, :, None]) & (vals <= high[:, :, None])
        del vals
        fails = fails != (went_left[lo : lo + step] | ~real)[:, :, None]
        masks = np.empty((W, l, n + B), dtype=np.uint64)
        for w in range(W):
            test_bit = np.where(word[slot] == w, bit[slot], np.uint64(0))[:, :, None]
            np.bitwise_or.reduce(np.where(fails, test_bit, np.uint64(0)), axis=1, out=masks[w])
        del fails

        # Distinct masks of the rows (u) and of the background (k).
        row_u, x_masks, _, x_leaf = _distinct_masks(masks[:, :, :n])
        _, b_masks, b_count, b_leaf = _distinct_masks(masks[:, :, n:])
        x_bits = (x_masks[word] & bit[:, None]) != 0  # (D, U)
        b_bits = ((b_masks[word] & bit[:, None]) != 0).astype(np.float64)  # (D, K)
        x_size = x_bits.sum(axis=0)
        b_cell = b_bits.sum(axis=0).astype(np.intp) * (D + 1)
        K = np.bincount(b_leaf, minlength=l)
        # Row mask u pairs with the K[leaf] background masks of its leaf;
        # pair i of a chunk is background mask i - k_off[u]. gain[s, u] is
        # what slot s earns as a member of A = F_b, loss[u] what each slot
        # of C = F_x pays, over u's disjoint pairs.
        nk = K[x_leaf]
        ends = np.cumsum(nk)
        k_off = ends - nk - (np.cumsum(K) - K)[x_leaf]
        U = x_leaf.size
        gain = np.zeros((D, U))
        loss = np.zeros(U)
        u0 = 0
        while u0 < U:
            first = ends[u0] - nk[u0]
            u1 = max(u0 + 1, int(np.searchsorted(ends, first + pair_cap, side="right")))
            reps = nk[u0:u1]
            pu = np.repeat(np.arange(u1 - u0), reps)
            pk = np.arange(first, ends[u1 - 1]) - np.repeat(k_off[u0:u1], reps)
            disjoint = (x_masks[0, u0 + pu] & b_masks[0, pk]) == 0
            for w in range(1, W):
                disjoint &= (x_masks[w, u0 + pu] & b_masks[w, pk]) == 0
            pu, pk = pu[disjoint], pk[disjoint]
            cell = b_cell[pk] + x_size[u0 + pu]
            loss[u0:u1] = np.bincount(pu, w_out[cell] * b_count[pk], minlength=u1 - u0)
            terms = b_bits[:, pk]
            terms *= w_in[cell] * b_count[pk]
            at = pu + (u1 - u0) * positions[:, None]
            gain[:, u0:u1] = np.bincount(
                at.ravel(), terms.ravel(), minlength=D * (u1 - u0)
            ).reshape(D, -1)
            u0 = u1
        contrib = ((gain + x_bits * loss) * v[lo + x_leaf]).T  # (U, D)
        owns = np.flatnonzero((slot == positions) & real)
        to_feature = np.zeros((p.size, m))
        to_feature[owns, feat.ravel()[owns]] = 1.0
        phi += contrib[row_u.reshape(l, n).T].reshape(n, -1) @ to_feature
    phi /= B
    return phi, phi0


def lime_explain(
    f,
    x,
    schema: FeatureSchema,
    n_samples: int = 1000,
    seed: int = 0,
) -> Attribution:
    """Locally weighted ridge fit around ``x`` perturbing every feature.

    Categorical features enter the linear design as match indicators
    against the query value; continuous ones enter as their raw values.
    """
    x = np.asarray(x, dtype=np.float64)
    m = len(schema.features)
    if n_samples < m + 2:
        raise InvalidInputError(
            f"n_samples={n_samples} too small for {m} features (need >= {m + 2})"
        )
    rng = np.random.default_rng(seed)
    Z = np.empty((n_samples, m), dtype=np.float64)
    for j in range(m):
        if schema.is_categorical[j]:
            Z[:, j] = rng.integers(0, schema.vocab_sizes[j], size=n_samples)
        else:
            Z[:, j] = rng.random(n_samples)

    y = _prob1(f, Z)
    d = delta_to_rows(Z, x, schema)
    kernel_width = max(0.75 * math.sqrt(max(float(d.mean()), 0.0)), 1e-9)
    w = np.exp(-(d**2) / kernel_width**2)

    A = np.empty((n_samples, m + 1), dtype=np.float64)
    for j in range(m):
        if schema.is_categorical[j]:
            A[:, j] = (Z[:, j] == x[j]).astype(np.float64)
        else:
            A[:, j] = Z[:, j]
    A[:, m] = 1.0

    G = A.T @ (w[:, None] * A)
    G[np.arange(m), np.arange(m)] += 1e-3  # ridge penalty; intercept stays unpenalized
    rhs = A.T @ (w * y)
    try:
        beta = np.linalg.solve(G, rhs)
    except np.linalg.LinAlgError as exc:
        raise FitError(f"weighted ridge system is singular: {exc}") from exc
    if not np.all(np.isfinite(beta)):
        raise FitError("weighted ridge fit produced non-finite coefficients")
    return Attribution(phi=beta[:m], phi0=float(beta[m]), method="lime", seed=seed)
