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
every disjoint pair of distinct fail masks once, not every pair of rows.
Each split's outcome on every row is computed once per call, and fail
masks are kept in the narrowest unsigned type that holds a path's slots.

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
# Bytes per temporary of the tree explainer: a slice of the split outcome
# table, a block of leaves' fail masks and their sort order, a pair batch's
# disjointness tests and pair lists, and a leaf chunk's (rows, leaves, path
# slots) terms. The chunk, _TREE_CHUNK_BYTES // (8 * D * rows) leaves, also
# fixes the float summation order, so the output bits depend on this value.
# 4x the budget runs the benchmark's surrogates within 5% of the same time
# but peaks at 2.2-3 MiB instead of 0.8-1.2 MiB.
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

    Returns the forest's splits, its inner nodes in node order, as
    ``feature``, ``threshold`` and ``is_cat`` (as ``RandomForest.is_cat``
    derives it); ``path``, the ``(L, D)`` split numbers of each leaf's
    tests padded with -1 to the forest depth ``D``; ``went_right``, whether
    the path takes each split's right branch (False on padding); and ``v``,
    the leaf's class-1 probability divided by the tree count. Leaves with
    ``v == 0`` add nothing to any Shapley value and are dropped.
    """
    nodes, starts = forest.nodes, forest.starts
    offset = np.repeat(starts[:-1], np.diff(starts))
    feature = nodes["feature"]
    inner = feature >= 0
    # Split numbers, and -1, in the narrowest signed type that holds them.
    split = (np.cumsum(inner) - 1).astype(np.min_scalar_type(-max(1, int(inner.sum()))))
    # A split's left child is the next record; its right one is tree-local.
    right = nodes["right"] + offset
    value = forest.leaf_prob[:, 1] / (starts.size - 1)
    D = int(forest.depths.max())

    # Walk all trees one level at a time, extending every open path.
    node = starts[:-1]
    path = np.empty((node.size, 0), dtype=split.dtype)
    went_right = np.empty((node.size, 0), dtype=bool)
    leaves, paths, rights = [], [], []
    for d in range(D + 1):
        at_leaf = ~inner[node]
        keep = at_leaf & (value[node] > 0.0)
        leaves.append(node[keep])
        paths.append(np.pad(path[keep], ((0, 0), (0, D - d)), constant_values=-1))
        rights.append(np.pad(went_right[keep], ((0, 0), (0, D - d))))
        parent = node[~at_leaf]
        node = np.concatenate([parent + 1, right[parent]])
        path = np.tile(np.column_stack([path[~at_leaf], split[parent]]), (2, 1))
        went_right = np.column_stack([
            np.tile(went_right[~at_leaf], (2, 1)), np.repeat([False, True], parent.size),
        ])
    return (feature[inner], nodes["threshold"][inner], forest.is_cat[inner],
            np.concatenate(paths), np.concatenate(rights), value[np.concatenate(leaves)])


def _split_outcomes(feature, threshold, is_cat, Z: np.ndarray) -> np.ndarray:
    """Whether each row of ``Z`` takes each split's right branch.

    A test sends a row left iff low <= value <= high: a categorical one on
    equality, a continuous one on value <= threshold. Returns split s's bits
    in row s, packed eight rows to a byte (little bit order), then an
    all-zero row, which path padding (-1) reads.
    """
    S, R = feature.size, Z.shape[0]
    ZT = np.ascontiguousarray(Z.T)
    out = np.zeros((S + 1, -(-R // 8)), dtype=np.uint8)
    step = max(1, _TREE_CHUNK_BYTES // (8 * R))
    for lo in range(0, S, step):
        sl = slice(lo, min(lo + step, S))
        high = threshold[sl, None].astype(np.float64)
        low = np.where(is_cat[sl, None], high, -np.inf)
        vals = ZT[feature[sl]]
        out[sl] = np.packbits(~((vals >= low) & (vals <= high)), axis=1, bitorder="little")
    return out


def _fail_masks(outcome, path, went_right, feat, R, dtype):
    """Fail masks of R rows under each of l leaves, and each path position's slot.

    A path feature's tests all land in one slot, the position of its first
    test; padding keeps its own, empty, position. Bit s % 64 of word s // 64
    of a row's mask is set iff the row fails a test in slot s. Returns the
    ``(W, l, R)`` masks, words of ``dtype``, and the ``(l, D)`` slots.
    """
    l, D = path.shape
    real = feat >= 0
    first = np.argmax((feat[:, :, None] == feat[:, None, :]) & real[:, None, :], axis=2)
    slot = np.where(real, first, np.arange(D))
    masks = np.zeros((-(-D // 64), l, R), dtype=dtype)
    word, bit = slot // 64, (slot % 64).astype(dtype)
    for d in range(D):
        fail = np.unpackbits(outcome[path[:, d]], axis=1, count=R, bitorder="little")
        fail ^= went_right[:, d, None].view(np.uint8)
        fail = fail.astype(dtype)
        fail <<= bit[:, d, None]
        if masks.shape[0] == 1:
            masks[0] |= fail
        else:
            for w in range(masks.shape[0]):
                np.bitwise_or(masks[w], fail, out=masks[w], where=word[:, d, None] == w)
    return masks, slot


def _mask_bits(masks: np.ndarray, D: int) -> np.ndarray:
    """``(G, D)`` slot bits, 0 or 1, of the ``(W, G)`` mask words of G masks."""
    words = np.ascontiguousarray(masks.T, dtype=masks.dtype.newbyteorder("<"))
    return np.unpackbits(words.view(np.uint8), axis=1, count=D, bitorder="little")


def _first_of_run(ranked: np.ndarray) -> np.ndarray:
    """``(l, r)``: whether each of a leaf's sorted masks, ``(W, l, r)``
    words, differs from the one before it."""
    new = np.ones(ranked.shape[1:], dtype=bool)
    new[:, 1:] = (ranked[:, :, 1:] != ranked[:, :, :-1]).any(axis=0)
    return new


def _leaf_of(new: np.ndarray) -> np.ndarray:
    """The leaf of each distinct mask that ``_first_of_run`` marks."""
    l = new.shape[0]
    return np.repeat(np.arange(l, dtype=np.min_scalar_type(l)), new.sum(axis=1))


def _number_masks(masks: np.ndarray):
    """Distinct fail masks under each leaf, numbered by a row-wise sort.

    ``masks`` holds the ``(W, l, r)`` mask words of r rows under each of l
    leaves. The G distinct (leaf, mask) pairs are numbered leaf by leaf, in
    increasing mask order. Returns the ``(l, r)`` number of each (leaf,
    row) entry, and each distinct mask's ``(W, G)`` words and its leaf.
    """
    W, l, r = masks.shape
    order = np.lexsort(masks, axis=-1) if W > 1 else np.argsort(masks[0], axis=-1, kind="stable")
    ranked = np.take_along_axis(masks, order[None], axis=-1)
    new = _first_of_run(ranked)
    rank = np.cumsum(new, dtype=np.min_scalar_type(l * r)).reshape(l, r)
    rank -= 1
    number = np.empty_like(rank)
    np.put_along_axis(number, order, rank, axis=1)
    return number, ranked[:, new], _leaf_of(new)


def _count_masks(masks: np.ndarray):
    """Distinct fail masks under each leaf, in increasing order.

    Returns each distinct mask's ``(W, K)`` words, the number of rows that
    have it, and its leaf.
    """
    W, l, r = masks.shape
    if W == 1:
        ranked = np.sort(masks, axis=-1, kind="stable")
    else:
        ranked = np.take_along_axis(masks, np.lexsort(masks, axis=-1)[None], axis=-1)
    new = _first_of_run(ranked)
    count = np.add.reduceat(np.ones(l * r, dtype=np.min_scalar_type(r)), np.flatnonzero(new))
    return ranked[:, new], count, _leaf_of(new)


def _pair_sums(x_masks, x_size, x_leaf, bg_side, weights):
    """What row masks gain and lose over their disjoint background masks.

    ``bg_side`` holds a block's background masks: their words padded per
    leaf, ``(W, l, kmax)``, the count and first number of each leaf's
    masks, and per mask its ``(W, K)`` words, ``|A| * (D + 1)`` and row
    count. Row mask u pairs with each disjoint background mask of its leaf,
    in increasing mask order, and ``weights[:, |A|, |C|]`` weighs the pair.
    Returns ``gain``, ``(U, D)``, what slot s earns as a member of A = F_b,
    and ``loss``, ``(U,)``, what each slot of C = F_x pays, each summed
    over u's pairs in that order.
    """
    padded, K, k_off, b_masks, b_cell, b_count = bg_side
    U, D = x_size.size, weights.shape[2] - 1
    w_in, w_out = weights.reshape(2, -1)
    ok = np.arange(padded.shape[2]) < K[x_leaf, None]
    for w in range(padded.shape[0]):
        ok &= (x_masks[w, :, None] & padded[w, x_leaf]) == 0
    pu, pk = np.divmod(np.flatnonzero(ok), ok.shape[1])
    del ok
    pk += k_off[x_leaf[pu]]
    cell = b_cell[pk] + x_size[pu]
    count = b_count[pk]
    loss = np.bincount(pu, w_out[cell] * count, minlength=U)
    weight = w_in[cell] * count
    pair_masks = b_masks[:, pk]
    gain = np.empty((U, D))
    for s in range(D):
        bit = (pair_masks[s // 64] >> (s % 64)) & 1
        gain[:, s] = np.bincount(pu, weight * bit, minlength=U)
    return gain, loss


def _cuts(cost: np.ndarray, cap: int) -> list:
    """Cut items into runs of at least one item, each costing at most
    ``cap`` if it can; ``cost`` is the cumulative cost, from 0."""
    cuts = [0]
    while cuts[-1] < cost.size - 1:
        end = int(np.searchsorted(cost, cost[cuts[-1]] + cap, side="right")) - 1
        cuts.append(max(cuts[-1] + 1, end))
    return cuts


def _add_block(phi, masks, slot, feat, v, n, step, weights):
    """Add the terms of a block of whole chunks of leaves to ``phi``.

    Distinct masks are numbered, and their disjoint pairs listed, over the
    block; each chunk's terms go into ``phi`` as one product.
    """
    W, l, R = masks.shape
    D, m = slot.shape[1], phi.shape[1]
    row_u, x_masks, x_leaf = _number_masks(masks[:, :, :n])
    b_masks, b_count, b_leaf = _count_masks(masks[:, :, n:])
    K = np.bincount(b_leaf, minlength=l)
    k_off = np.cumsum(K) - K
    padded = np.zeros((W, l, int(K.max())), dtype=b_masks.dtype)
    padded[:, b_leaf, np.arange(b_leaf.size) - k_off[b_leaf]] = b_masks
    del b_leaf
    b_cell = _mask_bits(b_masks, D).sum(axis=1, dtype=np.min_scalar_type((D + 1) ** 2))
    b_cell *= D + 1
    bg_side = padded, K, k_off, b_masks, b_cell, b_count

    # What one row mask of each leaf costs a batch: its padded pair tests,
    # its slot sums and its pair lists. A group of whole chunks is one
    # batch within the budget, or one chunk in several.
    u_cost = padded.shape[2] * (W * padded.itemsize + 1) + 8 * D + 8 * K
    chunk_at = np.arange(0, l + step, step).clip(max=l)
    u_at = np.searchsorted(x_leaf, chunk_at).tolist()
    cost = np.concatenate([[0], np.cumsum(np.bincount(x_leaf, minlength=l) * u_cost)])
    groups = _cuts(cost[chunk_at], _TREE_CHUNK_BYTES)
    owns = (slot == np.arange(D)) & (feat >= 0)
    for c, c1 in zip(groups, groups[1:]):
        ua, ub = u_at[c], u_at[c1]
        cuts = [ua + i for i in _cuts(np.concatenate([[0], np.cumsum(u_cost[x_leaf[ua:ub]])]),
                                      _TREE_CHUNK_BYTES)]
        x_bits = _mask_bits(x_masks[:, ua:ub], D)
        x_size = x_bits.sum(axis=1)
        sums = [_pair_sums(x_masks[:, a:b], x_size[a - ua : b - ua], x_leaf[a:b], bg_side, weights)
                for a, b in zip(cuts, cuts[1:])]
        contrib, loss = sums[0] if len(sums) == 1 else map(np.concatenate, zip(*sums))
        del sums
        contrib += x_bits * loss[:, None]
        contrib *= v[x_leaf[ua:ub], None]
        for lo in range(c * step, min(l, c1 * step), step):
            hi = min(l, lo + step)
            at = np.flatnonzero(owns[lo:hi])
            to_feature = np.zeros(((hi - lo) * D, m))
            to_feature[at, feat[lo:hi].ravel()[at]] = 1.0
            phi += contrib[row_u[lo:hi].T - ua].reshape(n, -1) @ to_feature


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
    every disjoint pair of a distinct row mask and a distinct background
    mask once, weighted by the background mask's row count, and hands the
    result to every row with that mask. No coalition row is built or
    scored. A column on which x and every b agree never enters F_x or F_b,
    so its value is exactly ``+0.0``, as is that of a feature no tree
    splits on.

    Integer work is shared: each split's outcome on every row of ``X`` and
    the background is computed once per call, and distinct masks are
    numbered, and their disjoint pairs listed, once per block of leaves.
    Float work is not: the terms of each chunk of leaves go into the result
    as one matrix product, so the chunk boundaries, set by
    ``_TREE_CHUNK_BYTES``, fix the summation order and the output bits.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    n, m = X.shape
    B = bg.size
    phi0 = float(_prob1(forest, bg.rows).mean())
    feature, threshold, is_cat, path, went_right, v = _forest_paths(forest)
    L, D = path.shape
    # Terms are only ever added to +0.0, so a column whose terms are all
    # zeros of either sign ends as +0.0.
    phi = np.zeros((n, m), dtype=np.float64)
    # With D == 0 every tree is a single leaf, which every hybrid row reaches.
    if D == 0 or n == 0:
        return phi, phi0

    # Weights of a disjoint pair with |A| = a and |C| = c: [0, a, c] for
    # each slot of A, [1, a, c] for each slot of C.
    fact = [math.factorial(i) for i in range(D + 1)]
    weights = np.zeros((2, D + 1, D + 1))
    for a in range(D + 1):
        for c in range(D + 1 - a):
            if a:
                weights[0, a, c] = fact[a - 1] * fact[c] / fact[a + c]
            if c:
                weights[1, a, c] = -fact[a] * fact[c - 1] / fact[a + c]

    R = n + B
    outcome = _split_outcomes(feature, threshold, is_cat, np.vstack([X, bg.rows]))
    feature = np.append(feature, -1)  # padding reads feature -1 and outcome's zero row
    # Fail mask words: the narrowest unsigned type that holds min(D, 64) bits.
    dtype = np.min_scalar_type((1 << min(D, 64)) - 1)
    # A chunk's terms go into phi as one product, so chunk boundaries fix
    # the float summation order. A block of whole chunks shares the integer
    # work; its fail masks, their sort order and its slot tests stay within
    # the budget.
    step = max(1, _TREE_CHUNK_BYTES // (8 * D * R))
    per_leaf = max(-(-D // 64) * dtype.itemsize * R, 8 * max(n, B), D * D)
    block = step * max(1, _TREE_CHUNK_BYTES // (per_leaf * step))
    for lo in range(0, L, block):
        p = path[lo : lo + block]
        feat = feature[p]
        masks, slot = _fail_masks(outcome, p, went_right[lo : lo + block], feat, R, dtype)
        _add_block(phi, masks, slot, feat, v[lo : lo + block], n, step, weights)
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
