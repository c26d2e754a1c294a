"""End-to-end controllable-factor attribution.

The local pipeline: sample a balanced neighborhood of the query that holds
uncontrollable features fixed, fit a surrogate forest on the model-labeled
neighborhood, explain the surrogate row by row with Shapley values against
a background drawn from the same neighborhood, and average. The surrogate
is a forest, so its Shapley values are exact, computed leaf by leaf
(``explain.shapley_forest``). Uncontrollable features are constant across
the query, every neighborhood row, and every background row, so their
attributions are exactly zero by construction.
"""

from __future__ import annotations

import dataclasses
import numbers
from dataclasses import dataclass, field

import numpy as np

from .distance import delta_to_rows, estimate_proximity
from .errors import (
    CorrelationUndefinedError,
    ExplanationError,
    GlobalFailureError,
    InvalidInputError,
    SurrogateError,
    TrainingError,
)
from .explain import (
    EXACT_LIMIT,
    Attribution,
    Background,
    GlobalExplanation,
    derive_seed,
    global_explanation,
    shapley_exact,
    shapley_forest,
    shapley_mc,
)
from .forest import ForestParams, RandomForest, accuracy, train_forest
from .sampler import NeighborhoodSample, generate_neighborhood
from .schema import Dataset, FeatureSchema, integer, validate_instance

# Seed-derivation tags so every pipeline stage gets an independent stream.
_TAG_PROXIMITY = 0
_TAG_NEIGHBORHOOD = 1
_TAG_SURROGATE = 2
_TAG_BACKGROUND = 4
_TAG_SHAP_BG = 6
_TAG_SHAP_MC = 7
_TAG_GLOBAL = 10

SHAP_PERMS = 2000  # standard_shap's permutations beyond EXACT_LIMIT features


@dataclass(frozen=True)
class CafaConfig:
    """Knobs for one local explanation run.

    ``n_perms`` has no effect: the surrogate is always a forest and is
    explained exactly. It is still validated and recorded.
    """

    k: int = 500
    pi: float | str = "estimate"
    surrogate_params: ForestParams = field(default_factory=ForestParams)
    n_perms: int = 10
    n_locals: int | None = None
    background_size: int = 100
    max_attempts: int = 200_000
    seed: int = 0

    def __post_init__(self):
        integer(self.k, "k", 1)
        pi = self.pi
        if pi != "estimate" and (isinstance(pi, bool) or not isinstance(pi, numbers.Real)
                                 or not 0.0 < pi <= 1.0):
            raise InvalidInputError(f"pi must be a float in (0, 1] or 'estimate', got {pi!r}")
        integer(self.n_perms, "n_perms", 1)
        if self.n_locals is not None:
            integer(self.n_locals, "n_locals", 1)
        integer(self.background_size, "background_size", 1)
        integer(self.max_attempts, "max_attempts", 1)
        integer(self.seed, "seed")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class CafaResult:
    """Local explanation output with enough state to audit it.

    ``surrogate_quality`` (``surrogate_accuracy`` in reports) is the
    surrogate's accuracy on its own training neighborhood, not held-out
    fidelity: it reads near 1 even where a fresh neighborhood draw scores
    much lower."""

    attribution: Attribution
    neighborhood: NeighborhoodSample
    surrogate: RandomForest
    surrogate_quality: float
    per_row_phi: np.ndarray
    explained_rows: np.ndarray
    background: Background
    pi: float


def resolve_pi(cfg: CafaConfig, data: Dataset | None) -> float:
    if not isinstance(cfg.pi, str):
        return float(cfg.pi)
    if data is None:
        raise InvalidInputError(
            "pi='estimate' needs a training dataset to average pairwise distances over"
        )
    return estimate_proximity(data, seed=derive_seed(cfg.seed, _TAG_PROXIMITY))


def cafa_local(
    x,
    f,
    schema: FeatureSchema,
    cfg: CafaConfig | None = None,
    data: Dataset | None = None,
) -> CafaResult:
    """Explain one instance; uncontrollable features get exactly zero."""
    cfg = cfg or CafaConfig()
    x = validate_instance(schema, x)
    pi = resolve_pi(cfg, data)

    nb = generate_neighborhood(
        x,
        f,
        schema,
        pi=pi,
        k=cfg.k,
        max_attempts=cfg.max_attempts,
        seed=derive_seed(cfg.seed, _TAG_NEIGHBORHOOD),
    )

    sparams = dataclasses.replace(
        cfg.surrogate_params, seed=derive_seed(cfg.seed, _TAG_SURROGATE)
    )
    try:
        g = train_forest(nb.data, sparams)
    except TrainingError as exc:
        raise SurrogateError(
            f"surrogate training failed: {exc}", neighborhood_stats=nb.stats
        ) from exc
    quality = accuracy(g, nb.data)

    rows = nb.data.X
    n = rows.shape[0]
    n_locals = n if cfg.n_locals is None else cfg.n_locals
    if n_locals > n:
        raise InvalidInputError(f"n_locals={n_locals} exceeds neighborhood size {n}")
    if n_locals == n:
        idx = np.arange(n)
    else:
        # Explain the rows closest to the query (ties by acceptance order)
        # so a truncated average still describes the query's vicinity.
        d = delta_to_rows(rows, x, schema)
        idx = np.sort(np.lexsort((np.arange(n), d))[:n_locals])

    bg = Background.from_dataset(
        nb.data, size=cfg.background_size, seed=derive_seed(cfg.seed, _TAG_BACKGROUND)
    )
    per_row_phi, phi0 = shapley_forest(g, rows[idx], bg)
    phi = per_row_phi.mean(axis=0)
    # Holding uncontrollables fixed everywhere guarantees exact zeros there;
    # a raise, not an assert, so the check survives ``python -O``.
    unc = schema.uncontrollable_idx
    leaked = unc[phi[unc] != 0.0]
    if leaked.size:
        raise ExplanationError(
            f"uncontrollable features got nonzero attribution: "
            f"{[schema.names[j] for j in leaked]}"
        )

    return CafaResult(
        attribution=Attribution(phi=phi, phi0=phi0, method="cafa", seed=cfg.seed),
        neighborhood=nb,
        surrogate=g,
        surrogate_quality=quality,
        per_row_phi=per_row_phi,
        explained_rows=idx,
        background=bg,
        pi=pi,
    )


def standard_shap(
    x,
    f,
    schema: FeatureSchema,
    cfg: CafaConfig | None = None,
    data: Dataset | None = None,
) -> Attribution:
    """Ordinary full-model Shapley attribution (no controllability masking)
    against ``cfg.background_size`` rows drawn from ``data``. A
    ``RandomForest`` is explained exactly, leaf by leaf; any other model is
    enumerated up to ``EXACT_LIMIT`` features and sampled with
    ``SHAP_PERMS`` permutations beyond."""
    cfg = cfg or CafaConfig()
    x = validate_instance(schema, x)
    if data is None:
        raise InvalidInputError("standard shap needs a dataset to draw background rows from")
    bg = Background.from_dataset(
        data, size=cfg.background_size, seed=derive_seed(cfg.seed, _TAG_SHAP_BG)
    )
    if isinstance(f, RandomForest):
        phi, phi0 = shapley_forest(f, x, bg)
        return Attribution(phi=phi[0], phi0=phi0, method="tree-shap")
    if len(schema.features) <= EXACT_LIMIT:
        return shapley_exact(f, x, bg)
    return shapley_mc(f, x, bg, n_perms=SHAP_PERMS, seed=derive_seed(cfg.seed, _TAG_SHAP_MC))


def pearson(a, b) -> float:
    """Pearson correlation; errors out when either side has zero variance."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size != b.size or a.size < 2:
        raise InvalidInputError("correlation needs two equal-length vectors of size >= 2")
    if np.ptp(a) == 0.0 or np.ptp(b) == 0.0:
        raise CorrelationUndefinedError(
            "correlation undefined: at least one attribution vector is constant"
        )
    return float(np.corrcoef(a, b)[0, 1])


@dataclass(frozen=True)
class CompareResult:
    cafa: CafaResult
    shap: Attribution
    pearson_controllable: float


def compare_with_shap(
    x, f, schema: FeatureSchema, cfg: CafaConfig | None = None, data: Dataset | None = None
) -> CompareResult:
    """Run both attribution methods on one instance and correlate them."""
    cfg = cfg or CafaConfig()
    if schema.controllable_idx.size < 2:
        raise InvalidInputError(
            "comparison needs at least two controllable features to correlate over"
        )
    result = cafa_local(x, f, schema, cfg, data=data)
    shap = standard_shap(x, f, schema, cfg, data)
    ctrl = schema.controllable_idx
    return CompareResult(
        cafa=result,
        shap=shap,
        pearson_controllable=pearson(result.attribution.phi[ctrl], shap.phi[ctrl]),
    )


@dataclass(frozen=True)
class GlobalCafaResult(GlobalExplanation):
    """Dataset-level aggregate of per-instance runs: ``per_instance`` holds
    ``(position, CafaResult)`` pairs, ``skipped`` ``(position, message)``
    pairs, and ``pi`` the proximity threshold every instance shared."""

    per_instance: tuple
    skipped: tuple
    pi: float

    @property
    def n_explained(self) -> int:
        return self.n_instances


def cafa_global(
    xs,
    f,
    schema: FeatureSchema,
    cfg: CafaConfig | None = None,
    data: Dataset | None = None,
) -> GlobalCafaResult:
    """Explain many instances with one shared proximity threshold.

    Instances whose neighborhood cannot be balanced are skipped and
    reported; the run only fails when every instance fails.
    """
    cfg = cfg or CafaConfig()
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[0] < 1:
        raise InvalidInputError("need a non-empty 2-d matrix of instances")
    pi = resolve_pi(cfg, data)

    results = []
    skipped = []
    for i in range(xs.shape[0]):
        sub = dataclasses.replace(cfg, pi=pi, seed=derive_seed(cfg.seed, _TAG_GLOBAL, i))
        try:
            results.append((i, cafa_local(xs[i], f, schema, sub, data=data)))
        except ExplanationError as exc:
            skipped.append((i, str(exc)))
    if not results:
        raise GlobalFailureError(
            f"all {xs.shape[0]} instances failed; first failure: {skipped[0][1]}"
        )
    agg = global_explanation([r.attribution for _, r in results])
    return GlobalCafaResult(
        **vars(agg),
        per_instance=tuple(results),
        skipped=tuple(skipped),
        pi=pi,
    )
