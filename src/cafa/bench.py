"""Synthetic benchmark datasets with planted, documented signal.

Three families:

* :func:`generate_synth` builds a generic mixed-type dataset from a
  :class:`SynthSpec` with a linear-threshold label rule and optional label
  noise, for controlled correctness experiments.
* :func:`covid_preset` simulates regional epidemic trajectories with
  feedback-driven containment measures. Labels encode whether case load
  keeps growing; by construction the strongest drivers are the two planted
  top measures (contact restrictions, then public-event bans), while case
  counts, deaths, weather and region are observational context.
* :func:`lung_preset` and :func:`breast_rows` mimic the shape of two
  clinical tables (28 and 9 features); values are simulated but the
  schemas, arities and class balance match the originals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .schema import Dataset, Feature, FeatureSchema, IngestionSpec


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a generic synthetic dataset.

    ``kinds`` holds one entry per feature: the string ``"cont"`` or an int
    vocabulary size. Uncontrollable features come first, named ``u0..``,
    then controllable ones named ``c0..``. The label is 1 where a weighted
    sum of (normalized) rule features exceeds its median, then flipped with
    probability ``noise``.
    """

    m_controllable: int
    m_uncontrollable: int
    n_rows: int
    seed: int = 0
    kinds: tuple | None = None
    rule_features: tuple | None = None
    rule_weights: tuple | None = None
    noise: float = 0.0

    def __post_init__(self):
        if self.m_controllable < 0 or self.m_uncontrollable < 0:
            raise InvalidInputError("feature counts must be >= 0")
        if self.m_controllable + self.m_uncontrollable < 1:
            raise InvalidInputError("need at least one feature")
        if self.n_rows < 1:
            raise InvalidInputError("n_rows must be >= 1")
        if self.seed < 0:
            raise InvalidInputError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.noise < 0.5:
            raise InvalidInputError(f"noise must be in [0, 0.5), got {self.noise}")
        m = self.m_controllable + self.m_uncontrollable
        if self.kinds is not None:
            if len(self.kinds) != m:
                raise InvalidInputError(f"kinds must list all {m} features")
            for k in self.kinds:
                if k != "cont" and (not isinstance(k, int) or k < 2):
                    raise InvalidInputError(f"kind must be 'cont' or an int >= 2, got {k!r}")
        if self.rule_features is not None:
            if len(self.rule_features) < 1:
                raise InvalidInputError("rule must use at least one feature")
            for j in self.rule_features:
                if isinstance(j, bool) or not isinstance(j, (int, np.integer)):
                    raise InvalidInputError(f"rule feature index must be an integer, got {j!r}")
                if not 0 <= j < m:
                    raise InvalidInputError(f"rule feature index {j} out of range")
        if self.rule_weights is not None:
            ref = self.rule_features if self.rule_features is not None else range(m)
            if len(self.rule_weights) != len(tuple(ref)):
                raise InvalidInputError("rule_weights must match rule_features in length")

    @property
    def m(self) -> int:
        return self.m_controllable + self.m_uncontrollable


_DEFAULT_KIND_CYCLE = ("cont", 3, "cont", 5)


def _feature(name: str, kind, controllable: bool) -> Feature:
    """A ``"cont"`` feature, or for an int ``kind`` a categorical one coded "0".."kind-1"."""
    if kind == "cont":
        return Feature(name, "cont", controllable)
    return Feature(name, "cat", controllable, vocabulary=tuple(str(c) for c in range(kind)))


def synth_schema(spec: SynthSpec) -> FeatureSchema:
    kinds = spec.kinds or tuple(
        _DEFAULT_KIND_CYCLE[i % len(_DEFAULT_KIND_CYCLE)] for i in range(spec.m)
    )
    features = []
    for i, k in enumerate(kinds):
        controllable = i >= spec.m_uncontrollable
        name = f"{'c' if controllable else 'u'}{i - spec.m_uncontrollable if controllable else i}"
        features.append(_feature(name, k, controllable))
    return FeatureSchema(tuple(features))


def generate_synth(spec: SynthSpec) -> Dataset:
    """Deterministic dataset for a spec; same spec, same bytes."""
    schema = synth_schema(spec)
    rng = np.random.default_rng(spec.seed)
    n, m = spec.n_rows, spec.m
    X = np.empty((n, m), dtype=np.float64)
    for j in range(m):
        if schema.is_categorical[j]:
            X[:, j] = rng.integers(0, schema.vocab_sizes[j], size=n)
        else:
            X[:, j] = rng.random(n)

    rule = np.asarray(
        spec.rule_features if spec.rule_features is not None else range(m), dtype=np.intp
    )
    weights = np.asarray(
        spec.rule_weights if spec.rule_weights is not None else np.ones(rule.size),
        dtype=np.float64,
    )
    score = np.zeros(n, dtype=np.float64)
    for w, j in zip(weights, rule):
        if schema.is_categorical[j]:
            size = schema.vocab_sizes[j]
            score += w * (X[:, j] / (size - 1) if size > 1 else 0.0)
        else:
            score += w * X[:, j]
    y = (score > np.median(score)).astype(np.int64)
    if spec.noise > 0.0:
        flip = rng.random(n) < spec.noise
        y = np.where(flip, 1 - y, y)
    return Dataset.from_normalized(schema, X, y)


def train_test_split(data: Dataset, test_fraction: float = 0.3, seed: int = 0):
    """Seeded row split preserving nothing but proportion; returns (train, test)."""
    if not 0.0 < test_fraction < 1.0:
        raise InvalidInputError("test_fraction must be in (0, 1)")
    n = data.n_rows
    n_test = max(1, int(round(n * test_fraction)))
    if n_test >= n:
        raise InvalidInputError("split leaves no training rows")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    test_idx = np.sort(perm[:n_test])
    train_idx = np.sort(perm[n_test:])
    mk = lambda idx: Dataset(
        schema=data.schema,
        X=data.X[idx],
        y=data.y[idx],
        norm_params=data.norm_params,
        label_values=data.label_values,
    )
    return mk(train_idx), mk(test_idx)


# ---------------------------------------------------------------------------
# Epidemic-policy preset: 12 regions x 328 days = 3,936 rows, 17 features.
# ---------------------------------------------------------------------------

_N_REGIONS = 12
_N_DAYS = 328

# Containment measures. Two-level measures carry codes 0 (off),
# 1-4 (moderate, by active-duration bucket), 5-8 (hard, same buckets).
# Binary measures use codes 0 (off) and 1-4 (duration buckets).
_TWO_LEVEL = ("mask_indoor", "mask_outdoor", "home_visits", "contact_restr", "public_ban", "school_limit")
_BINARY = ("shop_closure", "daycare_closure", "industry_closure", "night_curfew")
_MEASURES = _TWO_LEVEL + _BINARY

# Planted effect sizes: contact restrictions strongest, public-event bans
# second, everything else clearly below.
_MEASURE_EFFECT = {
    "contact_restr": 1.7,
    "public_ban": 1.15,
    "home_visits": 0.42,
    "school_limit": 0.34,
    "mask_indoor": 0.30,
    "shop_closure": 0.28,
    "night_curfew": 0.24,
    "mask_outdoor": 0.18,
    "daycare_closure": 0.16,
    "industry_closure": 0.12,
}
# Activation thresholds on the smoothed load signal; lower threshold means
# the measure is active more often.
_MEASURE_THRESHOLD = {
    "contact_restr": (0.42, 0.86),
    "public_ban": (0.50, 0.98),
    "home_visits": (0.58, 1.10),
    "school_limit": (0.66, 1.22),
    "mask_indoor": (0.38, 0.90),
    "shop_closure": (0.72, 1.30),
    "night_curfew": (0.80, 1.40),
    "mask_outdoor": (0.62, 1.18),
    "daycare_closure": (0.76, 1.34),
    "industry_closure": (0.88, 1.50),
}


def _duration_bucket(days_active: int) -> int:
    """1: 1-5 days, 2: 6-15, 3: 16-30, 4: >30. 0 means inactive."""
    if days_active <= 0:
        return 0
    if days_active <= 5:
        return 1
    if days_active <= 15:
        return 2
    if days_active <= 30:
        return 3
    return 4


# Longer-running measures bite harder, saturating after a month.
_BUCKET_RAMP = np.array([0.0, 0.45, 0.7, 0.88, 1.0])


def _measure_strength(name: str, code: int) -> float:
    if code == 0:
        return 0.0
    if name in _TWO_LEVEL:
        hard = code > 4
        bucket = code - 4 if hard else code
        return (1.0 if hard else 0.55) * _BUCKET_RAMP[bucket]
    return _BUCKET_RAMP[code]


def covid_schema() -> FeatureSchema:
    two_level = ("0", "M1", "M2", "M3", "M4", "H1", "H2", "H3", "H4")
    features = [Feature(name, "cat", True, vocabulary=two_level) for name in _TWO_LEVEL]
    features += [_feature(name, 5, True) for name in _BINARY]
    features += [
        Feature(name, "cont", False)
        for name in ("cases", "cum_cases", "deaths", "tests", "temperature", "humidity")
    ]
    regions = tuple(f"R{i}" for i in range(_N_REGIONS))
    features.append(Feature("region", "cat", False, vocabulary=regions))
    return FeatureSchema(tuple(features))


def covid_preset(seed: int = 0) -> Dataset:
    """Simulated regional epidemic with policy feedback.

    Each region runs _N_DAYS days. A latent case-load signal follows
    seasonal waves plus an AR(1) shock; measures switch on and off with
    hysteresis as the smoothed load crosses per-measure thresholds, and
    harden when the load is high. The label says whether transmission
    pressure stays above the critical point, and active measures push it
    down with the planted effect sizes.
    """
    schema = covid_schema()
    rng = np.random.default_rng(seed)
    names = schema.names
    col = {n: i for i, n in enumerate(names)}
    n = _N_REGIONS * _N_DAYS
    raw = np.zeros((n, len(names)), dtype=np.float64)
    score = np.zeros(n, dtype=np.float64)

    t = np.arange(_N_DAYS, dtype=np.float64)
    for r in range(_N_REGIONS):
        rows = slice(r * _N_DAYS, (r + 1) * _N_DAYS)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        pop = rng.uniform(0.6, 1.7)
        wave = 0.55 + 0.45 * np.sin(2.0 * np.pi * t / 164.0 + phase)
        shock = np.empty(_N_DAYS)
        shock[0] = rng.normal(0.0, 0.3)
        eps = rng.normal(0.0, 0.22, size=_N_DAYS)
        for i in range(1, _N_DAYS):
            shock[i] = 0.93 * shock[i - 1] + eps[i]
        load = wave * np.exp(0.5 * shock)

        # Policy reacts to a lagged moving average of the load, with a
        # slowly wandering per-measure bias so decisions are not a clean
        # threshold function of the load (governments are noisy).
        ema = np.empty(_N_DAYS)
        ema[0] = load[0]
        for i in range(1, _N_DAYS):
            ema[i] = 0.82 * ema[i - 1] + 0.18 * load[i - 1]

        jitter = {name: rng.normal(0.0, 0.05) for name in _MEASURES}
        wobble = {}
        for name in _MEASURES:
            w = np.empty(_N_DAYS)
            w[0] = rng.normal(0.0, 0.55)
            we = rng.normal(0.0, 0.24, size=_N_DAYS)
            for i in range(1, _N_DAYS):
                w[i] = 0.9 * w[i - 1] + we[i]
            wobble[name] = w
        active_days = {name: 0 for name in _MEASURES}
        codes = {name: np.zeros(_N_DAYS, dtype=np.int64) for name in _MEASURES}
        strength = np.zeros(_N_DAYS)
        for i in range(_N_DAYS):
            day_strength = 0.0
            for name in _MEASURES:
                on_thr, hard_thr = _MEASURE_THRESHOLD[name]
                on_thr += jitter[name]
                signal = ema[i] + wobble[name][i]
                if active_days[name] > 0:
                    # Hysteresis: stay on until the load drops well below.
                    on = signal > 0.8 * on_thr
                else:
                    on = signal > on_thr
                active_days[name] = active_days[name] + 1 if on else 0
                bucket = _duration_bucket(active_days[name])
                if name in _TWO_LEVEL:
                    hard = on and signal > hard_thr + jitter[name]
                    code = bucket + (4 if hard else 0) if on else 0
                else:
                    code = bucket
                codes[name][i] = code
                day_strength += _MEASURE_EFFECT[name] * _measure_strength(name, code)
            strength[i] = day_strength

        # Case counts are reported per capita, so they track the latent
        # load closely and the model can read the epidemic state off them.
        cases = load * np.exp(rng.normal(0.0, 0.15, size=_N_DAYS))
        cum = np.cumsum(cases)
        deaths = 0.018 * pop * np.concatenate([np.full(12, cases[0]), cases[:-12]])
        deaths *= np.exp(rng.normal(0.0, 0.5, size=_N_DAYS))
        tests = pop * (25.0 + 0.08 * t) * np.exp(rng.normal(0.0, 0.1, size=_N_DAYS))
        temperature = 11.0 + 8.5 * np.sin(2.0 * np.pi * (t - 25.0) / 365.0) + rng.normal(
            0.0, 1.6, size=_N_DAYS
        )
        humidity = 78.0 - 1.1 * (temperature - 11.0) + rng.normal(0.0, 5.0, size=_N_DAYS)

        for name in _MEASURES:
            raw[rows, col[name]] = codes[name]
        raw[rows, col["cases"]] = cases
        raw[rows, col["cum_cases"]] = cum
        raw[rows, col["deaths"]] = deaths
        raw[rows, col["tests"]] = tests
        raw[rows, col["temperature"]] = temperature
        raw[rows, col["humidity"]] = humidity
        raw[rows, col["region"]] = r

        # Transmission pressure: epidemic state pushes up, measures push
        # down, weather modulates weakly. The state is observable through
        # the cases column, so held-out context explains the residual.
        score[rows] = (
            0.45 * (load - load.mean())
            - 1.15 * strength
            - 0.028 * (temperature - 11.0)
            + 0.004 * (humidity - 78.0)
            + rng.normal(0.0, 0.32, size=_N_DAYS)
            + rng.normal(0.0, 0.08)
        )

    y = (score > np.median(score)).astype(np.int64)

    X = np.empty_like(raw)
    norm_params = []
    for j, name in enumerate(names):
        if schema.is_categorical[j]:
            X[:, j] = raw[:, j]
            norm_params.append(None)
        else:
            lo, hi = float(raw[:, j].min()), float(raw[:, j].max())
            X[:, j] = (raw[:, j] - lo) / (hi - lo)
            norm_params.append((lo, hi))
    return Dataset(schema=schema, X=X, y=y, norm_params=tuple(norm_params))


# ---------------------------------------------------------------------------
# Lung-like preset: 2,242 rows, 28 features (4 uncontrollable).
# ---------------------------------------------------------------------------

_LUNG_FEATURES = (
    # (name, kind spec, controllable)
    ("age", "cont", False),
    ("sex", 2, False),
    ("ethnicity", 6, False),
    ("height", "cont", False),
    ("weight", "cont", True),
    ("morphology", 8, True),
    ("grade", 4, True),
    ("t_stage", 5, True),
    ("n_stage", 4, True),
    ("m_stage", 3, True),
    ("laterality", 3, True),
    ("performance", 5, True),
    ("cns_status", 4, True),
    ("ace_comorbidity", 4, True),
    ("cancer_plan", 4, True),
    ("clinical_trial", 3, True),
    ("regimen", 9, True),
    ("admin_route", 3, True),
    ("dose_intensity", "cont", True),
    ("cycle_number", "cont", True),
    ("time_delay", 2, True),
    ("regimen_outcome", 4, True),
    ("stopped_early", 2, True),
    ("chemo_radiation", 2, True),
    ("delay_days", "cont", True),
    ("supportive_care", 3, True),
    ("followup_visits", "cont", True),
    ("prior_regimens", 4, True),
)

_LUNG_ROWS = 2242


def lung_schema() -> FeatureSchema:
    return FeatureSchema(_feature(*entry) for entry in _LUNG_FEATURES)


def lung_preset(seed: int = 0) -> Dataset:
    """Treatment-outcome style table; label is planted one-year survival."""
    schema = lung_schema()
    rng = np.random.default_rng(seed)
    n = _LUNG_ROWS
    m = len(schema.features)
    X = np.empty((n, m), dtype=np.float64)
    for j in range(m):
        if schema.is_categorical[j]:
            size = schema.vocab_sizes[j]
            # Skewed draws so codes are not uniform, as in registry data.
            w = 1.0 / (1.0 + np.arange(size, dtype=np.float64))
            X[:, j] = rng.choice(size, size=n, p=w / w.sum())
        else:
            X[:, j] = rng.beta(2.2, 2.8, size=n)

    idx = {f.name: i for i, f in enumerate(schema.features)}
    arity = lambda name: schema.vocab_sizes[idx[name]]
    frac = lambda name: X[:, idx[name]] / (arity(name) - 1)
    score = (
        -1.1 * frac("t_stage")
        - 0.9 * frac("n_stage")
        - 1.3 * frac("m_stage")
        - 0.8 * frac("grade")
        - 0.7 * frac("performance")
        + 0.6 * X[:, idx["dose_intensity"]]
        + 0.5 * frac("regimen_outcome")
        - 0.4 * frac("stopped_early")
        + 0.3 * X[:, idx["cycle_number"]]
        - 0.35 * X[:, idx["age"]]
        + 0.2 * X[:, idx["weight"]]
        + rng.normal(0.0, 0.45, size=n)
    )
    y = (score > np.median(score)).astype(np.int64)
    return Dataset.from_normalized(schema, X, y)


# ---------------------------------------------------------------------------
# Breast-recurrence style table: 286 rows, 9 categorical features.
# ---------------------------------------------------------------------------

_BREAST_COLUMNS = (
    # (name, vocabulary, controllable)
    ("age", ("20", "30", "40", "50", "60", "70"), False),
    ("menopause", ("0", "1", "2"), False),
    ("tumor_size", tuple(str(i) for i in range(12)), True),
    ("inv_nodes", tuple(str(i) for i in range(13)), True),
    ("node_caps", ("0", "1"), True),
    ("deg_malig", ("1", "2", "3"), True),
    ("breast", ("0", "1"), True),
    ("breast_quad", ("0", "1", "2", "3", "4"), True),
    ("irradiat", ("0", "1"), True),
)

_BREAST_ROWS_TOTAL = 286
_BREAST_POSITIVES = 85


def breast_ingestion_spec() -> IngestionSpec:
    """Column spec with closed vocabularies for the 286-row table."""
    cols = (Feature(name, "cat", ctrl, vocabulary=vocab) for name, vocab, ctrl in _BREAST_COLUMNS)
    return IngestionSpec(label="class", columns=tuple(cols))


def breast_rows(seed: int = 7) -> tuple:
    """(header, rows) for the recurrence table, with a few missing cells.

    Deterministic simulation matching the published table's shape: 286
    rows, 85 recurrence cases, age and menopause outside the treatment
    team's control but genuinely predictive (younger, premenopausal
    patients recur more often here), so an unconstrained explainer must
    attribute to them.
    """
    rng = np.random.default_rng(seed)
    n = _BREAST_ROWS_TOTAL

    age = rng.choice(6, size=n, p=[0.01, 0.13, 0.31, 0.33, 0.20, 0.02])
    menopause = np.where(
        age <= 2,
        np.where(rng.random(n) < 0.92, 0, 1),
        np.where(rng.random(n) < 0.85, 2, np.where(rng.random(n) < 0.5, 1, 0)),
    )
    deg_malig = rng.choice(3, size=n, p=[0.23, 0.45, 0.32]) + 1
    tumor_size = np.clip(np.round(rng.normal(4.6 + 0.7 * (deg_malig - 1), 2.1)), 0, 11).astype(
        np.int64
    )
    inv_raw = rng.geometric(0.42, size=n) - 1
    inv_nodes = np.clip(inv_raw + (deg_malig == 3), 0, 12).astype(np.int64)
    node_caps = (rng.random(n) < 0.04 + 0.09 * np.minimum(inv_nodes, 6)).astype(np.int64)
    breast = rng.integers(0, 2, size=n)
    breast_quad = rng.choice(5, size=n, p=[0.34, 0.38, 0.12, 0.08, 0.08])
    irradiat = (rng.random(n) < 0.08 + 0.06 * np.minimum(inv_nodes, 8)).astype(np.int64)

    score = (
        1.0 * (deg_malig == 3)
        + 0.3 * (deg_malig == 2)
        + 0.17 * inv_nodes
        + 0.09 * tumor_size
        + 0.75 * node_caps
        + 0.55 * (age <= 1)
        + 0.25 * (age == 2)
        + 0.4 * (menopause == 0)
        - 0.3 * irradiat
        + 0.12 * (breast_quad == 0)
        + rng.normal(0.0, 0.6, size=n)
    )
    order = np.argsort(-score, kind="stable")
    y = np.zeros(n, dtype=np.int64)
    y[order[:_BREAST_POSITIVES]] = 1

    cols = {
        "age": np.array(("20", "30", "40", "50", "60", "70"))[age],
        "menopause": menopause.astype(str),
        "tumor_size": tumor_size.astype(str),
        "inv_nodes": inv_nodes.astype(str),
        "node_caps": node_caps.astype(str),
        "deg_malig": deg_malig.astype(str),
        "breast": breast.astype(str),
        "breast_quad": breast_quad.astype(str),
        "irradiat": irradiat.astype(str),
    }
    header = [name for name, _, _ in _BREAST_COLUMNS] + ["class"]
    rows = []
    missing_node_caps = set(rng.choice(n, size=8, replace=False).tolist())
    missing_quad = set(rng.choice(n, size=1, replace=False).tolist())
    for i in range(n):
        row = [cols[name][i] for name, _, _ in _BREAST_COLUMNS]
        if i in missing_node_caps:
            row[4] = "?"
        if i in missing_quad:
            row[7] = "?"
        rows.append(row + [str(y[i])])
    return header, rows


def write_breast_csv(path, seed: int = 7) -> None:
    import csv

    header, rows = breast_rows(seed)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
