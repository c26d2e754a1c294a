"""Feature metadata, dataset representation, and CSV ingestion.

The whole toolkit works on a normalized representation: every instance is a
float vector with one entry per schema feature. Categorical entries hold the
index of the category in the feature's vocabulary; continuous entries are
min-max scaled into [0, 1]. Ingestion produces this representation once and
records the scaling parameters so raw query values can be encoded later.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import re
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import CafaError, IngestionError, InvalidInputError, ModelFormatError

MISSING_CELL = "?"
_DECIMAL = re.compile(r"[+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)([eE][+-]?[0-9]+)?")


def string_list(values, what: str) -> tuple[str, ...]:
    """A non-empty JSON list of distinct strings or numbers, read as strings."""
    if not isinstance(values, (list, tuple)) or not all(
        isinstance(v, (str, numbers.Real)) and not isinstance(v, bool) for v in values
    ):
        raise InvalidInputError(f"{what} must be a list of strings or numbers, got {values!r}")
    values = tuple(str(v) for v in values)
    if not values:
        raise InvalidInputError(f"{what} must be non-empty")
    if len(set(values)) != len(values):
        raise InvalidInputError(f"{what} contains duplicates")
    return values


def integer(value, what: str, minimum: int = 0) -> int:
    """``value``, which must be an integer (not a bool) >= ``minimum``: the rule
    for every count, seed and index a config or model file holds."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise InvalidInputError(f"{what} must be an integer >= {minimum}, got {value!r}")
    return value


def finite_number(value) -> bool:
    """Whether ``value`` is a real number (not a bool) with a finite float: the
    rule for every weight, scaling bound and raw value a file holds."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer past the float range
        return False


def _ascii_decimal(text: str) -> float:
    """``float(text)`` when ``text`` is an ASCII decimal number such as ``-0.5``,
    ``.5``, ``5.`` or ``1e-3``, else nan: the syntax of every number a CSV cell
    or instance file holds as text. ``float()`` alone also reads ``0_5`` and
    non-ASCII digits."""
    return float(text) if _DECIMAL.fullmatch(text) else math.nan


@dataclass(frozen=True)
class Feature:
    """One feature column: a schema feature, and the codec for one feature
    entry of a spec or model file.

    ``kind`` is ``"cat"`` or ``"cont"``. A categorical feature's
    ``vocabulary`` is its ordered, duplicate-free list of categories; a spec
    may leave it open (``None``) for :func:`load_csv` to read from the data,
    a schema may not.
    """

    name: str
    kind: str  # "cat" | "cont"
    controllable: bool
    weight: float = 1.0
    vocabulary: tuple[str, ...] | None = None

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise InvalidInputError(f"feature name must be a string, got {self.name!r}")
        if self.kind not in ("cat", "cont"):
            raise InvalidInputError(f"feature {self.name!r}: kind must be 'cat' or 'cont'")
        w = self.weight
        if not finite_number(w) or w < 0:
            raise InvalidInputError(
                f"feature {self.name!r}: weight must be a finite number >= 0, got {w!r}"
            )
        object.__setattr__(self, "weight", float(w))
        if self.vocabulary is None:
            return
        if self.kind == "cont":
            raise InvalidInputError(f"feature {self.name!r}: a 'cont' feature takes no vocabulary")
        object.__setattr__(self, "vocabulary",
                           string_list(self.vocabulary, f"feature {self.name!r}: vocabulary"))

    @property
    def is_categorical(self) -> bool:
        return self.kind == "cat"

    @classmethod
    def from_dict(cls, entry, controllable: bool | None = None) -> "Feature":
        """Decode one JSON feature entry.

        ``controllable`` is the flag of an entry that carries none; when it
        is None, the entry must carry its own.
        """
        if not isinstance(entry, dict):
            raise InvalidInputError(f"feature entry must be a JSON object, got {entry!r}")
        if controllable is not None:
            entry = {"controllable": controllable, **entry}
        try:
            name, kind, flag = entry["name"], entry["kind"], entry["controllable"]
        except KeyError as exc:
            raise InvalidInputError(f"feature entry is missing {exc}") from None
        if not isinstance(flag, bool):
            raise InvalidInputError(f"feature {name!r}: 'controllable' must be true or "
                                    f"false, got {flag!r}")
        return cls(name, kind, flag, entry.get("weight", 1.0), entry.get("vocabulary"))

    def to_dict(self) -> dict:
        entry = {
            "name": self.name,
            "kind": self.kind,
            "controllable": self.controllable,
            "weight": self.weight,
        }
        if self.vocabulary is not None:
            entry["vocabulary"] = list(self.vocabulary)
        return entry


class FeatureSchema:
    """Ordered feature list plus cached index structure.

    The controllable / uncontrollable split is derived from the per-feature
    flags; the two index sets are disjoint and together cover every feature.
    """

    def __init__(self, features):
        features = tuple(features)
        if not features:
            raise InvalidInputError("schema needs at least one feature")
        for f in features:
            if f.is_categorical and f.vocabulary is None:
                raise InvalidInputError(f"feature {f.name!r}: a categorical feature needs "
                                        "a vocabulary")
        names = [f.name for f in features]
        if len(set(names)) != len(names):
            raise InvalidInputError("feature names must be unique")
        weights = np.array([f.weight for f in features], dtype=np.float64)
        if weights.sum() <= 0:
            raise InvalidInputError("sum of feature weights must be > 0")
        self.features = features
        self.names = tuple(names)
        self.weights = weights
        self.weights.setflags(write=False)
        self.is_categorical = np.array([f.is_categorical for f in features], dtype=bool)
        self.is_categorical.setflags(write=False)
        self.vocab_sizes = np.array(
            [len(f.vocabulary) if f.is_categorical else 0 for f in features], dtype=np.int64
        )
        self.vocab_sizes.setflags(write=False)
        self.controllable_idx = np.array(
            [i for i, f in enumerate(features) if f.controllable], dtype=np.int64
        )
        self.uncontrollable_idx = np.array(
            [i for i, f in enumerate(features) if not f.controllable], dtype=np.int64
        )

    @property
    def arity(self) -> int:
        return len(self.features)

    def check_norm_params(self, norm_params) -> None:
        """Raise unless ``norm_params`` holds one entry per feature: ``None``
        for a categorical one, a ``(min, max)`` pair of finite numbers with
        min < max for a continuous one."""
        if len(norm_params) != self.arity:
            raise InvalidInputError("norm_params length does not match schema arity")
        for f, p in zip(self.features, norm_params):
            if f.is_categorical:
                if p is not None:
                    raise InvalidInputError(
                        f"feature {f.name!r}: categorical features take no norm params"
                    )
            elif p is None or len(p) != 2 or not all(map(finite_number, p)) or not p[0] < p[1]:
                raise InvalidInputError(f"feature {f.name!r}: degenerate normalization range "
                                        f"{p!r}; need two finite numbers, min < max")

    def to_dict(self) -> dict:
        return {"features": [f.to_dict() for f in self.features]}

    @classmethod
    def from_dict(cls, doc: dict) -> "FeatureSchema":
        return cls(Feature.from_dict(entry) for entry in doc["features"])


def validate_instance(schema: FeatureSchema, values) -> np.ndarray:
    """Check a value vector against the schema and return it as float64.

    Categorical entries must be integral codes inside the vocabulary;
    continuous entries must lie in [0, 1] (up to 1e-9 slack, then clipped).
    """
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != schema.arity:
        raise InvalidInputError(
            f"instance has {x.shape} values, schema expects ({schema.arity},)"
        )
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("instance contains non-finite values")
    cat = schema.is_categorical
    bad = np.where(cat, (x != np.round(x)) | (x < 0) | (x >= schema.vocab_sizes),
                   (x < -1e-9) | (x > 1 + 1e-9))
    if bad.any():
        i = int(bad.argmax())
        f, v = schema.features[i], x[i]
        if f.is_categorical:
            raise InvalidInputError(f"feature {f.name!r}: {v} is not a valid category code")
        raise InvalidInputError(f"feature {f.name!r}: {v} outside [0, 1]")
    # min(max(v, 0), 1) on continuous entries, keeping a -0.0 as it is.
    return np.where(cat, x, np.where(x < 0.0, 0.0, np.where(x > 1.0, 1.0, x)))


@dataclass(frozen=True)
class Dataset:
    """Normalized rows (one instance per row) with integer class labels.

    ``norm_params`` holds one ``(min, max)`` pair per feature; categorical
    positions carry ``None``. Arrays are frozen after construction so a
    dataset can be shared freely.
    """

    schema: FeatureSchema
    X: np.ndarray
    y: np.ndarray
    norm_params: tuple
    label_values: tuple | None = None  # original label strings, id-ordered

    def __post_init__(self):
        X = np.ascontiguousarray(self.X, dtype=np.float64)
        y = np.ascontiguousarray(self.y, dtype=np.int64)
        if X.ndim != 2 or X.shape[1] != self.schema.arity:
            raise InvalidInputError("dataset shape does not match schema arity")
        if X.shape[0] != y.shape[0]:
            raise InvalidInputError("row and label counts differ")
        if y.size and y.min() < 0:
            raise InvalidInputError("class ids must be >= 0")
        if len(np.unique(y)) < 2:
            raise InvalidInputError("dataset needs at least 2 distinct labels")
        self.schema.check_norm_params(self.norm_params)
        X.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "norm_params", tuple(self.norm_params))

    @classmethod
    def from_normalized(cls, schema, X, y) -> "Dataset":
        """Wrap rows that are already in normalized [0,1] / code space."""
        params = tuple(
            None if f.is_categorical else (0.0, 1.0) for f in schema.features
        )
        return cls(schema, np.asarray(X, dtype=np.float64), np.asarray(y), params)

    @classmethod
    def from_raw(cls, schema, raw, y, label_values=None) -> "Dataset":
        """Min-max scale the continuous columns of ``raw`` into [0, 1], recording each
        ``(min, max)``; categorical columns hold codes. A constant one is an error."""
        X = np.array(raw, dtype=np.float64)
        params = []
        for j, f in enumerate(schema.features):
            if f.is_categorical:
                params.append(None)
                continue
            lo, hi = float(X[:, j].min()), float(X[:, j].max())
            if not lo < hi:
                raise InvalidInputError(f"column {f.name!r}: constant continuous column")
            X[:, j] = (X[:, j] - lo) / (hi - lo)
            params.append((lo, hi))
        return cls(schema, X, y, tuple(params), label_values=label_values)

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]


def normalize(value: float, lo: float, hi: float) -> float:
    """Min-max scale ``value`` into [0, 1], clamping out-of-range inputs."""
    if not lo < hi:
        raise InvalidInputError(f"invalid normalization range: min {lo} >= max {hi}")
    scaled = (value - lo) / (hi - lo)
    return min(max(scaled, 0.0), 1.0)


def denormalize(value: float, lo: float, hi: float) -> float:
    """Inverse of :func:`normalize` for in-range values."""
    if not lo < hi:
        raise InvalidInputError(f"invalid normalization range: min {lo} >= max {hi}")
    return lo + value * (hi - lo)


@dataclass(frozen=True)
class IngestionSpec:
    """Names the label column and describes every feature column."""

    label: str
    columns: tuple[Feature, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if not self.columns:
            raise IngestionError("ingestion spec declares no feature columns")
        if any(c.name == self.label for c in self.columns):
            raise IngestionError(f"ingestion spec reads label {self.label!r} as a feature")

    @classmethod
    def from_dict(cls, doc: dict) -> "IngestionSpec":
        try:
            label = doc["label"]
            feats = doc["features"]
        except (KeyError, TypeError) as exc:
            raise IngestionError(f"ingestion spec missing key: {exc}") from None
        try:
            cols = tuple(Feature.from_dict(entry, controllable=True) for entry in feats)
        except (TypeError, InvalidInputError) as exc:
            raise IngestionError(f"malformed ingestion spec feature: {exc}") from None
        return cls(label=label, columns=cols)

    @classmethod
    def from_json(cls, path) -> "IngestionSpec":
        return cls.from_dict(read_json(path, "ingestion spec", IngestionError, IngestionError))

    def to_dict(self) -> dict:
        return {"label": self.label, "features": [c.to_dict() for c in self.columns]}


def read_json(path, what: str, unreadable: type[CafaError], malformed: type[CafaError]):
    """The JSON document in the UTF-8 file ``path``, which holds ``what``.

    A file that cannot be opened raises ``unreadable``; one that is not
    UTF-8 or not JSON raises ``malformed``.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise unreadable(f"cannot read {what}: {exc}") from None
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise malformed(f"{what} is not valid JSON: {exc}") from None


def _sort_values(values):
    """Sort category labels numerically when every one is a finite ASCII
    decimal, equal numbers by their text, else as strings: one order whatever
    the order of ``values``."""
    vals = list(values)
    keys = [_ascii_decimal(v) for v in vals]
    if all(map(math.isfinite, keys)):
        return [v for _, v in sorted(zip(keys, vals))]
    return sorted(vals)


def _impute_mode(cells):
    counts = Counter(c for c in cells if c != MISSING_CELL)
    if not counts:
        return None
    top = max(counts.values())
    return _sort_values([c for c, n in counts.items() if n == top])[0]


def load_csv(path, spec: IngestionSpec) -> Dataset:
    """Ingest a headered CSV file into a normalized :class:`Dataset`.

    Continuous columns are min-max scaled to [0, 1]; categorical cells are
    mapped to vocabulary indices (vocabularies come from the spec when closed,
    otherwise from the distinct values in the file, ordered as the label
    values are by ``_sort_values``). Missing cells (``?``) are imputed with
    the column mode (categorical) or median (continuous). Raises
    :class:`IngestionError` on a file that cannot be read or is not UTF-8,
    malformed input, a spec column named twice in the header, a missing label
    (``?`` or an empty cell), a continuous cell that is not a finite ASCII
    decimal number (``nan``, ``inf``, ``1e400``, ``0_5``, non-ASCII digits),
    unknown closed-vocabulary categories, or constant continuous columns.
    """
    path = Path(path)
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise IngestionError(f"cannot read data file: {exc}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
            rows = list(reader)
        except StopIteration:
            raise IngestionError(f"{path}: empty file") from None
        except UnicodeDecodeError as exc:
            raise IngestionError(f"{path}: data file is not UTF-8: {exc}") from None

    header = [h.strip() for h in header]
    col_index = {}
    for name in [spec.label] + [c.name for c in spec.columns]:
        if name not in header:
            raise IngestionError(f"{path}: column {name!r} not found in header")
        if header.count(name) > 1:
            raise IngestionError(f"{path}: column {name!r} appears more than once in header")
        col_index[name] = header.index(name)

    if not rows:
        raise IngestionError(f"{path}: no data rows")

    n_cols = len(header)
    raw = {c.name: [] for c in spec.columns}
    raw_labels = []
    for r, row in enumerate(rows, start=2):  # header is line 1
        if len(row) != n_cols:
            raise IngestionError(
                f"{path}: row {r}: expected {n_cols} cells, got {len(row)}"
            )
        label = row[col_index[spec.label]].strip()
        if label in (MISSING_CELL, ""):
            raise IngestionError(f"{path}: row {r}: missing label")
        raw_labels.append(label)
        for c in spec.columns:
            raw[c.name].append(row[col_index[c.name]].strip())

    n = len(rows)
    m = len(spec.columns)
    X = np.empty((n, m), dtype=np.float64)
    features = []

    for j, c in enumerate(spec.columns):
        cells = raw[c.name]
        if c.kind == "cat":
            fill = _impute_mode(cells)
            if fill is None:
                raise IngestionError(f"{path}: column {c.name!r}: all values missing")
            cells = [fill if v == MISSING_CELL else v for v in cells]
            vocab = c.vocabulary or tuple(_sort_values(set(cells)))
            code = {v: i for i, v in enumerate(vocab)}
            for r, v in enumerate(cells):
                if v not in code:
                    raise IngestionError(
                        f"{path}: row {r + 2}: unknown category {v!r} "
                        f"for column {c.name!r}"
                    )
                X[r, j] = code[v]
            features.append(replace(c, vocabulary=vocab))
        else:
            parsed = np.full(n, np.nan)
            for r, v in enumerate(cells):
                if v == MISSING_CELL:
                    continue
                value = _ascii_decimal(v)
                if not math.isfinite(value):
                    raise IngestionError(
                        f"{path}: row {r + 2}: cannot parse {v!r} "
                        f"as a finite number for column {c.name!r}"
                    )
                parsed[r] = value
            present = parsed[~np.isnan(parsed)]
            if present.size == 0:
                raise IngestionError(f"{path}: column {c.name!r}: all values missing")
            parsed[np.isnan(parsed)] = float(np.median(present))
            X[:, j] = parsed
            features.append(c)

    label_values = tuple(_sort_values(set(raw_labels)))
    if len(label_values) < 2:
        raise IngestionError(f"{path}: need at least 2 distinct labels")
    label_code = {v: i for i, v in enumerate(label_values)}
    y = np.array([label_code[v] for v in raw_labels], dtype=np.int64)

    schema = FeatureSchema(features)
    try:
        return Dataset.from_raw(schema, X, y, label_values)
    except InvalidInputError as exc:
        raise IngestionError(f"{path}: {exc}") from None


def encode_instance(schema: FeatureSchema, norm_params, raw: dict) -> np.ndarray:
    """Encode a raw {feature name: value} mapping into a normalized instance.

    Categorical values are looked up in the vocabulary; continuous values are
    min-max scaled with the dataset's recorded parameters and clamped, so
    finite query points outside the training range stay representable; a
    value that is not a finite number, or text that is not an ASCII decimal,
    is an error. A model loaded without
    ``norm_params`` cannot scale them: :class:`ModelFormatError`.
    """
    x = np.empty(schema.arity, dtype=np.float64)
    for i, f in enumerate(schema.features):
        if f.name not in raw:
            raise InvalidInputError(f"instance is missing feature {f.name!r}")
        v = raw[f.name]
        if f.is_categorical:
            key = str(v)
            if key not in f.vocabulary:
                raise InvalidInputError(
                    f"feature {f.name!r}: unknown category {key!r}"
                )
            x[i] = f.vocabulary.index(key)
        elif norm_params is None:
            raise ModelFormatError(f"feature {f.name!r}: the model has no norm_params "
                                   "to scale a raw value with")
        else:
            try:
                value = (None if isinstance(v, bool) else
                         _ascii_decimal(v) if isinstance(v, str) else float(v))
            except TypeError:
                value = None
            except OverflowError:  # an integer past the float range
                value = math.inf
            if value is None:
                raise InvalidInputError(f"feature {f.name!r}: expected a number, got {v!r}")
            if not math.isfinite(value):
                raise InvalidInputError(f"feature {f.name!r}: {v!r} is not a finite number")
            x[i] = normalize(value, *norm_params[i])
    return x


def dataset_to_raw_csv(data: Dataset, path) -> None:
    """Dump the dataset with original category labels and raw-scale values.

    The output re-ingests cleanly with the spec from
    :func:`ingestion_spec_for`.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(data.schema.names) + ["class"])
        for i in range(data.n_rows):
            cells = []
            for j, f in enumerate(data.schema.features):
                v = data.X[i, j]
                if f.is_categorical:
                    cells.append(f.vocabulary[int(v)])
                else:
                    lo, hi = data.norm_params[j]
                    cells.append(repr(denormalize(float(v), lo, hi)))
            if data.label_values is not None:
                cells.append(str(data.label_values[int(data.y[i])]))
            else:
                cells.append(str(int(data.y[i])))
            writer.writerow(cells)


def ingestion_spec_for(data: Dataset) -> "IngestionSpec":
    """Ingestion spec (closed vocabularies, label ``class``) matching a dataset's schema."""
    return IngestionSpec("class", data.schema.features)
