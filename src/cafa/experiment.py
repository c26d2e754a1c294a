"""JSON-config experiment driver.

A config names a dataset source, forest hyperparameters, attribution
settings, a local instance, and a global sample size; the driver trains the
model, explains locally and globally with both the controllable-factor
pipeline and standard Shapley, and writes the full report tree:

    out_dir/
      local/cafa/   attribution.csv  attribution.json  bars.svg  summary.svg  run_meta.json
      local/shap/   attribution.csv  attribution.json  bars.svg  run_meta.json
      global/cafa/  attribution.csv  attribution.json  bars.svg  summary.svg  run_meta.json
      global/shap/  attribution.csv  attribution.json  bars.svg  summary.svg  run_meta.json
      run_meta.json

Reports embed the resolved config and seeds; nothing in them depends on
wall-clock time.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np

from . import bench
from .errors import IngestionError, InvalidInputError, UsageError
from .explain import derive_seed, global_explanation
from .forest import ForestParams, accuracy, train_forest
from .pipeline import (
    CafaConfig, CafaResult, GlobalCafaResult, cafa_global, cafa_local, standard_shap
)
from .reports import write_global_run, write_run, write_run_meta
from .schema import IngestionSpec, integer, load_csv, read_json

REQUIRED_KEYS = ("dataset", "model", "cafa", "sample", "out_dir")


def _build(cls, section: str, fields, **defaults):
    """``cls(**defaults, **fields)``; a non-object section, a bad key or a value
    ``cls`` rejects is a usage error."""
    if not isinstance(fields, dict):
        raise UsageError(f"{section} config must be a JSON object, got {fields!r}")
    try:
        return cls(**{**defaults, **fields})
    except (TypeError, InvalidInputError) as exc:
        raise UsageError(f"bad {section} config: {exc}") from None


def _int(value, key: str) -> int:
    """A top-level or preset config value, all of which are seeds, counts or
    indices; anything but a non-negative integer is a usage error."""
    try:
        return integer(value, key.rpartition(".")[2])
    except InvalidInputError as exc:
        raise UsageError(f"bad {key} config: {exc}") from None


def _known_keys(section: str, doc: dict, keys) -> None:
    """A key of ``doc`` that is not in ``keys`` is a usage error."""
    unknown = sorted(set(doc) - set(keys))
    if unknown:
        raise UsageError(f"bad {section} config: unknown keys {', '.join(unknown)}")


def load_dataset(ds_cfg: dict):
    """Resolve a dataset config to a Dataset; kinds: csv | synth | preset names."""
    if not isinstance(ds_cfg, dict):
        raise UsageError(f"dataset config must be a JSON object, got {ds_cfg!r}")
    kind = ds_cfg.get("kind")
    if kind == "csv":
        _known_keys("dataset", ds_cfg, ("kind", "path", "spec"))
        missing = [k for k in ("path", "spec") if k not in ds_cfg]
        if missing:
            raise UsageError(f"dataset config of kind csv is missing: {', '.join(missing)}")
        for key in ("path", "spec"):
            if not isinstance(ds_cfg[key], str):
                raise UsageError(f"dataset.{key} config must be a string, got {ds_cfg[key]!r}")
        return load_csv(ds_cfg["path"], IngestionSpec.from_json(ds_cfg["spec"]))
    if kind in ("covid_preset", "lung_preset"):
        _known_keys("dataset", ds_cfg, ("kind", "seed"))
        preset = bench.covid_preset if kind == "covid_preset" else bench.lung_preset
        return preset(seed=_int(ds_cfg.get("seed", 0), "dataset.seed"))
    if kind == "synth":
        fields = {k: v for k, v in ds_cfg.items() if k != "kind"}
        for key in ("kinds", "rule_features", "rule_weights"):
            value = fields.get(key)
            if value is None:
                continue
            if not isinstance(value, list):
                raise UsageError(f"dataset.{key} config must be a list, got {value!r}")
            fields[key] = tuple(value)
        return bench.generate_synth(_build(bench.SynthSpec, "dataset", fields))
    raise UsageError(
        f"dataset.kind must be one of csv|synth|covid_preset|lung_preset, got {kind!r}"
    )


def _cafa_config(doc, seed: int) -> CafaConfig:
    if isinstance(doc, dict) and doc.get("surrogate_params") is not None:
        sp = _build(ForestParams, "cafa.surrogate_params", doc["surrogate_params"])
        doc = {**doc, "surrogate_params": sp}
    return _build(CafaConfig, "cafa", doc, seed=seed)


def sample_rows(n_rows: int, size: int, seed: int) -> np.ndarray:
    """Sorted indices of ``size`` distinct rows, drawn from ``seed``'s sample stream."""
    if not 1 <= size <= n_rows:
        raise UsageError(f"sample size must be in 1..{n_rows}, got {size}")
    rng = np.random.default_rng(derive_seed(seed, 100))
    return np.sort(rng.choice(n_rows, size=size, replace=False))


def run_meta(command: str, cfg: CafaConfig | None = None, result=None, **fields) -> dict:
    """The ``run_meta.json`` of one run: ``command``, ``cfg`` as ``config``,
    what a ``CafaResult`` or ``GlobalCafaResult`` records about its π,
    neighborhood and surrogate, and the command's own ``fields``."""
    meta = {"command": command, **fields}
    if cfg is not None:
        meta["config"] = cfg.to_dict()
    if isinstance(result, CafaResult):
        meta.update(pi=result.pi, neighborhood_stats=result.neighborhood.stats,
                    surrogate_accuracy=result.surrogate_quality)
    elif isinstance(result, GlobalCafaResult):
        meta.update(pi=result.pi, n_explained=result.n_explained, skipped=result.skipped)
    return meta


def run_experiment(config_path, timestamp: bool = False) -> Path:
    """Execute one experiment config; returns the output directory."""
    doc = read_json(config_path, "config", UsageError, IngestionError)
    if not isinstance(doc, dict) or not doc:
        raise UsageError(f"empty experiment config; required keys: {', '.join(REQUIRED_KEYS)}")
    missing = [k for k in REQUIRED_KEYS if k not in doc]
    if missing:
        raise UsageError(
            f"experiment config missing keys: {', '.join(missing)} "
            f"(required: {', '.join(REQUIRED_KEYS)})"
        )
    _known_keys("experiment", doc, (*REQUIRED_KEYS, "seed", "instance"))

    seed = _int(doc.get("seed", 0), "seed")
    instance_idx = _int(doc.get("instance", 0), "instance")
    n_sample = _int(doc["sample"], "sample")
    if not isinstance(doc["out_dir"], str):
        raise UsageError(f"out_dir config must be a string, got {doc['out_dir']!r}")
    model_params = _build(ForestParams, "model", doc["model"], seed=seed)
    cfg = _cafa_config(doc["cafa"], seed)
    data = load_dataset(doc["dataset"])
    schema = data.schema
    names = schema.names
    if not 0 <= instance_idx < data.n_rows:
        raise UsageError(f"instance index {instance_idx} out of range (0..{data.n_rows - 1})")
    sample_idx = sample_rows(data.n_rows, n_sample, seed)

    model = train_forest(data, model_params)
    train_acc = accuracy(model, data)
    out_dir = Path(doc["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    x = data.X[instance_idx]

    # Local pass: both methods on the named instance.
    local_res = cafa_local(x, model, schema, cfg, data=data)
    write_run(
        out_dir / "local" / "cafa",
        local_res.attribution,
        names,
        run_meta("experiment.local.cafa", cfg, local_res, instance=instance_idx),
        per_row_phi=local_res.per_row_phi,
        extra={
            "zeros_enforced": [names[j] for j in schema.uncontrollable_idx],
            "neighborhood": {**local_res.neighborhood.stats, "pi": local_res.pi, "k": cfg.k},
            "surrogate_accuracy": local_res.surrogate_quality,
        },
        timestamp=timestamp,
    )

    write_run(
        out_dir / "local" / "shap",
        standard_shap(x, model, schema, cfg, data=data),
        names,
        run_meta("experiment.local.shap", cfg, instance=instance_idx),
        timestamp=timestamp,
    )

    # Global pass over a seeded sample of training rows.
    gres = cafa_global(data.X[sample_idx], model, schema, cfg, data=data)
    global_doc = {"aggregate": "mean over instances", "seed": seed}
    write_global_run(
        out_dir / "global" / "cafa",
        gres,
        names,
        {"method": "cafa", "skipped": gres.skipped, **global_doc},
        run_meta("experiment.global.cafa", cfg, gres, sample_rows=sample_idx.tolist()),
        timestamp=timestamp,
    )

    shap_attrs = []
    for pos, i in enumerate(sample_idx):
        sub = dataclasses.replace(cfg, seed=derive_seed(seed, 101, pos))
        shap_attrs.append(standard_shap(data.X[i], model, schema, sub, data=data))
    write_global_run(
        out_dir / "global" / "shap",
        global_explanation(shap_attrs),
        names,
        {"method": "shap", "skipped": [], **global_doc},
        run_meta("experiment.global.shap", cfg, sample_rows=sample_idx.tolist()),
        timestamp=timestamp,
    )

    config = {"dataset": doc["dataset"], "model": model_params.to_dict(), "cafa": cfg.to_dict(),
              "sample": n_sample, "instance": instance_idx, "out_dir": str(out_dir), "seed": seed}
    write_run_meta(
        out_dir / "run_meta.json",
        run_meta("experiment", config=config, train_accuracy=train_acc, n_rows=data.n_rows,
                 n_features=len(names)),
    )
    return out_dir
