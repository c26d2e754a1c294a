"""Batch command-line interface.

Subcommands: train, explain, global, compare, synth, experiment. Every
report-producing command writes into a run directory (attribution.csv,
attribution.json, bars.svg, summary.svg where applicable, run_meta.json)
and is byte-reproducible for a fixed seed; SVG timestamps are opt-in.

Exit codes: 0 ok, 2 usage, 3 data error, 4 model error, 5 explanation
error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .errors import CafaError, InvalidInputError, UsageError
from .experiment import (
    _build,
    _cafa_config,
    load_dataset,
    run_experiment,
    run_meta,
    sample_rows,
)
from .explain import derive_seed, lime_explain
from .forest import ForestParams, RandomForest, accuracy, train_forest
from .pipeline import CafaConfig, cafa_global, cafa_local, compare_with_shap, standard_shap
from .reports import write_attribution_csv, write_attribution_json, write_global_run, write_run
from .schema import (
    dataset_to_raw_csv,
    encode_instance,
    ingestion_spec_for,
    read_json,
    validate_instance,
)


# ``synth --kind`` -> the experiment driver's dataset kind.
_SYNTH_KINDS = {"synth": "synth", "covid": "covid_preset", "lung": "lung_preset"}


def _add_data_args(p):
    p.add_argument("--data", required=True, help="training CSV path")
    p.add_argument("--spec", required=True, help="ingestion spec JSON path")


def _add_cafa_args(p):
    p.add_argument("--k", type=int, default=200, help="per-class neighborhood size")
    p.add_argument("--pi", default="estimate", help="proximity threshold or 'estimate'")
    p.add_argument("--n-perms", type=int, default=10,
                   help="ignored: the forest surrogate is explained exactly")
    p.add_argument("--n-locals", type=int, default=None, help="neighborhood rows to explain")
    p.add_argument("--background", type=int, default=100, help="background sample size")
    p.add_argument("--surrogate-trees", type=int, default=100)
    p.add_argument("--surrogate-depth", type=int, default=8)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cafa", description="attribution toolkit for controllable features"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a forest on a CSV and save it as JSON")
    _add_data_args(p)
    p.add_argument("--out", required=True, help="model JSON output path")
    p.add_argument("--trees", type=int, default=100)
    p.add_argument("--depth", type=int, default=8)
    p.add_argument("--min-leaf", type=int, default=2)
    p.add_argument("--mtry", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("explain", help="explain one instance")
    _add_data_args(p)
    p.add_argument("--model", required=True, help="trained model JSON")
    p.add_argument("--method", choices=("cafa", "shap", "lime"), default="cafa")
    p.add_argument("--instance", required=True, help="row index or raw-values JSON file")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lime-samples", type=int, default=1000)
    p.add_argument("--timestamp", action="store_true", help="embed generation time in SVGs")
    _add_cafa_args(p)

    p = sub.add_parser("global", help="aggregate explanations over a row sample")
    _add_data_args(p)
    p.add_argument("--model", required=True)
    p.add_argument("--sample", type=int, required=True, help="number of rows to explain")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--timestamp", action="store_true")
    _add_cafa_args(p)

    p = sub.add_parser("compare", help="run cafa and standard shap side by side")
    _add_data_args(p)
    p.add_argument("--model", required=True)
    p.add_argument("--instance", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--timestamp", action="store_true")
    _add_cafa_args(p)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--kind", choices=tuple(_SYNTH_KINDS), default="synth")
    p.add_argument("--rows", type=int, default=1000)
    p.add_argument("--controllable", type=int, default=4)
    p.add_argument("--uncontrollable", type=int, default=2)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--spec-out", default=None, help="ingestion spec output path")

    p = sub.add_parser("experiment", help="run a JSON experiment config")
    p.add_argument("config", help="experiment config JSON path")
    p.add_argument("--timestamp", action="store_true")

    return parser


def _resolve_instance(arg: str, data, model: RandomForest) -> np.ndarray:
    """Row index into the dataset, or a JSON file of raw feature values."""
    try:
        idx = int(arg)
    except ValueError:
        idx = None
    if idx is not None:
        if not 0 <= idx < data.n_rows:
            raise UsageError(f"instance index {idx} out of range (0..{data.n_rows - 1})")
        return data.X[idx]
    raw = read_json(arg, "instance file", UsageError, InvalidInputError)
    if not isinstance(raw, dict):
        raise InvalidInputError("instance file must hold a feature-name -> value object")
    return encode_instance(model.schema, model.norm_params, raw)


def _load_data_and_model(args):
    """The dataset named by ``--data``/``--spec`` and the ``--model`` trained on its schema."""
    data = _data_from_args(args)
    model = RandomForest.load(args.model)
    if tuple(model.schema.names) != tuple(data.schema.names):
        raise UsageError(
            "model schema does not match the dataset "
            f"({list(model.schema.names)[:3]}... vs {list(data.schema.names)[:3]}...)"
        )
    return data, model


def _config_from_args(args) -> CafaConfig:
    pi = args.pi
    if pi != "estimate":
        try:
            pi = float(pi)
        except ValueError:
            raise UsageError(f"--pi must be a float or 'estimate', got {pi!r}") from None
    doc = {
        "k": args.k,
        "pi": pi,
        "n_perms": args.n_perms,
        "n_locals": args.n_locals,
        "background_size": args.background,
        "surrogate_params": {"n_trees": args.surrogate_trees, "max_depth": args.surrogate_depth},
    }
    return _cafa_config(doc, args.seed)


def _data_from_args(args):
    return load_dataset({"kind": "csv", "path": args.data, "spec": args.spec})


def cmd_train(args) -> int:
    fields = {"n_trees": args.trees, "max_depth": args.depth, "min_leaf": args.min_leaf,
              "features_per_split": args.mtry, "seed": args.seed}
    params = _build(ForestParams, "model", fields)
    data = _data_from_args(args)
    model = train_forest(data, params)
    model.save(args.out)
    print(f"trained {params.n_trees} trees on {data.n_rows} rows; "
          f"training accuracy {accuracy(model, data):.4f}; saved to {args.out}")
    return 0


def cmd_explain(args) -> int:
    cfg = _config_from_args(args)
    data, model = _load_data_and_model(args)
    x = _resolve_instance(args.instance, data, model)
    x = validate_instance(data.schema, x)
    names = data.schema.names

    fields = {"instance": args.instance, "seed": args.seed, "data": str(args.data),
              "model": str(args.model)}
    per_row = None
    if args.method == "cafa":
        res = cafa_local(x, model, data.schema, cfg, data=data)
        attr, per_row = res.attribution, res.per_row_phi
        zeros = [names[j] for j in data.schema.uncontrollable_idx]
        meta = run_meta("explain.cafa", cfg, res, zeros_enforced=zeros, **fields)
    elif args.method == "shap":
        attr = standard_shap(x, model, data.schema, cfg, data=data)
        meta = run_meta("explain.shap", cfg, **fields)
    else:
        attr = lime_explain(
            model, x, data.schema, n_samples=args.lime_samples, seed=derive_seed(args.seed, 20)
        )
        meta = run_meta("explain.lime", n_samples=args.lime_samples, **fields)

    out_dir = write_run(
        args.out_dir, attr, names, meta, per_row_phi=per_row, timestamp=args.timestamp
    )
    print(f"{args.method} attribution written to {out_dir}")
    return 0


def cmd_global(args) -> int:
    cfg = _config_from_args(args)
    data, model = _load_data_and_model(args)
    sample_idx = sample_rows(data.n_rows, args.sample, args.seed)

    res = cafa_global(data.X[sample_idx], model, data.schema, cfg, data=data)
    out_dir = write_global_run(
        args.out_dir,
        res,
        data.schema.names,
        {"method": "cafa-global", "skipped": res.skipped, "pi": res.pi, "seed": args.seed},
        run_meta("global", cfg, res, sample_rows=sample_idx.tolist()),
        timestamp=args.timestamp,
    )
    print(f"global attribution over {res.n_explained} instances written to {out_dir} "
          f"({len(res.skipped)} skipped)")
    return 0


def cmd_compare(args) -> int:
    cfg = _config_from_args(args)
    data, model = _load_data_and_model(args)
    x = _resolve_instance(args.instance, data, model)
    names = data.schema.names

    res = compare_with_shap(x, model, data.schema, cfg, data=data)
    out_dir = write_run(
        args.out_dir,
        res.cafa.attribution,
        names,
        run_meta("compare", cfg, instance=args.instance, pi=res.cafa.pi,
                 pearson_controllable=res.pearson_controllable,
                 controllable=[names[j] for j in data.schema.controllable_idx]),
        per_row_phi=res.cafa.per_row_phi,
        extra={"pearson_controllable": res.pearson_controllable},
        timestamp=args.timestamp,
    )
    write_attribution_csv(out_dir / "shap.csv", res.shap, names)
    write_attribution_json(out_dir / "shap.json", res.shap, names)
    print(f"pearson over controllable features: {res.pearson_controllable:+.4f} "
          f"(reports in {out_dir})")
    return 0


def cmd_synth(args) -> int:
    doc = {"kind": _SYNTH_KINDS[args.kind], "seed": args.seed}
    if args.kind == "synth":
        doc.update(m_controllable=args.controllable, m_uncontrollable=args.uncontrollable,
                   n_rows=args.rows, noise=args.noise)
    data = load_dataset(doc)
    dataset_to_raw_csv(data, args.out)
    if args.spec_out:
        with open(args.spec_out, "w", encoding="utf-8") as fh:
            json.dump(ingestion_spec_for(data).to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(f"wrote {data.n_rows} rows x {len(data.schema.features)} features to {args.out}")
    return 0


def cmd_experiment(args) -> int:
    out_dir = run_experiment(args.config, timestamp=args.timestamp)
    print(f"experiment reports written to {out_dir}")
    return 0


_COMMANDS = {
    "train": cmd_train,
    "explain": cmd_explain,
    "global": cmd_global,
    "compare": cmd_compare,
    "synth": cmd_synth,
    "experiment": cmd_experiment,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except CafaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
