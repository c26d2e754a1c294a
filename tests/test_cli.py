"""Batch CLI: flows, artifacts, reproducibility, exit codes."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from cafa.bench import SynthSpec, generate_synth
from cafa.cli import main
from cafa.experiment import _build, _cafa_config
from cafa.forest import ForestParams, RandomForest
from cafa.schema import dataset_to_raw_csv, ingestion_spec_for

from .conftest import BAD_TREES

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
DATA = Path(__file__).resolve().parents[1] / "data"

FAST = [
    "--k", "25", "--pi", "0.5", "--n-perms", "4", "--background", "30",
    "--surrogate-trees", "25", "--surrogate-depth", "6",
]


def _read(p):
    return p.read_bytes()


def _json(p):
    return json.loads(p.read_text())


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Shared workspace: synthetic CSV + spec + trained model, all via the CLI."""
    root = tmp_path_factory.mktemp("cli")
    data, spec, model = root / "data.csv", root / "spec.json", root / "model.json"
    assert main(["synth", "--rows", "300", "--controllable", "3", "--uncontrollable", "1",
                 "--seed", "0", "--out", str(data), "--spec-out", str(spec)]) == 0
    assert main(["train", "--data", str(data), "--spec", str(spec),
                 "--out", str(model), "--trees", "30", "--depth", "6", "--seed", "0"]) == 0
    return {"root": root, "data": str(data), "spec": str(spec), "model": str(model)}


def _explain(ws, out_dir, *extra):
    return main(["explain", "--data", ws["data"], "--spec", ws["spec"],
                 "--model", ws["model"], "--out-dir", str(out_dir),
                 "--seed", "7", *FAST, *extra])


def test_synth_is_reproducible(ws, tmp_path):
    data2, spec2 = tmp_path / "d.csv", tmp_path / "s.json"
    assert main(["synth", "--rows", "300", "--controllable", "3", "--uncontrollable", "1",
                 "--seed", "0", "--out", str(data2), "--spec-out", str(spec2)]) == 0
    root = ws["root"]
    assert _read(data2) == _read(root / "data.csv")
    assert _read(spec2) == _read(root / "spec.json")


def test_synth_covid_kind(tmp_path):
    out = tmp_path / "covid.csv"
    assert main(["synth", "--kind", "covid", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 3937 and len(rows[0]) == 18  # header + 17 features + label


def test_train_model_round_trips(ws, tmp_path):
    model = RandomForest.load(ws["model"])
    assert model.schema.names == ("u0", "c0", "c1", "c2")
    again = tmp_path / "model2.json"
    assert main(["train", "--data", ws["data"], "--spec", ws["spec"],
                 "--out", str(again), "--trees", "30", "--depth", "6", "--seed", "0"]) == 0
    assert _read(again) == _read(ws["root"] / "model.json")


def test_explain_cafa_artifacts_and_reruns(ws, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert _explain(ws, a, "--method", "cafa", "--instance", "5") == 0
    assert _explain(ws, b, "--method", "cafa", "--instance", "5") == 0
    names = ("attribution.csv", "attribution.json", "bars.svg", "summary.svg", "run_meta.json")
    for name in names:
        assert (a / name).exists(), name
        assert _read(a / name) == _read(b / name), name
    doc = _json(a / "attribution.json")
    assert doc["method"] == "cafa"
    by_name = {e["feature"]: e["value"] for e in doc["phi"]}
    assert by_name["u0"] == 0.0
    meta = _json(a / "run_meta.json")
    assert set(meta) == {"command", "config", "data", "instance", "model", "neighborhood_stats",
                         "pi", "seed", "surrogate_accuracy", "zeros_enforced"}
    assert meta["command"] == "explain.cafa"
    assert meta["zeros_enforced"] == ["u0"]
    assert meta["config"]["seed"] == 7


def test_explain_seed_changes_output(ws, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert _explain(ws, a, "--method", "cafa", "--instance", "5") == 0
    assert main(["explain", "--data", ws["data"], "--spec", ws["spec"],
                 "--model", ws["model"], "--out-dir", str(b),
                 "--seed", "8", *FAST, "--method", "cafa", "--instance", "5"]) == 0
    assert _read(a / "attribution.csv") != _read(b / "attribution.csv")


def test_explain_shap(ws, tmp_path):
    out = tmp_path / "s"
    assert _explain(ws, out, "--method", "shap", "--instance", "5") == 0
    doc = _json(out / "attribution.json")
    assert doc["method"] == "tree-shap"  # the model is a forest
    assert not (out / "summary.svg").exists()  # no per-row attributions here
    meta = _json(out / "run_meta.json")
    assert set(meta) == {"command", "config", "data", "instance", "model", "seed"}
    assert meta["command"] == "explain.shap"


def test_explain_lime(ws, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        assert _explain(ws, d, "--method", "lime", "--instance", "5",
                        "--lime-samples", "400") == 0
    assert _json(a / "attribution.json")["method"] == "lime"
    assert _read(a / "attribution.csv") == _read(b / "attribution.csv")
    meta = _json(a / "run_meta.json")
    assert set(meta) == {"command", "data", "instance", "model", "n_samples", "seed"}
    assert meta["command"] == "explain.lime" and meta["n_samples"] == 400


def test_explain_instance_from_json_file(ws, tmp_path):
    with open(ws["data"], newline="") as fh:
        rows = list(csv.DictReader(fh))
    raw = {k: v for k, v in rows[0].items() if k != "class"}
    inst = tmp_path / "instance.json"
    inst.write_text(json.dumps(raw))
    a, b = tmp_path / "a", tmp_path / "b"
    assert _explain(ws, a, "--method", "shap", "--instance", str(inst)) == 0
    assert _explain(ws, b, "--method", "shap", "--instance", "0") == 0
    assert _read(a / "attribution.csv") == _read(b / "attribution.csv")


def test_global_flow(ws, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    argv = ["global", "--data", ws["data"], "--spec", ws["spec"], "--model", ws["model"],
            "--sample", "4", "--seed", "1", *FAST]
    assert main(argv + ["--out-dir", str(a)]) == 0
    assert main(argv + ["--out-dir", str(b)]) == 0
    for name in ("attribution.csv", "attribution.json", "bars.svg", "summary.svg",
                 "run_meta.json"):
        assert _read(a / name) == _read(b / name), name
    meta = _json(a / "run_meta.json")
    assert set(meta) == {"command", "config", "n_explained", "pi", "sample_rows", "skipped"}
    assert len(meta["sample_rows"]) == 4
    doc = _json(a / "attribution.json")
    # the CLI's global JSON records pi; the experiment's records "aggregate" instead
    assert set(doc) == {"method", "n_explained", "phi", "pi", "seed", "skipped"}
    assert set(doc["phi"][0]) == {"feature", "mean", "mean_abs"}
    assert doc["method"] == "cafa-global"
    assert doc["n_explained"] + len(doc["skipped"]) == 4
    assert {e["feature"]: e["mean_abs"] for e in doc["phi"]}["u0"] == 0.0


def test_compare_flow(ws, tmp_path):
    out = tmp_path / "cmp"
    assert main(["compare", "--data", ws["data"], "--spec", ws["spec"],
                 "--model", ws["model"], "--instance", "5", "--out-dir", str(out),
                 "--seed", "7", *FAST]) == 0
    for name in ("attribution.csv", "attribution.json", "shap.csv", "shap.json",
                 "bars.svg", "summary.svg", "run_meta.json"):
        assert (out / name).exists(), name
    meta = _json(out / "run_meta.json")
    assert set(meta) == {"command", "config", "controllable", "instance",
                         "pearson_controllable", "pi"}
    # no zeros_enforced / neighborhood / surrogate_accuracy: those are the experiment's
    doc = _json(out / "attribution.json")
    assert set(doc) == {"method", "pearson_controllable", "phi", "phi0", "seed"}
    assert set(doc["phi"][0]) == {"feature", "value"}
    assert set(_json(out / "shap.json")) == {"method", "phi", "phi0"}
    assert -1.0 <= meta["pearson_controllable"] <= 1.0
    assert meta["controllable"] == ["c0", "c1", "c2"]


def test_timestamp_flag_changes_only_svg_comment(ws, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert _explain(ws, a, "--method", "cafa", "--instance", "5") == 0
    assert _explain(ws, b, "--method", "cafa", "--instance", "5", "--timestamp") == 0
    assert _read(a / "attribution.csv") == _read(b / "attribution.csv")
    assert _read(a / "attribution.json") == _read(b / "attribution.json")
    sa = (a / "bars.svg").read_text()
    sb = (b / "bars.svg").read_text()
    assert "<!-- generated " not in sa and "<!-- generated " in sb
    strip = lambda s: [l for l in s.splitlines() if not l.startswith("<!--")]
    assert strip(sa) == strip(sb)


# -- experiment driver -------------------------------------------------------


def _experiment_config(out_dir):
    return {
        "dataset": {"kind": "synth", "m_controllable": 3, "m_uncontrollable": 1,
                    "n_rows": 250, "seed": 2},
        "model": {"n_trees": 25, "max_depth": 6},
        "cafa": {"k": 20, "pi": 0.5, "n_perms": 4, "background_size": 25,
                 "surrogate_params": {"n_trees": 20, "max_depth": 5}},
        "sample": 3,
        "instance": 1,
        "out_dir": str(out_dir),
        "seed": 0,
    }


def test_experiment_flow(tmp_path):
    outs = []
    for tag in ("e1", "e2"):
        cfg = tmp_path / f"{tag}.json"
        out = tmp_path / tag
        cfg.write_text(json.dumps(_experiment_config(out)))
        assert main(["experiment", str(cfg)]) == 0
        outs.append(out)
    a, b = outs
    tree = {
        "local/cafa": ("attribution.csv", "attribution.json", "bars.svg", "summary.svg",
                       "run_meta.json"),
        "local/shap": ("attribution.csv", "attribution.json", "bars.svg", "run_meta.json"),
        "global/cafa": ("attribution.csv", "attribution.json", "bars.svg", "summary.svg",
                        "run_meta.json"),
        "global/shap": ("attribution.csv", "attribution.json", "bars.svg", "summary.svg",
                        "run_meta.json"),
    }
    for sub, names in tree.items():
        assert sorted(p.name for p in (a / sub).iterdir()) == sorted(names), sub
        for name in names:
            fa, fb = (a / sub / name).read_bytes(), (b / sub / name).read_bytes()
            assert fa == fb, f"{sub}/{name}"
    global_doc = {"aggregate", "method", "n_explained", "phi", "seed", "skipped"}
    keys = {  # attribution.json keys, run_meta.json keys
        "local/cafa": (
            {"method", "neighborhood", "phi", "phi0", "seed", "surrogate_accuracy",
             "zeros_enforced"},
            {"command", "config", "instance", "neighborhood_stats", "pi", "surrogate_accuracy"},
        ),
        "local/shap": ({"method", "phi", "phi0"}, {"command", "config", "instance"}),
        "global/cafa": (
            global_doc, {"command", "config", "n_explained", "pi", "sample_rows", "skipped"}
        ),
        "global/shap": (global_doc, {"command", "config", "sample_rows"}),
    }
    for sub, (doc_keys, meta_keys) in keys.items():
        assert set(_json(a / sub / "attribution.json")) == doc_keys, sub
        assert set(_json(a / sub / "run_meta.json")) == meta_keys, sub
    assert set(_json(a / "run_meta.json")) == {"command", "config", "n_features", "n_rows",
                                                "train_accuracy"}
    meta_a = _json(a / "run_meta.json")
    meta_b = _json(b / "run_meta.json")
    meta_a["config"]["out_dir"] = meta_b["config"]["out_dir"] = ""
    assert meta_a == meta_b
    doc = _json(a / "local" / "cafa" / "attribution.json")
    assert doc["zeros_enforced"] == ["u0"]


@pytest.mark.parametrize(
    "message, edit",
    [
        ("dataset config", lambda d: d["dataset"].update(sed=2)),
        ("model config", lambda d: d["model"].update(max_dpeth=6)),
        ("model config", lambda d: d.update(model=[1])),
        ("cafa.surrogate_params config",
         lambda d: d["cafa"]["surrogate_params"].update(n_tres=20)),
        ("dataset config", lambda d: d.update(dataset=[1])),
        ("dataset config", lambda d: d.update(dataset={"kind": "csv"})),
        ("dataset.seed config", lambda d: d.update(dataset={"kind": "lung_preset", "seed": "x"})),
        ("instance config", lambda d: d.update(instance="x")),
        ("sample config", lambda d: d.update(sample="two")),
        ("seed config", lambda d: d.update(seed=1.5)),
        ("dataset.spec config",
         lambda d: d.update(dataset={"kind": "csv", "path": "d.csv", "spec": 0})),
        ("dataset.path config",
         lambda d: d.update(dataset={"kind": "csv", "path": 5, "spec": "s.json"})),
        ("dataset config: seed", lambda d: d["dataset"].update(seed="x")),
        ("dataset config: n_rows", lambda d: d["dataset"].update(n_rows="250")),
        ("cafa config", lambda d: d["cafa"].update(explainer="exact")),
        ("dataset.kinds config", lambda d: d["dataset"].update(kinds=5)),
        ("dataset.kinds config", lambda d: d["dataset"].update(kinds="cont")),
        ("dataset.rule_features config", lambda d: d["dataset"].update(rule_features=0)),
        ("dataset config: rule_features", lambda d: d["dataset"].update(rule_features=[1.5])),
        ("dataset.rule_weights config", lambda d: d["dataset"].update(rule_weights={"a": 1})),
        ("dataset config: rule_weights", lambda d: d["dataset"].update(rule_weights=["a", "b"])),
        ("dataset config: rule_weights",
         lambda d: d["dataset"].update(rule_weights=[float("nan"), 1.0, 1.0, 1.0])),
        ("dataset config: rule_weights",
         lambda d: d["dataset"].update(rule_weights=[1.0, float("inf"), 1.0, 1.0])),
        ("seed config", lambda d: d.update(seed=-1)),
        ("dataset.seed config", lambda d: d.update(dataset={"kind": "covid_preset", "seed": -2})),
        ("dataset config: seed", lambda d: d["dataset"].update(seed=-1)),
        ("cafa config", lambda d: d["cafa"].update(exact_limit=15)),
        ("cafa config", lambda d: d["cafa"].update(shap_perms=200)),
        ("model config: seed", lambda d: d["model"].update(seed=-1)),
        ("cafa config: seed", lambda d: d["cafa"].update(seed=-1)),
        ("cafa.surrogate_params config: seed",
         lambda d: d["cafa"]["surrogate_params"].update(seed=-1)),
        ("model config: n_trees", lambda d: d["model"].update(n_trees=2.5)),
        ("model config: features_per_split", lambda d: d["model"].update(features_per_split=1.5)),
        ("cafa config: k must", lambda d: d["cafa"].update(k=15.5)),
        ("cafa config: k must", lambda d: d["cafa"].update(k=True)),
        ("cafa config: background_size", lambda d: d["cafa"].update(background_size=10.5)),
        ("cafa config: n_locals", lambda d: d["cafa"].update(n_locals=3.5)),
        ("model config: max_depth", lambda d: d["model"].update(max_depth=2.5)),
        ("model config: n_trees", lambda d: d["model"].update(n_trees=True)),
        ("cafa config: max_attempts", lambda d: d["cafa"].update(max_attempts=5000.5)),
        ("cafa config: pi must", lambda d: d["cafa"].update(pi=True)),
        ("out_dir config", lambda d: d.update(out_dir=5)),
        ("experiment config: unknown keys sed", lambda d: d.update(sed=7)),
        ("dataset config: unknown keys sed",
         lambda d: d.update(dataset={"kind": "lung_preset", "sed": 5})),
        ("dataset config: unknown keys n_rows",
         lambda d: d.update(dataset={"kind": "covid_preset", "seed": 0, "n_rows": 100})),
        ("dataset config: unknown keys sep", lambda d: d.update(dataset={
            "kind": "csv", "path": str(DATA / "breast_cancer.csv"),
            "spec": str(DATA / "breast_cancer.spec.json"), "sep": ";"})),
    ],
    ids=["dataset-key", "model-key", "model-not-object", "surrogate-key", "dataset-not-object",
         "csv-no-path-spec", "dataset-seed", "instance", "sample", "seed", "csv-spec-not-str",
         "csv-path-not-str", "synth-seed", "synth-n-rows", "removed-cafa-key", "synth-kinds-int",
         "synth-kinds-str", "synth-rule-features-int", "synth-rule-features-float",
         "synth-rule-weights-object", "synth-rule-weights-str", "synth-rule-weights-nan",
         "synth-rule-weights-inf", "negative-seed",
         "negative-preset-seed", "negative-synth-seed", "removed-exact-limit",
         "removed-shap-perms", "negative-model-seed", "negative-cafa-seed",
         "negative-surrogate-seed", "fractional-n-trees", "fractional-mtry", "fractional-k",
         "bool-k", "fractional-background", "fractional-n-locals", "fractional-max-depth",
         "bool-n-trees", "fractional-max-attempts", "bool-pi", "out-dir-not-str",
         "top-level-key", "lung-preset-key", "covid-preset-key", "csv-key"],
)
def test_experiment_bad_section_exit_2(tmp_path, capsys, message, edit):
    doc = _experiment_config(tmp_path / "out")
    edit(doc)
    cfg = tmp_path / "typo.json"
    cfg.write_text(json.dumps(doc))
    assert main(["experiment", str(cfg)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "key, message",
    [("sample", "sample size must be in 1..250"), ("instance", "instance index 9999 out of range")],
    ids=["sample", "instance"],
)
def test_experiment_checks_rows_before_it_writes(tmp_path, capsys, key, message):
    out = tmp_path / "out"
    cfg = tmp_path / "rows.json"
    cfg.write_text(json.dumps({**_experiment_config(out), key: 9999}))
    assert main(["experiment", str(cfg)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.name)
def test_shipped_config_sections_build(path):
    # parse the model and cafa sections as run_experiment does, without training
    doc = json.loads(path.read_text())
    seed = doc.get("seed", 0)
    assert _build(ForestParams, "model", doc["model"], seed=seed).seed == seed
    assert _cafa_config(doc["cafa"], seed).seed == seed


def test_experiment_empty_config(tmp_path, capsys):
    cfg = tmp_path / "empty.json"
    cfg.write_text("{}")
    assert main(["experiment", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "required" in err
    for key in ("dataset", "model", "cafa", "sample", "out_dir"):
        assert key in err


def test_experiment_missing_keys_listed(tmp_path, capsys):
    cfg = tmp_path / "partial.json"
    cfg.write_text(json.dumps({"dataset": {"kind": "synth"}, "model": {}}))
    assert main(["experiment", str(cfg)]) == 2
    assert "missing keys" in capsys.readouterr().err


def test_experiment_invalid_json(tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    assert main(["experiment", str(cfg)]) == 3


# -- exit codes ---------------------------------------------------------------


def test_usage_errors_exit_2(ws, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["explain", "--data", ws["data"]])  # missing required flags
    assert exc.value.code == 2
    out = str(tmp_path / "o")
    assert main(["global", "--data", ws["data"], "--spec", ws["spec"],
                 "--model", ws["model"], "--sample", "0", "--out-dir", out]) == 2
    assert _explain(ws, tmp_path / "x", "--instance", "9999") == 2
    assert main(["explain", "--data", ws["data"], "--spec", ws["spec"],
                 "--model", ws["model"], "--out-dir", out, "--instance", "0",
                 "--pi", "bogus"]) == 2
    assert _explain(ws, tmp_path / "x", "--instance", str(tmp_path)) == 2  # a directory


def test_negative_seed_exit_2(ws, tmp_path, capsys):
    data = ["--data", ws["data"], "--spec", ws["spec"]]
    run = ["--model", ws["model"], "--out-dir", str(tmp_path / "o"), *FAST]
    for argv in (
        ["train", *data, "--out", str(tmp_path / "m.json")],
        ["explain", *data, *run, "--instance", "0"],
        ["global", *data, *run, "--sample", "2"],
        ["compare", *data, *run, "--instance", "0"],
        ["synth", "--out", str(tmp_path / "s.csv")],
        ["synth", "--kind", "covid", "--out", str(tmp_path / "c.csv")],
    ):
        assert main([*argv, "--seed", "-1"]) == 2, argv[0]
        assert "seed must be an integer >= 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flags, field",
    [
        ("explain", ["--k", "0"], "k"),
        ("explain", ["--pi", "2"], "pi"),
        ("explain", ["--background", "0"], "background_size"),
        ("explain", ["--n-locals", "0"], "n_locals"),
        ("explain", ["--surrogate-trees", "0"], "n_trees"),
        ("explain", ["--surrogate-depth", "0"], "max_depth"),
        ("train", ["--trees", "0"], "n_trees"),
        ("train", ["--depth", "0"], "max_depth"),
        ("train", ["--min-leaf", "0"], "min_leaf"),
        ("train", ["--mtry", "0"], "features_per_split"),
        ("synth", ["--rows", "0"], "n_rows"),
        ("synth", ["--noise", "0.7"], "noise"),
        ("synth", ["--controllable", "0", "--uncontrollable", "0"],
         "m_controllable + m_uncontrollable"),
    ],
    ids=["k", "pi", "background", "n-locals", "surrogate-trees", "surrogate-depth", "trees",
         "depth", "min-leaf", "mtry", "rows", "noise", "no-features"],
)
def test_rejected_flags_exit_2(ws, tmp_path, capsys, command, flags, field):
    # a flag value its config type rejects is a usage error, caught before any file is written
    data = ["--data", ws["data"], "--spec", ws["spec"]]
    base = {
        "explain": [*data, "--model", ws["model"], "--out-dir", str(tmp_path / "o"),
                    "--instance", "0", *FAST],
        "train": [*data, "--out", str(tmp_path / "m.json")],
        "synth": ["--out", str(tmp_path / "s.csv"), "--spec-out", str(tmp_path / "s.json")],
    }[command]
    assert main([command, *base, *flags]) == 2
    assert f"{field} must be" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_data_errors_exit_3(ws, tmp_path, capsys):
    out = str(tmp_path / "o")
    assert main(["explain", "--data", str(tmp_path / "missing.csv"), "--spec", ws["spec"],
                 "--model", ws["model"], "--out-dir", out, "--instance", "0"]) == 3
    assert main(["train", "--data", ws["data"], "--spec", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "m.json")]) == 3
    bad_spec = tmp_path / "bad_spec.json"
    for feats in ([{"kind": "cat"}], [{"name": "c0"}], [7], 7,
                  [{"name": "c0", "kind": "cat", "vocabulary": "012"}],
                  [{"name": "u0", "kind": "cont", "vocabulary": ["0", "1"]}],
                  [{"name": 5, "kind": "cont"}]):
        bad_spec.write_text(json.dumps({"label": "class", "features": feats}))
        assert main(["train", "--data", ws["data"], "--spec", str(bad_spec),
                     "--out", str(tmp_path / "m.json")]) == 3, feats
    assert "feature name must be a string" in capsys.readouterr().err


@pytest.mark.parametrize("header, row, tail, features, message", [
    ("a,class", "{i},{y}", "", ["a", "class"], "label 'class' as a feature"),
    ("a,class", "{i},{y}", "12,?\n13,?\n", ["a"], "row 14: missing label"),
    ("a,class", "{i},{y}", "12,\n", ["a"], "row 14: missing label"),
    ("a,a,class", "{i},{i},{y}", "", ["a"], "'a' appears more than once"),
], ids=["label_as_feature", "missing_label", "empty_label", "duplicate_header"])
def test_ingestion_faults_exit_3_without_a_model(tmp_path, capsys, header, row, tail, features,
                                                 message):
    data, spec, model = tmp_path / "d.csv", tmp_path / "s.json", tmp_path / "m.json"
    rows = "".join(row.format(i=i, y=i % 2) + "\n" for i in range(12))
    data.write_text(f"{header}\n{rows}{tail}")
    spec.write_text(json.dumps({"label": "class",
                                "features": [{"name": f, "kind": "cont"} for f in features]}))
    assert main(["train", "--data", str(data), "--spec", str(spec), "--out", str(model)]) == 3
    assert message in capsys.readouterr().err
    assert not model.exists()


def test_string_controllable_flag_exits_3_and_4(ws, tmp_path, capsys):
    spec = _json(Path(ws["spec"]))
    spec["features"][0]["controllable"] = "false"
    bad_spec = tmp_path / "spec.json"
    bad_spec.write_text(json.dumps(spec))
    assert main(["train", "--data", ws["data"], "--spec", str(bad_spec),
                 "--out", str(tmp_path / "m.json")]) == 3
    assert "'controllable' must be true or false" in capsys.readouterr().err
    doc = _json(Path(ws["model"]))
    doc["schema"]["features"][0]["controllable"] = "false"
    bad_model = tmp_path / "model.json"
    bad_model.write_text(json.dumps(doc))
    assert _explain(ws, tmp_path / "o", "--instance", "0", "--model", str(bad_model)) == 4
    assert "'controllable' must be true or false" in capsys.readouterr().err


def test_bad_instance_file_exit_3(ws, tmp_path, capsys):
    with open(ws["data"], newline="") as fh:
        raw = {k: v for k, v in next(csv.DictReader(fh)).items() if k != "class"}
    schema = RandomForest.load(ws["model"]).schema
    name = next(f.name for f in schema.features if not f.is_categorical)
    inst = tmp_path / "instance.json"
    inst.write_text("{not json")
    assert _explain(ws, tmp_path / "o", "--instance", str(inst)) == 3
    assert "not valid JSON" in capsys.readouterr().err
    for value in ("abc", [1], True):
        inst.write_text(json.dumps({**raw, name: value}))
        for cmd in ("explain", "compare"):
            assert main([cmd, "--data", ws["data"], "--spec", ws["spec"], "--model", ws["model"],
                         "--out-dir", str(tmp_path / "o"), "--instance", str(inst)]) == 3
            assert f"feature {name!r}" in capsys.readouterr().err


def _first_row_and_continuous_feature(ws):
    """The workspace CSV's first row of raw feature values, and the name of
    its first continuous feature."""
    with open(ws["data"], newline="") as fh:
        raw = {k: v for k, v in next(csv.DictReader(fh)).items() if k != "class"}
    schema = RandomForest.load(ws["model"]).schema
    return raw, next(f.name for f in schema.features if not f.is_categorical)


@pytest.mark.parametrize("value", ["Infinity", "-Infinity", "1e400", "NaN", "1" + "0" * 400],
                         ids=["inf", "-inf", "1e400", "nan", "int-past-float"])
def test_non_finite_instance_value_exit_3(ws, tmp_path, capsys, value):
    raw, name = _first_row_and_continuous_feature(ws)
    inst = tmp_path / "instance.json"
    inst.write_text(json.dumps({**raw, name: "VALUE"}).replace('"VALUE"', value))
    assert _explain(ws, tmp_path / "o", "--instance", str(inst), "--method", "shap") == 3
    assert f"feature {name!r}: " in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("cell", ["inf", "-inf", "1e400", "nan"])
def test_non_finite_csv_cell_exit_3(ws, tmp_path, capsys, cell):
    _, name = _first_row_and_continuous_feature(ws)
    with open(ws["data"], newline="") as fh:
        rows = list(csv.reader(fh))
    rows[3][rows[0].index(name)] = cell
    data, model = tmp_path / "data.csv", tmp_path / "model.json"
    with open(data, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    assert main(["train", "--data", str(data), "--spec", ws["spec"], "--out", str(model)]) == 3
    want = f"row 4: cannot parse {cell!r} as a finite number for column {name!r}"
    assert want in capsys.readouterr().err
    assert not model.exists()


def test_model_errors_exit_4(ws, tmp_path):
    garbage = tmp_path / "model.json"
    garbage.write_text("this is not a model")
    assert _explain(ws, tmp_path / "o", "--instance", "0",
                    "--model", str(garbage)) == 4
    assert _explain(ws, tmp_path / "o2", "--instance", "0",
                    "--model", str(tmp_path / "absent.json")) == 4


def _model_with(ws, tmp_path, edit) -> str:
    """Path of a copy of the workspace model after ``edit`` changed its document."""
    doc = _json(Path(ws["model"]))
    edit(doc)
    path = tmp_path / "edited_model.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _set_in_tree(key, i, value):
    """Edit that sets entry ``i`` of the first tree's ``key`` list to ``value``."""
    return lambda d: d["trees"][0][key].__setitem__(i, value)


@pytest.mark.parametrize("edit", [
    pytest.param(lambda d: d["schema"]["features"][0].update(kind="ordinal"), id="unknown-kind"),
    pytest.param(lambda d: d["schema"]["features"][0].update(weight=-1.0), id="negative-weight"),
    pytest.param(lambda d: d["schema"]["features"][1].update(name="u0"), id="duplicate-name"),
    pytest.param(lambda d: d["params"].update(n_trees=0), id="zero-trees"),
    pytest.param(lambda d: d["params"].update(max_depth=2.5), id="params-float"),
    pytest.param(lambda d: d["params"].update(n_trees=True), id="params-bool"),
    pytest.param(lambda d: d["schema"]["features"][0].pop("controllable"), id="no-controllable"),
    pytest.param(lambda d: d["schema"]["features"].__setitem__(0, 7), id="entry-not-object"),
    pytest.param(lambda d: d["trees"][0]["left"].__setitem__(0, 10 ** 6), id="child-past-end"),
    # feature 1 is categorical with vocabulary 0, 1, 2; feature 0 is continuous
    pytest.param(lambda d: d["schema"]["features"][1].update(vocabulary="012"),
                 id="string-vocabulary"),
    pytest.param(lambda d: d["schema"]["features"][0].update(vocabulary=["0", "1"]),
                 id="vocabulary-on-cont"),
    pytest.param(lambda d: d["schema"]["features"][0].update(name=5), id="name-not-string"),
    # the model has two classes
    pytest.param(lambda d: d.update(label_values="01"), id="labels-string"),
    pytest.param(lambda d: d.update(label_values=["0"]), id="labels-too-few"),
    # the first tree's root splits, so its left child is node 1
    pytest.param(lambda d: d["trees"][0]["threshold"].__delitem__(slice(1, None)),
                 id="one-threshold"),
    pytest.param(lambda d: d["trees"][0]["is_cat"].__delitem__(slice(1, None)), id="one-is-cat"),
    pytest.param(_set_in_tree("feature", 0, 1.7), id="fractional-feature"),
    pytest.param(_set_in_tree("left", 0, 1.0), id="float-left"),
    pytest.param(_set_in_tree("feature", 0, 2 ** 70), id="feature-past-int64"),
    pytest.param(_set_in_tree("is_cat", 0, "no"), id="string-is-cat"),
    pytest.param(_set_in_tree("threshold", 0, float("nan")), id="nan-threshold"),
    pytest.param(_set_in_tree("threshold", 0, "0.5"), id="string-threshold"),
    pytest.param(_set_in_tree("leaf_prob", -1, ["0.5", "0.5"]), id="string-leaf-prob"),
    pytest.param(lambda d: d.update(n_classes=2.9), id="fractional-n-classes"),
    pytest.param(lambda d: d.update(n_classes="2"), id="string-n-classes"),
    *(pytest.param(lambda d, tree=tree: d["trees"].__setitem__(0, tree), id=name)
      for name, tree in BAD_TREES.items()),
])
def test_bad_model_entry_exits_4(ws, tmp_path, edit):
    model = _model_with(ws, tmp_path, edit)
    assert _explain(ws, tmp_path / "o", "--instance", "0", "--model", model) == 4


@pytest.mark.parametrize("weight", [True, "3", "nan", "inf", float("nan"), float("inf"),
                                    pytest.param(10 ** 400, id="int-past-float")], ids=repr)
def test_bad_feature_weight_exits_3_in_a_spec_and_4_in_a_model(ws, tmp_path, capsys, weight):
    spec = _json(Path(ws["spec"]))
    spec["features"][0]["weight"] = weight
    bad_spec = tmp_path / "spec.json"
    bad_spec.write_text(json.dumps(spec))
    assert main(["train", "--data", ws["data"], "--spec", str(bad_spec),
                 "--out", str(tmp_path / "m.json")]) == 3
    assert "weight must be a finite number" in capsys.readouterr().err
    model = _model_with(ws, tmp_path, lambda d: d["schema"]["features"][0].update(weight=weight))
    assert _explain(ws, tmp_path / "o", "--instance", "0", "--method", "shap",
                    "--model", model) == 4
    assert "weight must be a finite number" in capsys.readouterr().err


def test_model_without_norm_params_still_explains_a_row_index(ws, tmp_path):
    # only a raw-values instance needs the scaling (see the "absent" case above)
    model = _model_with(ws, tmp_path, lambda d: d.pop("norm_params"))
    assert _explain(ws, tmp_path / "o", "--instance", "0", "--method", "shap",
                    "--model", model) == 0


def test_non_utf8_files_exit_with_their_document_code(ws, tmp_path, capsys):
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"label": "café"}'.encode("latin-1"))
    assert main(["train", "--data", ws["data"], "--spec", str(latin1),
                 "--out", str(tmp_path / "m.json")]) == 3
    assert _explain(ws, tmp_path / "o", "--instance", "0", "--model", str(latin1)) == 4
    assert main(["experiment", str(latin1)]) == 3
    assert _explain(ws, tmp_path / "o", "--instance", str(latin1)) == 3
    assert capsys.readouterr().err.count("not valid JSON") == 4


def test_nan_leaves_exit_4(ws, tmp_path, capsys):
    def nan_leaves(doc):
        for tree in doc["trees"]:
            tree["leaf_prob"] = [[float("nan")] * len(row) for row in tree["leaf_prob"]]

    model = _model_with(ws, tmp_path, nan_leaves)
    assert _explain(ws, tmp_path / "o", "--instance", "0", "--method", "shap",
                    "--model", model) == 4
    assert "leaf_prob values must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda p: p.pop(), "norm_params length", id="short"),
    pytest.param(lambda p: p.clear(), "no norm_params", id="absent"),
    # feature 0 is continuous
    pytest.param(lambda p: p.__setitem__(0, [1.0, 1.0]), "degenerate normalization range",
                 id="degenerate"),
    pytest.param(lambda p: p.__setitem__(0, ["a", "b"]), "degenerate normalization range",
                 id="string-bounds"),
    pytest.param(lambda p: p.__setitem__(0, [False, True]), "degenerate normalization range",
                 id="boolean-bounds"),
    pytest.param(lambda p: p.__setitem__(0, [0.0, float("inf")]),
                 "degenerate normalization range", id="infinite-bound"),
])
def test_norm_params_that_do_not_fit_the_schema_exit_4(ws, tmp_path, capsys, edit, message):
    with open(ws["data"], newline="") as fh:
        raw = {k: v for k, v in next(csv.DictReader(fh)).items() if k != "class"}
    inst = tmp_path / "instance.json"
    inst.write_text(json.dumps(raw))
    model = _model_with(ws, tmp_path, lambda d: edit(d["norm_params"]))
    assert _explain(ws, tmp_path / "o", "--instance", str(inst), "--method", "shap",
                    "--model", model) == 4
    assert message in capsys.readouterr().err


def test_non_utf8_data_file_exits_3(ws, tmp_path, capsys):
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes(Path(ws["data"]).read_bytes() + "caf\xe9\n".encode("latin-1"))
    assert main(["train", "--data", str(latin1), "--spec", ws["spec"],
                 "--out", str(tmp_path / "m.json")]) == 3
    assert "not UTF-8" in capsys.readouterr().err


def test_explanation_error_exit_5(tmp_path, capsys):
    # label depends only on the uncontrollable feature, so with it pinned the
    # model is constant and no balanced neighborhood exists
    data = generate_synth(SynthSpec(
        m_controllable=1, m_uncontrollable=1, n_rows=300, seed=3,
        kinds=("cont", "cont"), rule_features=(0,), rule_weights=(1.0,),
    ))
    csv_path, spec_path = tmp_path / "d.csv", tmp_path / "s.json"
    dataset_to_raw_csv(data, csv_path)
    spec_path.write_text(json.dumps(ingestion_spec_for(data).to_dict()))
    model_path = tmp_path / "m.json"
    assert main(["train", "--data", str(csv_path), "--spec", str(spec_path),
                 "--out", str(model_path), "--trees", "30", "--depth", "6"]) == 0
    idx = int(np.argmin(data.X[:, 0]))  # far from the label boundary
    rc = main(["explain", "--data", str(csv_path), "--spec", str(spec_path),
               "--model", str(model_path), "--out-dir", str(tmp_path / "o"),
               "--instance", str(idx), "--method", "cafa",
               "--k", "10", "--pi", "0.3", "--n-perms", "2", "--background", "10"])
    assert rc == 5
    assert "attempts" in capsys.readouterr().err
