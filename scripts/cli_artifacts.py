#!/usr/bin/env python3
"""Write the run directories of a fixed list of CLI commands, to compare two checkouts.

Runs `cafa synth`, `train`, `explain --method cafa|shap|lime`, `global`,
`compare` and `experiment` on the covid and lung presets, a default synth
table and the shipped breast table; the breast experiment reads that table
through the `csv` dataset kind, and one synth `explain` reads its instance
from a raw-values JSON file. Each command runs in a fresh process whose
PYTHONPATH is the given `src/` directory, inside the output directory and
with paths relative to it, and its stdout goes to `commands.log`. Two
checkouts that write the same bytes then compare with one `diff -r`:

    python scripts/cli_artifacts.py path/to/a/src runs_a
    python scripts/cli_artifacts.py path/to/b/src runs_b
    diff -r runs_a runs_b
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

DATA = Path(__file__).resolve().parent.parent / "data"

CAFA = ["--k", "60", "--background", "40", "--surrogate-trees", "30", "--surrogate-depth", "6"]


def _data(name):
    return ["--data", f"{name}.csv", "--spec", f"{name}.spec.json"]


def _run(name, *argv):
    return [*_data(name), "--model", f"{name}.model.json", *argv, *CAFA]


COMMANDS = [
    ["synth", "--kind", "covid", "--out", "covid.csv", "--spec-out", "covid.spec.json"],
    ["train", *_data("covid"), "--out", "covid.model.json", "--trees", "30", "--seed", "1"],
    *(["explain", *_run("covid", "--method", method, "--instance", "25",
                        "--out-dir", f"covid/explain-{method}", "--seed", "3",
                        "--lime-samples", "500")]
      for method in ("cafa", "shap", "lime")),
    ["global", *_run("covid", "--sample", "4", "--n-locals", "30", "--out-dir", "covid/global",
                     "--seed", "1")],
    ["compare", *_run("covid", "--instance", "25", "--out-dir", "covid/compare", "--seed", "3")],
    ["synth", "--kind", "lung", "--seed", "2", "--out", "lung.csv", "--spec-out", "lung.spec.json"],
    ["train", *_data("lung"), "--out", "lung.model.json", "--trees", "30", "--depth", "6"],
    ["explain", *_run("lung", "--instance", "7", "--out-dir", "lung/explain", "--pi", "0.4")],
    ["synth", "--out", "synth.csv", "--spec-out", "synth.spec.json"],
    ["train", *_data("synth"), "--out", "synth.model.json", "--trees", "40", "--mtry", "3"],
    ["explain", *_run("synth", "--instance", "5", "--out-dir", "synth/explain", "--seed", "7")],
    ["explain", *_run("synth", "--instance", "synth.instance.json",
                      "--out-dir", "synth/explain-raw", "--seed", "7")],
    ["global", *_run("synth", "--sample", "5", "--out-dir", "synth/global")],
    ["train", *_data("breast"), "--out", "breast.model.json", "--trees", "40"],
    ["compare", *_run("breast", "--instance", "4", "--out-dir", "breast/compare")],
    ["experiment", "experiment.json"],
    ["experiment", "breast_experiment.json"],
]

# Raw values of the default synth table's features, each continuous one
# well inside the range that table spans.
SYNTH_INSTANCE = {"u0": 0.5, "u1": "1", "c0": 0.25, "c1": "3", "c2": 0.75, "c3": "2"}

EXPERIMENT = {
    "dataset": {"kind": "synth", "m_controllable": 3, "m_uncontrollable": 2, "n_rows": 400,
                "noise": 0.1, "seed": 2},
    "model": {"n_trees": 30, "max_depth": 6},
    "cafa": {"k": 40, "pi": 0.5, "background_size": 30,
             "surrogate_params": {"n_trees": 20, "max_depth": 5}},
    "sample": 4,
    "instance": 3,
    "out_dir": "experiment",
    "seed": 1,
}

BREAST_EXPERIMENT = {
    "dataset": {"kind": "csv", "path": "breast.csv", "spec": "breast.spec.json"},
    "model": {"n_trees": 30, "max_depth": 6, "seed": 4},
    "cafa": {"k": 40, "pi": "estimate", "background_size": 30,
             "surrogate_params": {"n_trees": 20, "max_depth": 6}},
    "sample": 3,
    "instance": 4,
    "out_dir": "breast/experiment",
    "seed": 2,
}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src", help="the src/ directory of the checkout to run")
    ap.add_argument("out_dir", help="directory to write the runs into; must not exist")
    args = ap.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True)
    shutil.copyfile(DATA / "breast_cancer.csv", out / "breast.csv")
    shutil.copyfile(DATA / "breast_cancer.spec.json", out / "breast.spec.json")
    for name, doc in (("experiment", EXPERIMENT), ("breast_experiment", BREAST_EXPERIMENT),
                      ("synth.instance", SYNTH_INSTANCE)):
        (out / f"{name}.json").write_text(json.dumps(doc, indent=2) + "\n")
    env = {**os.environ, "PYTHONPATH": str(Path(args.src).resolve())}
    with open(out / "commands.log", "w", encoding="utf-8") as log:
        for argv in COMMANDS:
            print("cafa", *argv, flush=True)
            log.write(f"$ cafa {' '.join(argv)}\n")
            log.flush()
            subprocess.run([sys.executable, "-m", "cafa.cli", *argv], cwd=out, env=env,
                           stdout=log, check=True)
    print(f"{len(COMMANDS)} commands wrote {out}")


if __name__ == "__main__":
    main()
