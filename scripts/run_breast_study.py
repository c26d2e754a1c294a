#!/usr/bin/env python3
"""Recurrence-table study: hard zeros on fixed patient traits, plus agreement.

Trains a forest on the shipped breast-recurrence table, explains a sample of
predicted-recurrence patients with both the controllable-factor pipeline and
standard Shapley, and prints a side-by-side table. Age and menopause are
outside the treatment team's control: the pipeline must give them exactly
zero while standard Shapley spends attribution on them.

Usage: python scripts/run_breast_study.py [--n 10] [--out-dir runs/breast]
"""

import argparse
import time
from pathlib import Path

import numpy as np

from cafa.distance import estimate_proximity
from cafa.forest import ForestParams, accuracy, train_forest
from cafa.pipeline import CafaConfig, compare_with_shap
from cafa.reports import write_attribution_csv, write_attribution_json
from cafa.schema import IngestionSpec, load_csv

ROOT = Path(__file__).resolve().parent.parent


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=10, help="patients to explain")
    ap.add_argument("--seed", type=int, default=17)
    ap.add_argument("--out-dir", default="runs/breast")
    args = ap.parse_args()

    spec = IngestionSpec.from_json(ROOT / "data" / "breast_cancer.spec.json")
    data = load_csv(ROOT / "data" / "breast_cancer.csv", spec)
    model = train_forest(data, ForestParams(n_trees=100, max_depth=8, seed=0))
    print(f"{data.n_rows} rows, training accuracy {accuracy(model, data):.3f}")

    pi = estimate_proximity(data, seed=0)
    print(f"estimated proximity threshold pi = {pi:.4f}")
    cfg = CafaConfig(
        k=200, pi=pi, n_perms=20, n_locals=20, background_size=100,
        surrogate_params=ForestParams(n_trees=150, max_depth=10), seed=args.seed,
    )

    preds = model.predict_classes(data.X)
    pos = np.flatnonzero(preds == 1)
    idx = np.random.default_rng(2024).choice(pos, size=args.n, replace=False)

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    names = data.schema.names
    unc = data.schema.uncontrollable_idx
    rs = []
    t0 = time.monotonic()
    for i in idx:
        res = compare_with_shap(data.X[i], model, data.schema, cfg, data=data)
        rs.append(res.pearson_controllable)
        run = out / f"patient_{i}"
        run.mkdir(exist_ok=True)
        write_attribution_csv(run / "attribution.csv", res.cafa.attribution, names)
        write_attribution_json(run / "attribution.json", res.cafa.attribution, names)
        write_attribution_csv(run / "shap.csv", res.shap, names)
        zeros = ", ".join(f"{names[j]}={res.cafa.attribution.phi[j]:+.4f}" for j in unc)
        leak = ", ".join(f"{names[j]}={res.shap.phi[j]:+.4f}" for j in unc)
        print(f"patient {i:3d}  r={res.pearson_controllable:+.3f}  "
              f"pinned [{zeros}]  standard shap [{leak}]")
    print(f"mean agreement r = {np.mean(rs):+.3f} over {args.n} patients "
          f"({time.monotonic() - t0:.1f}s); reports in {out}/")


if __name__ == "__main__":
    main()
