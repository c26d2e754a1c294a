#!/usr/bin/env python3
"""Epidemic-policy study: rank containment measures, zero out the context.

Trains a forest on the simulated regional epidemic, aggregates explanations
over a seeded sample of days, and prints the measure ranking. Case counts,
deaths, weather, and region are facts on the ground, not decisions, so their
attributions must be exactly zero; the planted strongest lever (contact
restrictions) should surface at the top.

Usage: python scripts/run_covid_study.py [--sample 12] [--out-dir runs/covid]
"""

import argparse
import time
from pathlib import Path

import numpy as np

from cafa.bench import covid_preset, train_test_split
from cafa.forest import ForestParams, accuracy, train_forest
from cafa.pipeline import CafaConfig, cafa_global
from cafa.reports import render_global_charts, write_global_csv


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sample", type=int, default=12, help="days to explain")
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--out-dir", default="runs/covid")
    args = ap.parse_args()

    data = covid_preset(seed=0)
    tr, te = train_test_split(data, test_fraction=0.3, seed=0)
    model = train_forest(tr, ForestParams(n_trees=100, max_depth=8, seed=0))
    print(f"{data.n_rows} region-days; test accuracy {accuracy(model, te):.3f}")

    idx = np.sort(np.random.default_rng(42).choice(tr.n_rows, size=args.sample, replace=False))
    cfg = CafaConfig(
        k=100, pi="estimate", n_perms=6, background_size=60, n_locals=120,
        surrogate_params=ForestParams(n_trees=60, max_depth=8), seed=args.seed,
    )
    t0 = time.monotonic()
    res = cafa_global(tr.X[idx], model, data.schema, cfg, data=tr)
    names = data.schema.names
    print(f"explained {res.n_explained} days, skipped {len(res.skipped)}, "
          f"pi = {res.pi:.4f} ({time.monotonic() - t0:.1f}s)")
    print(f"{'feature':18s} {'mean |phi|':>10s} {'mean phi':>10s}")
    for j in res.ranking():
        tag = "" if data.schema.features[j].controllable else "  (held fixed)"
        print(f"{names[j]:18s} {res.mean_abs_phi[j]:10.4f} {res.mean_phi[j]:+10.4f}{tag}")

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_global_csv(out / "attribution.csv", names, res.mean_phi, res.mean_abs_phi)
    render_global_charts(out, names, res.mean_phi, res.phis)
    print(f"reports in {out}/")


if __name__ == "__main__":
    main()
