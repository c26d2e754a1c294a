#!/usr/bin/env python3
"""Regenerate the shipped data/ files.

The breast-recurrence table is a deterministic simulation; rerunning this
script reproduces data/breast_cancer.csv and its ingestion spec byte for
byte. A real export with the same columns and codes can be dropped in as a
replacement without touching any code.
"""

import csv
import json
from pathlib import Path

import numpy as np

from cafa.bench import breast_ingestion_spec
from cafa.schema import MISSING_CELL

DATA = Path(__file__).resolve().parent.parent / "data"

_BREAST_ROWS_TOTAL = 286
_BREAST_POSITIVES = 85


def breast_rows(seed: int = 7) -> tuple:
    """(header, rows) for the recurrence table, with a few missing cells.

    Deterministic simulation matching the published table's shape: 286
    rows, 85 recurrence cases, age and menopause outside the treatment
    team's control but genuinely predictive (younger, premenopausal
    patients recur more often here), so an unconstrained explainer must
    attribute to them. Header and cell labels come from the spec.
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
    tumor_size = np.clip(np.round(rng.normal(4.6 + 0.7 * (deg_malig - 1), 2.1)), 0, 11)
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

    spec = breast_ingestion_spec()
    codes = dict(age=age, menopause=menopause, tumor_size=tumor_size.astype(np.int64),
                 inv_nodes=inv_nodes, node_caps=node_caps, deg_malig=deg_malig - 1,
                 breast=breast, breast_quad=breast_quad, irradiat=irradiat)
    header = [c.name for c in spec.columns] + [spec.label]
    rows = [[c.vocabulary[codes[c.name][i]] for c in spec.columns] for i in range(n)]
    missing = {"node_caps": rng.choice(n, size=8, replace=False),
               "breast_quad": rng.choice(n, size=1, replace=False)}
    for name, at in missing.items():
        for i in at:
            rows[i][header.index(name)] = MISSING_CELL
    return header, [row + [str(label)] for row, label in zip(rows, y)]


def write_breast_csv(path, seed: int = 7) -> None:
    header, rows = breast_rows(seed)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def main(out_dir=DATA):
    """Write both files into ``out_dir``."""
    write_breast_csv(out_dir / "breast_cancer.csv")
    with open(out_dir / "breast_cancer.spec.json", "w", encoding="utf-8") as fh:
        json.dump(breast_ingestion_spec().to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out_dir / 'breast_cancer.csv'}")
    print(f"wrote {out_dir / 'breast_cancer.spec.json'}")


if __name__ == "__main__":
    main()
