"""Serialization of attribution results to CSV / JSON / SVG run artifacts.

Every run directory of the CLI and the experiment driver is written by
``write_run`` (one explained instance) or ``write_global_run`` (an aggregate
over instances). Reports never embed wall-clock time; reruns with the same
seed must produce byte-identical CSV and JSON. Floats go through ``repr`` so
values round-trip exactly.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .explain import Attribution, rank_by_magnitude
from .svg import bar_chart, summary_chart


def _py(v):
    """JSON-safe scalar."""
    if isinstance(v, (np.floating, float)):
        return float(v)
    if isinstance(v, (np.integer, int)):
        return int(v)
    return v


def attribution_to_dict(attr: Attribution, names) -> dict:
    names = list(names)
    if len(names) != attr.phi.size:
        raise ValueError("names and phi length mismatch")
    doc = {
        "method": attr.method,
        "phi0": float(attr.phi0),
        "phi": [{"feature": n, "value": float(v)} for n, v in zip(names, attr.phi)],
    }
    if attr.seed is not None:
        doc["seed"] = int(attr.seed)
    return doc


def write_attribution_json(path, attr: Attribution, names, extra: dict | None = None):
    doc = attribution_to_dict(attr, names)
    if extra:
        doc.update({k: _py(v) for k, v in extra.items()})
    write_json(path, doc)


def write_attribution_csv(path, attr: Attribution, names):
    """feature, phi, abs_phi rows sorted by decreasing |phi| (stable)."""
    names = list(names)
    phi = attr.phi
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["feature", "phi", "abs_phi"])
        for j in rank_by_magnitude(phi):
            writer.writerow([names[j], repr(float(phi[j])), repr(abs(float(phi[j])))])


def write_global_csv(path, names, mean_phi, mean_abs_phi):
    names = list(names)
    mean_phi = np.asarray(mean_phi, dtype=np.float64)
    mean_abs_phi = np.asarray(mean_abs_phi, dtype=np.float64)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["feature", "mean_phi", "mean_abs_phi"])
        for j in rank_by_magnitude(mean_abs_phi):
            writer.writerow([names[j], repr(float(mean_phi[j])), repr(float(mean_abs_phi[j]))])


def write_json(path, doc):
    """``doc`` as indented JSON with sorted keys and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def render_local_charts(run_dir, attr: Attribution, names, per_row_phi=None, timestamp=False):
    """bars.svg always; summary.svg when per-row attributions exist."""
    run_dir = Path(run_dir)
    order = rank_by_magnitude(attr.phi)
    bar = bar_chart(
        [names[j] for j in order],
        attr.phi[order],
        title=f"{attr.method} attribution",
        timestamp=timestamp,
    )
    (run_dir / "bars.svg").write_text(bar, encoding="utf-8")
    if per_row_phi is not None:
        summ = summary_chart(
            names,
            per_row_phi,
            title=f"{attr.method} per-row attribution spread",
            timestamp=timestamp,
        )
        (run_dir / "summary.svg").write_text(summ, encoding="utf-8")


def render_global_charts(run_dir, names, mean_phi, per_instance_phi, timestamp=False):
    run_dir = Path(run_dir)
    mean_phi = np.asarray(mean_phi, dtype=np.float64)
    order = rank_by_magnitude(mean_phi)
    bar = bar_chart(
        [names[j] for j in order],
        mean_phi[order],
        title="global attribution (mean phi)",
        timestamp=timestamp,
    )
    (run_dir / "bars.svg").write_text(bar, encoding="utf-8")
    summ = summary_chart(
        names, per_instance_phi, title="per-instance attribution spread", timestamp=timestamp
    )
    (run_dir / "summary.svg").write_text(summ, encoding="utf-8")


def write_run(run_dir, attr: Attribution, names, meta: dict, per_row_phi=None, extra=None,
              timestamp=False) -> Path:
    """Write a local run directory: attribution CSV and JSON (plus ``extra``
    keys), the local charts and ``run_meta.json``."""
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    write_attribution_csv(run_dir / "attribution.csv", attr, names)
    write_attribution_json(run_dir / "attribution.json", attr, names, extra=extra)
    render_local_charts(run_dir, attr, names, per_row_phi=per_row_phi, timestamp=timestamp)
    write_json(run_dir / "run_meta.json", meta)
    return run_dir


def write_global_run(run_dir, phis, names, doc: dict, meta: dict, timestamp=False) -> Path:
    """Write an aggregate run directory from ``phis``, one attribution row per
    explained instance. ``doc`` holds the ``attribution.json`` keys besides
    ``phi`` and ``n_explained``, which come from ``phis``."""
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    phis = np.asarray(phis, dtype=np.float64)
    mean_phi = phis.mean(axis=0)
    mean_abs_phi = np.abs(phis).mean(axis=0)
    write_global_csv(run_dir / "attribution.csv", names, mean_phi, mean_abs_phi)
    phi = [
        {"feature": n, "mean": float(v), "mean_abs": float(a)}
        for n, v, a in zip(names, mean_phi, mean_abs_phi)
    ]
    write_json(run_dir / "attribution.json", {**doc, "n_explained": phis.shape[0], "phi": phi})
    render_global_charts(run_dir, names, mean_phi, phis, timestamp=timestamp)
    write_json(run_dir / "run_meta.json", meta)
    return run_dir
