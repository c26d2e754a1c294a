"""Property checks on the program's outputs.

Each check returns a list of failure messages (empty when it holds). None
of them compares against a stored copy of earlier output: every expected
value is recomputed here from the inputs, the returned models, or the
definition of the property.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

# Same tolerance as acceptance criterion 7 (re-summation of per-row values).
SUM_TOL = 1e-12
# Shapley efficiency: errors measured at the parent commit are ~2e-16.
EFFICIENCY_TOL = 1e-12
DISTANCE_TOL = 1e-12


def _bits(v) -> str:
    return float(v).hex()


def _distance(rows: np.ndarray, x: np.ndarray, schema) -> np.ndarray:
    """Weighted mixed-type distance, written out from the schema weights."""
    d = np.zeros(rows.shape[0])
    for j in range(schema.arity):
        if schema.is_categorical[j]:
            diff = (rows[:, j] != x[j]).astype(np.float64)
        else:
            diff = np.abs(rows[:, j] - x[j])
        d += schema.weights[j] * diff
    return d / math.fsum(schema.weights)


def split_features(forest) -> set[int]:
    used = set()
    for tree in forest.trees:
        used.update(int(f) for f in tree.feature if f >= 0)
    return used


def check_zero_uncontrollable(phi, schema) -> list[str]:
    unc = schema.uncontrollable_idx
    bad = [schema.names[j] for j in unc if not phi[j] == 0.0]
    return [f"uncontrollable phi not exactly 0.0: {bad}"] if bad else []


def check_efficiency(res) -> list[str]:
    """phi0 + sum(phi) equals the surrogate's mean class-1 probability."""
    rows = res.neighborhood.data.X[res.explained_rows]
    target = float(np.mean(res.surrogate.predict_proba(rows)[:, 1]))
    att = res.attribution
    err = abs(att.phi0 + math.fsum(att.phi) - target)
    return [f"efficiency error {err:.3g} > {EFFICIENCY_TOL}"] if err > EFFICIENCY_TOL else []


def check_unsplit_zero(res, schema) -> list[str]:
    used = split_features(res.surrogate)
    bad = [schema.names[j] for j in range(schema.arity)
           if j not in used and not res.attribution.phi[j] == 0.0]
    return [f"features no surrogate tree splits on have nonzero phi: {bad}"] if bad else []


def check_resummation(res) -> list[str]:
    per_row = res.per_row_phi
    n = per_row.shape[0]
    resum = np.array([math.fsum(per_row[:, j]) / n for j in range(per_row.shape[1])])
    err = float(np.max(np.abs(res.attribution.phi - resum)))
    return [f"phi differs from fsum of per_row_phi by {err:.3g}"] if err > SUM_TOL else []


def check_neighborhood(res, x, f, schema, k: int) -> list[str]:
    """Distance <= pi, pinned columns bit-equal, k rows per class, labels = argmax f."""
    nb = res.neighborhood
    rows, labels = nb.data.X, nb.data.y
    out = []
    if not np.array_equal(nb.origin, x):
        out.append("neighborhood origin differs from the query")
    d = _distance(rows, x, schema)
    if np.any(d > nb.pi + DISTANCE_TOL):
        out.append(f"{int(np.sum(d > nb.pi + DISTANCE_TOL))} rows farther than pi={nb.pi}")
    unc = schema.uncontrollable_idx
    pinned = np.tile(x[unc], (rows.shape[0], 1))
    if not np.array_equal(rows[:, unc].view(np.uint64), pinned.view(np.uint64)):
        out.append("pinned columns differ from the query")
    counts = np.bincount(labels)
    present = counts[counts > 0]
    if present.size < 2 or np.any(present != k):
        out.append(f"class counts {counts.tolist()} are not exactly k={k} per class")
    if not np.array_equal(np.argmax(f.predict_proba(rows), axis=1), labels):
        out.append("labels differ from the argmax of the model")
    return out


def check_report_roundtrip(run_dir: Path, phi, names) -> list[str]:
    """attribution.csv and attribution.json parse back to phi bit for bit."""
    want = {n: _bits(v) for n, v in zip(names, phi)}
    try:
        with open(run_dir / "attribution.csv", newline="", encoding="utf-8") as fh:
            got = {r["feature"]: _bits(float(r["phi"])) for r in csv.DictReader(fh)}
        doc = json.loads((run_dir / "attribution.json").read_text(encoding="utf-8"))
        got_json = {e["feature"]: _bits(e["value"]) for e in doc["phi"]}
    except (OSError, KeyError, TypeError, ValueError) as exc:
        return [f"attribution report unreadable: {exc!r}"]
    out = []
    if got != want:
        out.append("attribution.csv does not parse back to phi bit for bit")
    if got_json != want:
        out.append("attribution.json does not parse back to phi bit for bit")
    return out


def check_local(res, x, f, schema, k: int, run_dir: Path) -> list[str]:
    """Every per-instance property of one cafa_local result."""
    return (
        check_zero_uncontrollable(res.attribution.phi, schema)
        + check_efficiency(res)
        + check_unsplit_zero(res, schema)
        + check_resummation(res)
        + check_neighborhood(res, x, f, schema, k)
        + check_report_roundtrip(run_dir, res.attribution.phi, schema.names)
    )


def check_standard_shap(shap, x, f, schema) -> list[str]:
    """Exact standard Shapley: efficiency against f(x), nonzero pinned traits."""
    out = []
    target = float(f.predict_proba(x[None, :])[0, 1])
    err = abs(shap.phi0 + math.fsum(shap.phi) - target)
    if err > EFFICIENCY_TOL:
        out.append(f"standard Shapley efficiency error {err:.3g} > {EFFICIENCY_TOL}")
    zero = [schema.names[j] for j in schema.uncontrollable_idx if shap.phi[j] == 0.0]
    if zero:
        out.append(f"standard Shapley gives exactly zero to {zero}")
    return out


def check_agreement(r: float) -> list[str]:
    """Controllable attributions point the same way as standard Shapley."""
    return [] if r > 0.0 else [f"controllable Pearson r {r:.3f} is not positive"]


def check_global(g, schema, planted=None) -> list[str]:
    """mean_phi is the per-instance mean, nothing skipped, a planted feature on top.

    The ranking is only checked when ``planted`` is given: one instance alone
    can rank another feature first (2 of 40 single lung instances did).
    """
    out = []
    if g.skipped:
        out.append(f"{len(g.skipped)} instances skipped: {g.skipped[0][1]}")
    phis = np.stack([r.attribution.phi for _, r in g.per_instance])
    n = phis.shape[0]
    resum = np.array([math.fsum(phis[:, j]) / n for j in range(phis.shape[1])])
    err = float(np.max(np.abs(np.asarray(g.mean_phi) - resum)))
    if err > SUM_TOL:
        out.append(f"mean_phi differs from the per-instance mean by {err:.3g}")
    top = schema.names[int(g.ranking()[0])]
    if planted is not None and top not in planted:
        out.append(f"top-ranked feature {top!r} is not one of {sorted(planted)}")
    return out
