#!/usr/bin/env python3
"""Self-test of the benchmark harness on tiny configs; runs in seconds.

    python3 perf/selftest.py

Shows that every metric named in BENCHMARK.json is reported with its unit,
that the tracer restores what it wraps and leaves attributions bit-identical,
and that each property check accepts a real result and rejects a tampered
copy of it. Exits non-zero on the first failure.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import dataclasses
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

from cafa import pipeline
from cafa.forest import ForestParams
from cafa.schema import Dataset

import checks
import harness
import workloads as W

TINY_MODEL = ForestParams(n_trees=5, max_depth=6, seed=0)
TINY_SURROGATE = ForestParams(n_trees=5, max_depth=5)


def tiny(w, **cfg):
    return dataclasses.replace(
        w, model_params=TINY_MODEL,
        cfg=dataclasses.replace(w.cfg, surrogate_params=TINY_SURROGATE, **cfg),
    )


TINY = [
    tiny(W.CovidLocal(), k=15, n_perms=2, background_size=10),
    tiny(W.BreastCompare(), k=20, n_perms=2, n_locals=4, background_size=10),
    tiny(W.LungGlobal(), k=15, n_perms=2, n_locals=4, background_size=10),
]


def expect(cond, what):
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def rejects(check, what):
    expect(bool(check()), f"rejects {what}")


def metric_names(out_root):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: spec["end_to_end"], 1: spec["per_layer"]}
    originals = {n: getattr(pipeline, n) for n in ("cafa_local", "shapley_mc", "train_forest")}
    for w in TINY:
        for trace in (0, 1):
            res = harness.run(w, 1, 0.2, bool(trace), out_root, log=lambda s: None)
            json.dumps(res, allow_nan=False)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == {m["name"]: m["unit"] for m in want[trace]},
                   f"{w.name} --trace {trace} reports every metric with its unit")
            expect(res["attempted"] >= 1, f"{w.name} --trace {trace} attempts operations")
            if w.name == "covid-local":
                expect(res["correct"] and res["failed"] == 0,
                       f"{w.name} --trace {trace} passes its checks")
    expect(all(getattr(pipeline, n) is f for n, f in originals.items()),
           "tracer restores every wrapped function")


def local_checks(work):
    w = TINY[0]
    ctx = w.setup()
    inputs = next(w.rounds(ctx, 3))
    i = inputs[0][0]
    x, f, sch = ctx.data.X[i], ctx.model, ctx.data.schema
    rnd = w.run_round(ctx, inputs, work)
    res, run_dir, k = rnd.results[0], work / str(i), w.cfg.k
    expect(checks.check_local(res, x, f, sch, k, run_dir) == [], "a real result passes")

    unc = sch.uncontrollable_idx

    def with_phi(change, phi0=0.0):
        phi = res.attribution.phi.copy()
        change(phi)
        att = dataclasses.replace(res.attribution, phi=phi, phi0=res.attribution.phi0 + phi0)
        return dataclasses.replace(res, attribution=att)

    rejects(lambda: checks.check_zero_uncontrollable(
        with_phi(lambda p: p.__setitem__(unc[0], 1e-12)).attribution.phi, sch),
        "a nonzero uncontrollable phi")
    rejects(lambda: checks.check_efficiency(with_phi(lambda p: None, phi0=1e-9)),
            "broken efficiency")
    unsplit = sorted(set(range(sch.arity)) - checks.split_features(res.surrogate))
    expect(bool(unsplit), "the tiny surrogate leaves some feature unsplit")
    rejects(lambda: checks.check_unsplit_zero(
        with_phi(lambda p: p.__setitem__(unsplit[0], 1e-12)), sch),
        "nonzero phi on a feature no tree splits on")
    per_row = res.per_row_phi.copy()
    per_row[0, 0] += 1e-6
    rejects(lambda: checks.check_resummation(dataclasses.replace(res, per_row_phi=per_row)),
            "phi that is not the mean of per_row_phi")

    nb = res.neighborhood

    def with_rows(edit_x=None, edit_y=None):
        X, y = nb.data.X.copy(), nb.data.y.copy()
        if edit_x:
            edit_x(X)
        if edit_y:
            edit_y(y)
        data = Dataset(nb.data.schema, X, y, nb.data.norm_params)
        return dataclasses.replace(res, neighborhood=dataclasses.replace(nb, data=data))

    ctrl = sch.controllable_idx

    def far(X):
        for j in ctrl:
            X[0, j] = (x[j] + 1) % sch.vocab_sizes[j] if sch.is_categorical[j] else round(1 - x[j])

    rejects(lambda: checks.check_neighborhood(with_rows(far), x, f, sch, k),
            "a neighborhood row farther than pi")
    rejects(lambda: checks.check_neighborhood(
        with_rows(lambda X: X.__setitem__((0, unc[0]), np.nextafter(X[0, unc[0]], 2))),
        x, f, sch, k), "a pinned column that moved by one ulp")
    a, b = np.flatnonzero(nb.data.y == 0)[0], np.flatnonzero(nb.data.y == 1)[0]
    rejects(lambda: checks.check_neighborhood(
        with_rows(edit_y=lambda y: y.__setitem__([a, b], [1, 0])), x, f, sch, k),
        "labels that are not the argmax of the model")
    rejects(lambda: checks.check_neighborhood(res, x, f, sch, k + 1),
            "class counts other than k")

    csv_path = run_dir / "attribution.csv"
    lines = csv_path.read_text().splitlines()
    j = next(n for n, line in enumerate(lines[1:], 1) if line.split(",")[1] != "0.0")
    name, phi, abs_phi = lines[j].split(",")
    lines[j] = ",".join([name, repr(float(np.nextafter(float(phi), np.inf))), abs_phi])
    csv_path.write_text("\n".join(lines) + "\n")
    rejects(lambda: checks.check_report_roundtrip(run_dir, res.attribution.phi, sch.names),
            "an attribution.csv one ulp off")


def breast_checks(work):
    w = TINY[1]
    ctx = w.setup()
    inputs = next(w.rounds(ctx, 3))
    i = inputs[0][0]
    x, f, sch = ctx.data.X[i], ctx.model, ctx.data.schema
    shap = w.run_round(ctx, inputs, work).extra["shap"][0]
    expect(checks.check_standard_shap(shap, x, f, sch) == [], "real standard Shapley passes")
    rejects(lambda: checks.check_standard_shap(
        dataclasses.replace(shap, phi0=shap.phi0 + 1e-9), x, f, sch),
        "broken standard-Shapley efficiency")
    phi = shap.phi.copy()
    phi[sch.uncontrollable_idx] = 0.0
    phi[sch.controllable_idx[0]] += shap.phi[sch.uncontrollable_idx].sum()
    rejects(lambda: checks.check_standard_shap(dataclasses.replace(shap, phi=phi), x, f, sch),
            "standard Shapley with a zero age/menopause")
    expect(checks.check_agreement(0.41) == [], "controllable r 0.41 passes")
    rejects(lambda: checks.check_agreement(-0.2), "controllable r -0.2")


def global_checks(work):
    w = TINY[2]
    ctx = w.setup()
    g = w.run_round(ctx, next(w.rounds(ctx, 3)), work).extra["global"]
    sch = ctx.data.schema
    top = sch.names[int(g.ranking()[0])]
    expect(checks.check_global(g, sch, (top,)) == [], "a real global result passes")
    rejects(lambda: checks.check_global(g, sch, ("not-a-feature",)),
            "a top-ranked feature outside the planted set")
    mean_phi = g.mean_phi.copy()
    mean_phi[0] += 1e-9
    rejects(lambda: checks.check_global(dataclasses.replace(g, mean_phi=mean_phi), sch, (top,)),
            "mean_phi that is not the per-instance mean")
    rejects(lambda: checks.check_global(
        dataclasses.replace(g, skipped=((0, "imbalanced"),)), sch, (top,)),
        "a skipped instance")


def main():
    out_root = ROOT / ".perf-out"
    out_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_root) as tmp:
        tmp = Path(tmp)
        metric_names(tmp)
        local_checks(tmp / "local")
        breast_checks(tmp / "breast")
        global_checks(tmp / "global")
    print("selftest passed")


if __name__ == "__main__":
    main()
