"""Which program functions the traced run wraps, and the per-layer metrics.

Functions are wrapped where their caller looks them up: ``cafa.pipeline``
imports ``train_forest``, ``shapley_mc`` and the rest by name, so wrapping
``cafa.explain.shapley_mc`` alone would record nothing.
``RandomForest.predict_proba`` is wrapped on the class, which catches every
forest: the full model and each surrogate.
"""

from __future__ import annotations

import inspect
from math import comb
from pathlib import Path

import numpy as np

from cafa import bench, distance, explain, forest, pipeline, reports, schema
from cafa.forest import RandomForest
from cafa.schema import Dataset

from tracer import Tracer

MIB = float(1 << 20)


def _binder(fn):
    sig = inspect.signature(fn)

    def bind(args, kwargs):
        b = sig.bind(*args, **kwargs)
        b.apply_defaults()
        return b.arguments

    return bind


_mc_args = _binder(explain.shapley_mc)
_exact_args = _binder(explain.shapley_exact)
_pi_args = _binder(distance.estimate_proximity)


def _count_mc(out, *args, **kwargs):
    a = _mc_args(args, kwargs)
    x, bg, p = np.asarray(a["x"], dtype=np.float64), a["bg"], a["n_perms"]
    # A chain step pins one column; its rows repeat the previous step's rows
    # exactly where the background already holds the query's value. Every
    # permutation pins every column once.
    return {
        "coalition_rows": p * (x.size + 1) * bg.size,
        "repeat_rows": p * int(np.count_nonzero(bg.rows == x)),
    }


def _count_exact(out, *args, **kwargs):
    a = _exact_args(args, kwargs)
    return {"coalition_rows": (1 << np.asarray(a["x"]).size) * a["bg"].size}


def _count_fit(out, data, params=None):
    return {"fit_rows": data.n_rows * out.params.n_trees}


def _count_sampler(out, *args, **kwargs):
    st = out.stats
    return {"attempts": st["attempts"], "accepted": st["attempts"] - st["rejections_distance"]}


def _count_pi(out, *args, **kwargs):
    a = _pi_args(args, kwargs)
    return {"pairs": min(a["n_pairs"], comb(a["data"].n_rows, 2))}


def _count_predict(out, model, X):
    rows, cols = np.shape(X)
    return {
        "rows": rows,
        "node_steps": rows * sum(t.depth for t in model.trees),
        "batch_bytes": rows * cols * 8,
    }


def _count_file(out, path, *args, **kwargs):
    return {"bytes": Path(path).stat().st_size}


def _count_charts(out, run_dir, *args, **kwargs):
    return {"bytes": sum(p.stat().st_size for p in Path(run_dir).glob("*.svg"))}


def _enter_local(tracer: Tracer) -> None:
    # Inside cafa_global every cafa_local is a new explained instance.
    if tracer.open_names()[-1:] == ["pipeline.cafa_global"]:
        tracer.instance += 1


def setup_tracer() -> Tracer:
    t = Tracer()
    for name in ("covid_preset", "lung_preset", "breast_ingestion_spec", "train_test_split"):
        t.add(bench, name, "bench." + name)
    t.add(schema, "load_csv", "schema.load_csv")
    t.add(Dataset, "__post_init__", "schema.dataset")
    t.add(forest, "train_forest", "forest.fit_model")
    t.add(distance, "estimate_proximity", "distance.estimate_proximity", _count_pi)
    return t


def op_tracer() -> Tracer:
    t = Tracer()
    t.add(pipeline, "cafa_local", "pipeline.cafa_local", on_enter=_enter_local)
    for name in ("cafa_global", "compare_with_shap", "standard_shap"):
        t.add(pipeline, name, "pipeline." + name)
    t.add(pipeline, "train_forest", "forest.fit_surrogate", _count_fit)
    t.add(pipeline, "generate_neighborhood", "sampler.generate", _count_sampler)
    t.add(pipeline, "shapley_mc", "explain.mc", _count_mc)
    t.add(pipeline, "shapley_exact", "explain.exact", _count_exact)
    t.add(pipeline, "estimate_proximity", "distance.estimate_proximity", _count_pi)
    t.add(RandomForest, "predict_proba", "forest.predict", _count_predict)
    for name in ("write_attribution_csv", "write_attribution_json", "write_global_csv"):
        t.add(reports, name, "reports.write", _count_file)
    for name in ("render_local_charts", "render_global_charts"):
        t.add(reports, name, "reports.write", _count_charts)
    return t


class _Sums:
    """Self time and counts summed per span name."""

    def __init__(self, tracer: Tracer):
        self.self_s = {}
        self.counts = {}
        self.calls = {}
        for s, st in zip(tracer.spans, tracer.self_times()):
            self.self_s[s.name] = self.self_s.get(s.name, 0.0) + st
            self.calls[s.name] = self.calls.get(s.name, 0) + 1
            for k, v in s.counts.items():
                key = (s.name, k)
                self.counts[key] = self.counts.get(key, 0) + v

    def time(self, *names) -> float:
        return sum(self.self_s.get(n, 0.0) for n in names)

    def prefix_time(self, prefix: str) -> float:
        return sum(v for n, v in self.self_s.items() if n.startswith(prefix))

    def count(self, name, key) -> int:
        return self.counts.get((name, key), 0)


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def setup_metrics(tracer: Tracer) -> dict:
    s = _Sums(tracer)
    return {
        "bench.generate_s": (s.prefix_time("bench."), "s"),
        "schema.load_s": (s.prefix_time("schema."), "s"),
        "forest.fit_model_s": (s.time("forest.fit_model"), "s"),
    }


def op_metrics(tracer: Tracer, n_instances: int, round_name: str) -> dict:
    """Per explained instance, from the spans of the traced rounds."""
    s = _Sums(tracer)
    n = n_instances
    spans = tracer.spans
    round_s = sum(sp.duration for sp in spans if sp.name == round_name)
    under_explain = [
        i for i, sp in enumerate(spans)
        if sp.name == "forest.predict"
        and any(a.name.startswith("explain.") for a in tracer.ancestors(i))
    ]
    predict_in_explain = sum(spans[i].duration for i in under_explain)
    batch = max((spans[i].counts["batch_bytes"] for i in under_explain), default=0)
    mc_rows = s.count("explain.mc", "coalition_rows")
    predict_s = s.time("forest.predict")
    return {
        "forest.fit_surrogate_s": (s.time("forest.fit_surrogate") / n, "s"),
        "forest.fit_rows": (s.count("forest.fit_surrogate", "fit_rows") / n, "rows"),
        "forest.fit_surrogate_share": (_ratio(s.time("forest.fit_surrogate"), round_s), "ratio"),
        "forest.predict_s": (predict_s / n, "s"),
        "forest.predict_calls": (s.calls.get("forest.predict", 0) / n, "count"),
        "forest.predict_rows": (s.count("forest.predict", "rows") / n, "rows"),
        "forest.rows_per_s": (_ratio(s.count("forest.predict", "rows"), predict_s), "rows/s"),
        "forest.node_steps": (s.count("forest.predict", "node_steps") / n, "steps"),
        "explain.mc_self_s": (s.time("explain.mc") / n, "s"),
        "explain.exact_self_s": (s.time("explain.exact") / n, "s"),
        "explain.coalition_rows": (
            (mc_rows + s.count("explain.exact", "coalition_rows")) / n, "rows"),
        "explain.repeat_share": (_ratio(s.count("explain.mc", "repeat_rows"), mc_rows), "ratio"),
        "explain.batch_mb": (batch / MIB, "MiB"),
        "explain.predict_share": (_ratio(predict_in_explain, round_s), "ratio"),
        "sampler.self_s": (s.time("sampler.generate") / n, "s"),
        "sampler.attempts": (s.count("sampler.generate", "attempts") / n, "count"),
        "sampler.acceptance": (
            _ratio(s.count("sampler.generate", "accepted"),
                   s.count("sampler.generate", "attempts")), "ratio"),
        "distance.pi_s": (s.time("distance.estimate_proximity") / n, "s"),
        "distance.pairs": (s.count("distance.estimate_proximity", "pairs") / n, "count"),
        "pipeline.self_s": (s.prefix_time("pipeline.") / n, "s"),
        "reports.write_s": (s.time("reports.write") / n, "s"),
        "reports.bytes": (s.count("reports.write", "bytes") / n, "bytes"),
    }
