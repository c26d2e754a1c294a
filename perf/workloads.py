"""The three benchmark workloads.

A workload builds its inputs once (``setup``: data plus the full model, what
``setup_s`` times), then runs rounds of explained instances. A round is the
unit the benchmark repeats and times; it includes writing each instance's
report files. Checks run after the round, outside the timed region.

``rounds`` turns the benchmark seed into the inputs of each round: which
instances to explain and the ``CafaConfig.seed`` to explain them with. The
single-instance workloads hold their query fixed and draw only the config
seed, because the cost of one explanation depends on the query (surrogate
tree depth differs by up to 1.9x between breast patients and 1.6x between
covid days) but barely on the seed (under 2% for the chosen queries).

The program is reached only through module attributes (``pipeline.cafa_local``
and so on), so the tracer can wrap those calls from outside.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from cafa import bench, distance, forest, pipeline, reports, schema
from cafa.forest import ForestParams
from cafa.pipeline import CafaConfig

import checks

ROOT = Path(__file__).resolve().parent.parent
BREAST_CSV = ROOT / "data" / "breast_cancer.csv"


@dataclass
class Context:
    data: object  # Dataset the instances and the background come from
    model: object
    pi: float | None = None


@dataclass
class Round:
    """Outputs of one round, in the order the instances were explained."""

    indices: list
    results: list  # CafaResult per instance
    extra: dict = field(default_factory=dict)


def write_local_reports(run_dir: Path, attr, names, per_row_phi) -> None:
    run_dir.mkdir(parents=True, exist_ok=True)
    reports.write_attribution_csv(run_dir / "attribution.csv", attr, names)
    reports.write_attribution_json(run_dir / "attribution.json", attr, names)
    reports.render_local_charts(run_dir, attr, names, per_row_phi=per_row_phi)


def _fingerprint(arrays) -> bytes:
    return b"".join(np.ascontiguousarray(a, dtype=np.float64).tobytes() for a in arrays)


@dataclass
class CovidLocal:
    """README quickstart: cafa_local on covid training day 25, one per round."""

    name: str = "covid-local"
    model_params: ForestParams = ForestParams(n_trees=100, max_depth=8, seed=0)
    cfg: CafaConfig = CafaConfig(k=100, pi="estimate", n_perms=6, background_size=60, seed=3)
    warmup_locals: int = 4
    ops_per_round: int = 1

    def setup(self) -> Context:
        data = bench.covid_preset(seed=0)
        train, _ = bench.train_test_split(data, 0.3, seed=0)
        return Context(train, forest.train_forest(train, self.model_params))

    def query(self, ctx: Context) -> int:
        return 25

    def rounds(self, ctx: Context, seed: int):
        """Round inputs (instance indices, config seed); the first is the warm-up."""
        rng = np.random.default_rng(seed)
        i = self.query(ctx)
        while True:
            yield [i], int(rng.integers(2**31))

    def run_round(self, ctx: Context, inputs, out_dir: Path, **cfg) -> Round:
        (i,), seed = inputs
        data = ctx.data
        cfg = dataclasses.replace(self.cfg, seed=seed, **cfg)
        res = pipeline.cafa_local(data.X[i], ctx.model, data.schema, cfg, data=data)
        write_local_reports(out_dir / str(i), res.attribution, data.schema.names, res.per_row_phi)
        return Round([i], [res])

    def warmup(self, ctx: Context, inputs, out_dir: Path) -> Round:
        return self.run_round(ctx, inputs, out_dir, n_locals=self.warmup_locals)

    def check_round(self, ctx: Context, rnd: Round, out_dir: Path, warmup: bool = False) -> list:
        """Failure messages per instance of the round."""
        return [
            checks.check_local(res, ctx.data.X[i], ctx.model, ctx.data.schema, self.cfg.k, out_dir / str(i))
            for i, res in zip(rnd.indices, rnd.results)
        ]

    def fingerprint(self, rnd: Round) -> bytes:
        return _fingerprint(
            a for r in rnd.results for a in (r.attribution.phi, [r.attribution.phi0], r.per_row_phi)
        )


@dataclass
class BreastCompare(CovidLocal):
    """Criterion 2: compare_with_shap on its first predicted-recurrence patient."""

    name: str = "breast-compare"
    cfg: CafaConfig = CafaConfig(
        k=200, n_perms=20, n_locals=20, background_size=100,
        surrogate_params=ForestParams(n_trees=150, max_depth=10), seed=17,
    )
    warmup_locals: int = 2

    def setup(self) -> Context:
        data = schema.load_csv(BREAST_CSV, bench.breast_ingestion_spec())
        model = forest.train_forest(data, self.model_params)
        return Context(data, model, pi=distance.estimate_proximity(data, seed=0))

    def query(self, ctx: Context) -> int:
        pos = np.flatnonzero(ctx.model.predict_classes(ctx.data.X) == 1)
        return int(np.random.default_rng(2024).choice(pos, size=20, replace=False)[0])

    def run_round(self, ctx: Context, inputs, out_dir: Path, **cfg) -> Round:
        (i,), seed = inputs
        data, names = ctx.data, ctx.data.schema.names
        cfg = dataclasses.replace(self.cfg, pi=ctx.pi, seed=seed, **cfg)
        out = pipeline.compare_with_shap(data.X[i], ctx.model, data.schema, cfg, data=data)
        res = out.cafa
        write_local_reports(out_dir / str(i), res.attribution, names, res.per_row_phi)
        reports.write_attribution_csv(out_dir / str(i) / "shap.csv", out.shap, names)
        return Round([i], [res], {"shap": [out.shap], "r": [out.pearson_controllable]})

    def check_round(self, ctx: Context, rnd: Round, out_dir: Path, warmup: bool = False) -> list:
        fails = super().check_round(ctx, rnd, out_dir)
        extra = zip(rnd.indices, rnd.extra["shap"], rnd.extra["r"])
        for pos, (i, shap, r) in enumerate(extra):
            fails[pos] += checks.check_standard_shap(shap, ctx.data.X[i], ctx.model, ctx.data.schema)
            # The warm-up averages two rows, too few for r to be meaningful
            # (one warm-up gave r = -0.12).
            if not warmup:
                fails[pos] += checks.check_agreement(r)
        return fails

    def fingerprint(self, rnd: Round) -> bytes:
        return super().fingerprint(rnd) + _fingerprint(
            a for s in rnd.extra["shap"] for a in (s.phi, [s.phi0])
        )


@dataclass
class LungGlobal(CovidLocal):
    """cafa_global over seeded lung training rows; surrogate fitting dominates."""

    name: str = "lung-global"
    model_params: ForestParams = ForestParams(n_trees=30, max_depth=8, seed=0)
    cfg: CafaConfig = CafaConfig(k=100, pi="estimate", n_perms=2, n_locals=20, background_size=30, seed=5)
    ops_per_round: int = 12
    planted: tuple = ("m_stage", "t_stage", "n_stage")

    def setup(self) -> Context:
        data = bench.lung_preset(seed=0)
        train, _ = bench.train_test_split(data, 0.3, seed=0)
        return Context(train, forest.train_forest(train, self.model_params))

    def rounds(self, ctx: Context, seed: int):
        pool = np.random.default_rng(seed).permutation(ctx.data.n_rows)
        n = self.ops_per_round
        for r in itertools.count():
            start = (r * n) % (len(pool) - n + 1)
            yield [int(i) for i in pool[start:start + n]], self.cfg.seed

    def run_round(self, ctx: Context, inputs, out_dir: Path, **cfg) -> Round:
        idx, seed = inputs
        data, names = ctx.data, ctx.data.schema.names
        cfg = dataclasses.replace(self.cfg, seed=seed, **cfg)
        g = pipeline.cafa_global(data.X[idx], ctx.model, data.schema, cfg, data=data)
        results = [res for _, res in g.per_instance]
        for pos, res in g.per_instance:
            write_local_reports(out_dir / str(idx[pos]), res.attribution, names, res.per_row_phi)
        gdir = out_dir / f"global-{idx[0]}"
        gdir.mkdir(parents=True, exist_ok=True)
        reports.write_global_csv(gdir / "global.csv", names, g.mean_phi, g.mean_abs_phi)
        reports.render_global_charts(gdir, names, g.mean_phi, np.stack([r.attribution.phi for r in results]))
        return Round([idx[pos] for pos, _ in g.per_instance], results, {"global": g, "asked": idx})

    def warmup(self, ctx: Context, inputs, out_dir: Path) -> Round:
        idx, seed = inputs
        return self.run_round(ctx, (idx[:1], seed), out_dir)

    def check_round(self, ctx: Context, rnd: Round, out_dir: Path, warmup: bool = False) -> list:
        fails = super().check_round(ctx, rnd, out_dir)
        # Round-level properties fail every instance of the round. The
        # warm-up explains one instance, too few for the ranking check.
        planted = None if warmup else self.planted
        shared = checks.check_global(rnd.extra["global"], ctx.data.schema, planted)
        fails += [["skipped"]] * (len(rnd.extra["asked"]) - len(fails))
        return [f + shared for f in fails]

    def fingerprint(self, rnd: Round) -> bytes:
        return super().fingerprint(rnd) + _fingerprint([rnd.extra["global"].mean_phi])


WORKLOADS = {w.name: w for w in (CovidLocal(), BreastCompare(), LungGlobal())}
