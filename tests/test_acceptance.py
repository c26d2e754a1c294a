"""Acceptance suite: one test per release criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete. Each test prints ``[criterion N] <what it checks>: PASS`` on
success; a failed assertion fails the test the usual way.
"""

import contextlib
import itertools
import json
import math
import time
from math import factorial

import numpy as np
import pytest

from cafa.bench import SynthSpec, covid_preset, generate_synth, train_test_split
from cafa.cli import main as cli_main
from cafa.distance import delta, delta_to_rows, estimate_proximity
from cafa.errors import NeighborhoodImbalanceError
from cafa.explain import Background, derive_seed, shapley_exact
from cafa.forest import ForestParams, accuracy, train_forest
from cafa.pipeline import CafaConfig, cafa_global, cafa_local, compare_with_shap, standard_shap
from cafa.sampler import generate_neighborhood

from .conftest import ProbModel, coalition_value, make_schema, random_instance


@contextlib.contextmanager
def criterion(n, label):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[criterion {n}] {label}: FAIL ({time.monotonic() - t0:.1f}s)", flush=True)
        raise
    print(f"[criterion {n}] {label}: PASS ({time.monotonic() - t0:.1f}s)", flush=True)


@pytest.fixture(scope="module")
def breast_model(breast_data):
    return train_forest(breast_data, ForestParams(n_trees=100, max_depth=8, seed=0))


@pytest.fixture(scope="module")
def breast_pi(breast_data):
    return estimate_proximity(breast_data, seed=0)


def test_criterion_1_hard_zero(breast_data, breast_model, breast_pi):
    with criterion(1, "uncontrollable attributions are bit-exact zero"):
        t0 = time.monotonic()
        data, model = breast_data, breast_model
        unc = data.schema.uncontrollable_idx
        assert [data.schema.names[j] for j in unc] == ["age", "menopause"]
        idx = np.random.default_rng(2024).choice(data.n_rows, size=10, replace=False)
        cfg = CafaConfig(
            k=60, pi=breast_pi, n_perms=5, background_size=50,
            surrogate_params=ForestParams(n_trees=50, max_depth=8), seed=11,
        )
        for i in idx:
            res = cafa_local(data.X[i], model, data.schema, cfg, data=data)
            assert np.all(res.attribution.phi[unc] == 0.0), f"instance {i}"
            shap = standard_shap(data.X[i], model, data.schema, CafaConfig(seed=42), data=data)
            assert np.all(np.abs(shap.phi[unc]) > 0.0), f"instance {i}"
        assert time.monotonic() - t0 < 120.0


def test_criterion_2_shap_agreement(breast_data, breast_model, breast_pi):
    with criterion(2, "controllable attributions track standard Shapley (mean r >= 0.8)"):
        t0 = time.monotonic()
        data, model = breast_data, breast_model
        preds = model.predict_classes(data.X)
        pos = np.flatnonzero(preds == 1)
        idx = np.random.default_rng(2024).choice(pos, size=20, replace=False)
        cfg = CafaConfig(
            k=200, pi=breast_pi, n_perms=20, n_locals=20, background_size=100,
            surrogate_params=ForestParams(n_trees=150, max_depth=10), seed=17,
        )
        rs = []
        for i in idx:
            out = compare_with_shap(data.X[i], model, data.schema, cfg, data=data)
            rs.append(out.pearson_controllable)
        mean_r = float(np.mean(rs))
        print(f"  mean r = {mean_r:.3f}, min r = {min(rs):.3f}", flush=True)
        assert mean_r >= 0.8
        assert time.monotonic() - t0 < 600.0


def _brute_shapley(f, x, bg, m):
    """Definitional Shapley values via full subset enumeration."""
    cache = {}

    def v(S):
        key = tuple(sorted(S))
        if key not in cache:
            cache[key] = coalition_value(f, x, np.array(key, dtype=np.intp), bg)
        return cache[key]

    phi = np.zeros(m)
    for j in range(m):
        rest = [i for i in range(m) if i != j]
        for size in range(m):
            w = factorial(size) * factorial(m - size - 1) / factorial(m)
            for S in itertools.combinations(rest, size):
                phi[j] += w * (v(S + (j,)) - v(S))
    return phi, v(())


def test_criterion_3_exact_shapley_matches_enumeration():
    with criterion(3, "exact Shapley equals brute-force enumeration (<= 1e-9)"):
        t0 = time.monotonic()
        rng = np.random.default_rng(7)
        sizes = [4, 6, 8]
        worst = 0.0
        for t in range(50):
            m = sizes[t % 3]
            data = generate_synth(SynthSpec(m_controllable=m, m_uncontrollable=0,
                                            n_rows=200, seed=m))
            f = train_forest(data, ForestParams(n_trees=12, max_depth=5, seed=m))
            bg = Background(rows=data.X[rng.choice(data.n_rows, size=10, replace=False)])
            x = data.X[rng.integers(data.n_rows)]
            got = shapley_exact(f, x, bg)
            want_phi, want_phi0 = _brute_shapley(f, x, bg, m)
            worst = max(worst, float(np.max(np.abs(got.phi - want_phi))),
                        abs(got.phi0 - want_phi0))
        print(f"  worst |error| = {worst:.2e} over 50 instances", flush=True)
        assert worst <= 1e-9
        assert time.monotonic() - t0 < 60.0


def test_criterion_4_shapley_axioms():
    with criterion(4, "efficiency / dummy / symmetry axioms (100+ cases each)"):
        rng = np.random.default_rng(13)

        # efficiency: phi0 + sum(phi) equals the grand-coalition value
        worst_eff = 0.0
        for seed in range(5):
            data = generate_synth(SynthSpec(m_controllable=5, m_uncontrollable=0,
                                            n_rows=200, seed=seed))
            f = train_forest(data, ForestParams(n_trees=10, max_depth=4, seed=seed))
            bg = Background(rows=data.X[:15])
            for _ in range(20):
                x = data.X[rng.integers(data.n_rows)]
                attr = shapley_exact(f, x, bg)
                full = coalition_value(f, x, np.arange(5), bg)
                worst_eff = max(worst_eff, abs(attr.phi0 + attr.phi.sum() - full))
        assert worst_eff <= 1e-6

        # dummy: features the model never reads get exactly zero
        f = ProbModel(lambda X: 0.2 + 0.6 * X[:, 0])
        for _ in range(100):
            x = rng.random(4)
            bg = Background(rows=rng.random((8, 4)))
            attr = shapley_exact(f, x, bg)
            assert attr.phi[1] == 0.0 and attr.phi[2] == 0.0 and attr.phi[3] == 0.0

        # symmetry: interchangeable features with identical evidence tie
        worst_sym = 0.0
        for _ in range(100):
            a, b = rng.uniform(0.1, 0.5, size=2)
            f = ProbModel(lambda X, a=a, b=b: a * (X[:, 0] + X[:, 1]) + b * X[:, 2] ** 2)
            rows = rng.random((10, 3))
            rows[:, 1] = rows[:, 0]
            x = np.array([rng.random(), 0.0, rng.random()])
            x[1] = x[0]
            attr = shapley_exact(f, x, Background(rows=rows))
            worst_sym = max(worst_sym, abs(attr.phi[0] - attr.phi[1]))
        assert worst_sym <= 1e-9
        print(f"  efficiency <= {worst_eff:.1e}, symmetry <= {worst_sym:.1e}", flush=True)


def test_criterion_5_sampler_contract():
    with criterion(5, "neighborhoods: delta <= pi, pinned features, exact k per class"):
        rng = np.random.default_rng(99)
        for t in range(50):
            m = int(rng.integers(2, 6))
            ctrl = rng.random(m) < 0.7
            if not ctrl.any():
                ctrl[int(rng.integers(m))] = True
            schema = make_schema(["cont"] * m, controllable=ctrl.tolist())
            x = rng.random(m)
            w = rng.normal(size=m)
            w[~ctrl] = 0.0
            if not np.any(w[ctrl] != 0.0):
                w[np.flatnonzero(ctrl)[0]] = 1.0
            thresh = float(w @ x)  # boundary through x keeps both classes reachable
            f = ProbModel(lambda X, w=w, t=thresh: (X @ w > t).astype(float))
            pi = float(rng.uniform(0.2, 1.0))
            k = int(rng.integers(5, 26))
            nb = generate_neighborhood(x, f, schema, pi=pi, k=k, seed=t)
            rows, labels = nb.data.X, nb.data.y
            d = delta_to_rows(rows, x, schema)
            assert np.all(d <= pi)
            unc = schema.uncontrollable_idx
            assert np.all(rows[:, unc] == x[unc])  # bit-exact pins
            counts = np.bincount(labels)
            present = counts[counts > 0]
            assert present.size >= 2 and np.all(present == k)

        schema = make_schema(["cont", "cont"], controllable=[False, True])
        flat = ProbModel(lambda X: np.full(X.shape[0], 0.9))
        with pytest.raises(NeighborhoodImbalanceError):
            generate_neighborhood(np.array([0.5, 0.5]), flat, schema,
                                  pi=0.5, k=5, max_attempts=2048, seed=0)


def test_criterion_6_distance_is_a_bounded_metric():
    with criterion(6, "distance: symmetric, identity, bounded, triangle (10k triples)"):
        schema = make_schema(["cont", 6, "cont", 3, "cont"],
                             weights=[1.0, 2.0, 0.5, 1.0, 3.0])
        rng = np.random.default_rng(123)
        for _ in range(10_000):
            a = random_instance(schema, rng)
            b = random_instance(schema, rng)
            c = random_instance(schema, rng)
            dab = delta(a, b, schema)
            assert delta(b, a, schema) == dab
            assert delta(a, a, schema) == 0.0
            assert 0.0 <= dab <= 1.0
            assert delta(a, c, schema) <= dab + delta(b, c, schema) + 1e-12


def test_criterion_7_reported_vector_is_the_per_row_mean():
    with criterion(7, "output equals independent re-summation of row attributions (1e-12)"):
        data = generate_synth(SynthSpec(m_controllable=3, m_uncontrollable=2,
                                        n_rows=400, seed=21))
        model = train_forest(data, ForestParams(n_trees=30, max_depth=6, seed=0))
        cfg = CafaConfig(k=50, pi=0.5, n_perms=6, background_size=40, seed=2)
        res = cafa_local(data.X[17], model, data.schema, cfg, data=data)
        n, m = res.per_row_phi.shape
        assert n == res.neighborhood.data.n_rows  # every row contributes
        resum = np.array([math.fsum(res.per_row_phi[:, j]) / n for j in range(m)])
        assert np.max(np.abs(res.attribution.phi - resum)) <= 1e-12


def test_criterion_8_epidemic_study():
    with criterion(8, "epidemic preset: accurate model, planted lever ranked first"):
        t0 = time.monotonic()
        data = covid_preset(seed=0)
        tr, te = train_test_split(data, test_fraction=0.3, seed=0)
        model = train_forest(tr, ForestParams(n_trees=100, max_depth=8, seed=0))
        acc = accuracy(model, te)
        print(f"  test accuracy = {acc:.3f}", flush=True)
        assert acc >= 0.85

        idx = np.sort(np.random.default_rng(42).choice(tr.n_rows, size=12, replace=False))
        cfg = CafaConfig(
            k=100, pi="estimate", n_perms=6, background_size=60, n_locals=120,
            surrogate_params=ForestParams(n_trees=60, max_depth=8), seed=3,
        )
        g = cafa_global(tr.X[idx], model, data.schema, cfg, data=tr)
        names = data.schema.names
        unc = data.schema.uncontrollable_idx
        assert np.all(g.mean_abs_phi[unc] == 0.0)
        ranked = [names[j] for j in g.ranking()]
        print(f"  top features: {ranked[:3]} "
              f"(explained {g.n_explained}, skipped {len(g.skipped)})", flush=True)
        assert ranked[0] in ("contact_restr", "public_ban")
        assert time.monotonic() - t0 < 900.0


def test_criterion_9_cli_reruns_are_byte_identical(tmp_path):
    with criterion(9, "CLI reruns with one seed reproduce artifacts byte for byte"):
        fast = ["--k", "25", "--pi", "0.5", "--n-perms", "4", "--background", "30",
                "--surrogate-trees", "25", "--surrogate-depth", "6"]
        outs = {}
        for tag in ("a", "b"):
            d = tmp_path / tag
            d.mkdir()
            data, spec, model = d / "data.csv", d / "spec.json", d / "model.json"
            assert cli_main(["synth", "--rows", "250", "--controllable", "3",
                             "--uncontrollable", "1", "--seed", "0",
                             "--out", str(data), "--spec-out", str(spec)]) == 0
            assert cli_main(["train", "--data", str(data), "--spec", str(spec),
                             "--out", str(model), "--trees", "25", "--depth", "6",
                             "--seed", "0"]) == 0
            base = ["--data", str(data), "--spec", str(spec), "--model", str(model)]
            assert cli_main(["explain", *base, "--method", "cafa", "--instance", "3",
                             "--out-dir", str(d / "explain"), "--seed", "5", *fast]) == 0
            assert cli_main(["global", *base, "--sample", "3",
                             "--out-dir", str(d / "global"), "--seed", "5", *fast]) == 0
            assert cli_main(["compare", *base, "--instance", "3",
                             "--out-dir", str(d / "compare"), "--seed", "5", *fast]) == 0
            cfg = d / "exp.json"
            cfg.write_text(json.dumps({
                "dataset": {"kind": "synth", "m_controllable": 3, "m_uncontrollable": 1,
                            "n_rows": 200, "seed": 2},
                "model": {"n_trees": 20, "max_depth": 5},
                "cafa": {"k": 15, "pi": 0.5, "n_perms": 3, "background_size": 20,
                         "surrogate_params": {"n_trees": 15, "max_depth": 5}},
                "sample": 2, "instance": 1, "out_dir": str(d / "exp"), "seed": 0,
            }))
            assert cli_main(["experiment", str(cfg)]) == 0
            outs[tag] = d

        a, b = outs["a"], outs["b"]
        checked = 0
        for fa in sorted(a.rglob("*")):
            if fa.is_dir() or fa.name in ("data.csv", "spec.json", "exp.json"):
                continue
            rel = fa.relative_to(a)
            fb = b / rel
            ba, bb = fa.read_bytes(), fb.read_bytes()
            if fa.name == "run_meta.json":
                # run metadata embeds the output paths, which differ by design
                ba = ba.replace(str(a).encode(), b"")
                bb = bb.replace(str(b).encode(), b"")
            assert ba == bb, rel
            checked += 1
        assert checked >= 25  # CSVs, JSONs, and SVGs across five commands
        assert (a / "data.csv").read_bytes() == (b / "data.csv").read_bytes()
        assert (a / "model.json").read_bytes() == (b / "model.json").read_bytes()

        # the timestamp flag adds an SVG comment and changes nothing else
        d = tmp_path / "ts"
        ad, sd, md = a / "data.csv", a / "spec.json", a / "model.json"
        assert cli_main(["explain", "--data", str(ad), "--spec", str(sd),
                         "--model", str(md), "--method", "cafa", "--instance", "3",
                         "--out-dir", str(d), "--seed", "5", "--timestamp", *fast]) == 0
        plain = (a / "explain" / "bars.svg").read_text()
        stamped = (d / "bars.svg").read_text()
        assert "<!-- generated " in stamped and "<!-- generated " not in plain
        strip = lambda s: [l for l in s.splitlines() if not l.startswith("<!--")]
        assert strip(stamped) == strip(plain)
        assert (d / "attribution.csv").read_bytes() == \
            (a / "explain" / "attribution.csv").read_bytes()
