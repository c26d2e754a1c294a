"""Run artifacts: CSV, JSON, SVG."""

import csv
import json
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from cafa.explain import Attribution
from cafa.reports import (
    attribution_to_dict,
    render_global_charts,
    render_local_charts,
    write_attribution_csv,
    write_attribution_json,
    write_global_csv,
    write_global_run,
    write_run,
)
from cafa.svg import bar_chart, summary_chart

ATTR = Attribution(
    phi=np.array([0.125, -0.5, 0.0, 1e-17]),
    phi0=0.375,
    method="cafa",
    seed=11,
)
NAMES = ["alpha", "beta", "gamma", "delta"]


def test_attribution_dict():
    doc = attribution_to_dict(ATTR, NAMES)
    assert doc["method"] == "cafa" and doc["phi0"] == 0.375 and doc["seed"] == 11
    assert doc["phi"][1] == {"feature": "beta", "value": -0.5}
    with pytest.raises(ValueError):
        attribution_to_dict(ATTR, ["too", "short"])


def test_csv_sorted_by_abs_phi(tmp_path):
    p = tmp_path / "attribution.csv"
    write_attribution_csv(p, ATTR, NAMES)
    with open(p, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["feature", "phi", "abs_phi"]
    assert [r[0] for r in rows[1:]] == ["beta", "alpha", "delta", "gamma"]
    # repr floats round-trip exactly, including the tiny one
    assert float(rows[3][1]) == 1e-17
    assert rows[2] == ["alpha", "0.125", "0.125"]


def test_csv_ties_keep_feature_order(tmp_path):
    attr = Attribution(phi=np.array([0.5, -0.5, 0.5]), phi0=0.0, method="exact-shap", seed=None)
    p = tmp_path / "t.csv"
    write_attribution_csv(p, attr, ["a", "b", "c"])
    with open(p, newline="") as fh:
        rows = list(csv.reader(fh))
    assert [r[0] for r in rows[1:]] == ["a", "b", "c"]


def test_json_artifact(tmp_path):
    p = tmp_path / "attribution.json"
    write_attribution_json(p, ATTR, NAMES, extra={"pi": np.float64(0.25), "k": np.int64(40)})
    doc = json.loads(p.read_text())
    assert doc["pi"] == 0.25 and doc["k"] == 40
    assert isinstance(doc["pi"], float) and isinstance(doc["k"], int)
    # keys are sorted so identical content means identical bytes
    text = p.read_text()
    assert text.index('"k"') < text.index('"method"') < text.index('"phi"')
    assert text.endswith("\n")


def test_artifacts_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    for d in (a, b):
        write_run(d, ATTR, NAMES, {"seed": 11, "command": "explain"},
                  per_row_phi=np.array([[0.1, -0.2, 0.0, 0.3]] * 3))
    for name in ("attribution.csv", "attribution.json", "run_meta.json", "bars.svg", "summary.svg"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_global_csv(tmp_path):
    p = tmp_path / "global.csv"
    write_global_csv(p, ["a", "b"], [0.1, -0.4], [0.1, 0.4])
    with open(p, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [
        ["feature", "mean_phi", "mean_abs_phi"],
        ["b", "-0.4", "0.4"],
        ["a", "0.1", "0.1"],
    ]


def _global_means(run_dir):
    """``{feature: (mean, mean_abs)}`` from a global run's CSV and from its JSON,
    and the JSON's ``n_explained``."""
    with open(run_dir / "attribution.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    doc = json.loads((run_dir / "attribution.json").read_text())
    from_csv = {r[0]: (float(r[1]), float(r[2])) for r in rows}
    from_json = {e["feature"]: (e["mean"], e["mean_abs"]) for e in doc["phi"]}
    return from_csv, from_json, doc["n_explained"]


def test_global_run_examples(tmp_path):
    write_global_run(tmp_path / "one", [[1.0, -2.0]], ["a", "b"], {}, {})
    from_csv, from_json, n = _global_means(tmp_path / "one")
    assert from_csv == from_json == {"a": (1.0, 1.0), "b": (-2.0, 2.0)} and n == 1

    write_global_run(tmp_path / "two", [[1.0, -1.0], [3.0, 1.0]], ["a", "b"], {"k": 1}, {})
    from_csv, from_json, n = _global_means(tmp_path / "two")
    assert from_csv == from_json == {"a": (2.0, 2.0), "b": (0.0, 1.0)} and n == 2
    assert json.loads((tmp_path / "two" / "attribution.json").read_text())["k"] == 1


def test_global_run_matches_resummation_oracle(tmp_path):
    rng = np.random.default_rng(0)
    phis = rng.normal(size=(100, 6))
    names = [f"f{j}" for j in range(6)]
    write_global_run(tmp_path, phis, names, {"method": "test"}, {"command": "test"})
    from_csv, from_json, n = _global_means(tmp_path)
    assert n == 100
    for j, name in enumerate(names):
        want_mean = math.fsum(phis[:, j]) / 100
        want_abs = math.fsum(abs(v) for v in phis[:, j]) / 100
        for mean, mean_abs in (from_csv[name], from_json[name]):
            assert abs(mean - want_mean) <= 1e-12 and abs(mean_abs - want_abs) <= 1e-12


def test_svg_is_wellformed_xml():
    doc = bar_chart(NAMES, ATTR.phi, title="<unsafe & title>")
    root = ET.fromstring(doc)
    assert root.tag.endswith("svg")
    assert "<unsafe & title>" in doc or "&lt;unsafe &amp; title&gt;" in doc
    summ = summary_chart(NAMES, np.array([[0.1, -0.2, 0.0, 0.3], [0.2, -0.1, 0.0, 0.0]]))
    ET.fromstring(summ)


def test_svg_timestamp_flag():
    plain = bar_chart(["a"], [0.5])
    assert "generated" not in plain
    assert plain == bar_chart(["a"], [0.5])
    stamped = bar_chart(["a"], [0.5], timestamp=True)
    assert "<!-- generated " in stamped
    # the comment is the only difference
    strip = lambda s: "\n".join(l for l in s.splitlines() if not l.startswith("<!--"))
    assert strip(stamped) == strip(plain)


def test_svg_validation():
    with pytest.raises(ValueError):
        bar_chart([], [])
    with pytest.raises(ValueError):
        bar_chart(["a"], [0.1, 0.2])
    with pytest.raises(ValueError):
        summary_chart(["a"], np.zeros(3))


def test_local_charts_summary_needs_rows(tmp_path):
    render_local_charts(tmp_path, ATTR, NAMES)
    assert (tmp_path / "bars.svg").exists()
    assert not (tmp_path / "summary.svg").exists()


def test_global_charts(tmp_path):
    phis = np.array([[0.3, -0.1], [0.1, -0.2]])
    render_global_charts(tmp_path, ["a", "b"], phis.mean(axis=0), phis)
    bars = (tmp_path / "bars.svg").read_text()
    summary = (tmp_path / "summary.svg").read_text()
    ET.fromstring(bars), ET.fromstring(summary)
    assert "global attribution" in bars
