"""Schema, normalization, and CSV ingestion."""

import csv
import re
import tempfile
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cafa.bench import SynthSpec
from cafa.errors import IngestionError, InvalidInputError, ModelFormatError
from cafa.forest import ForestParams
from cafa.pipeline import CafaConfig
from cafa.schema import (
    Dataset,
    Feature,
    FeatureSchema,
    IngestionSpec,
    dataset_to_raw_csv,
    denormalize,
    encode_instance,
    ingestion_spec_for,
    load_csv,
    normalize,
    validate_instance,
)

from .conftest import make_schema


# --- kinds and schema -------------------------------------------------------

def test_categorical_validation():
    # vocabulary entries are stored as strings, as the CSV cells they match
    assert Feature("g", "cat", True, vocabulary=["a", 2, 0.5]).vocabulary == ("a", "2", "0.5")
    with pytest.raises(InvalidInputError, match="must be non-empty"):
        Feature("g", "cat", True, vocabulary=())
    with pytest.raises(InvalidInputError, match="duplicates"):
        Feature("g", "cat", True, vocabulary=("a", "a"))
    with pytest.raises(InvalidInputError, match="duplicates"):
        Feature("g", "cat", True, vocabulary=(1, "1"))
    with pytest.raises(InvalidInputError, match="kind must be 'cat' or 'cont'"):
        Feature("g", "ordinal", True)


def test_feature_weight_must_be_nonnegative():
    with pytest.raises(InvalidInputError):
        Feature("f", "cont", True, weight=-0.5)


def test_schema_partition_and_validation():
    schema = make_schema(["cont", 3, "cont"], controllable=[False, True, True])
    assert schema.arity == 3
    assert list(schema.uncontrollable_idx) == [0]
    assert list(schema.controllable_idx) == [1, 2]
    assert set(schema.controllable_idx) | set(schema.uncontrollable_idx) == {0, 1, 2}
    with pytest.raises(InvalidInputError):
        FeatureSchema([])
    with pytest.raises(InvalidInputError):
        FeatureSchema([Feature("x", "cont", True), Feature("x", "cont", True)])
    with pytest.raises(InvalidInputError):  # all-zero weights
        FeatureSchema([Feature("x", "cont", True, weight=0.0)])


BAD_WEIGHTS = [True, "3", "nan", "inf", float("nan"), float("inf"), None, [1.0]]


@pytest.mark.parametrize("weight", BAD_WEIGHTS, ids=repr)
def test_feature_weight_must_be_a_finite_number(weight):
    with pytest.raises(InvalidInputError, match="weight must be a finite number"):
        Feature("f", "cont", True, weight=weight)
    entry = {"name": "f", "kind": "cont", "controllable": True, "weight": weight}
    with pytest.raises(IngestionError, match="weight must be a finite number"):
        IngestionSpec.from_dict({"label": "class", "features": [entry]})
    with pytest.raises(InvalidInputError, match="weight must be a finite number"):
        FeatureSchema.from_dict({"features": [entry]})


def test_feature_entry_codec_round_trips():
    schema = make_schema(["cont", 4], controllable=[False, True], weights=[2.5, 0.0])
    assert tuple(Feature.from_dict(f.to_dict()) for f in schema.features) == schema.features
    assert schema.features[0].to_dict() == {"name": "f0", "kind": "cont", "controllable": False,
                                            "weight": 2.5}
    assert schema.features[1].to_dict() == {"name": "f1", "kind": "cat", "controllable": True,
                                            "weight": 0.0, "vocabulary": ["0", "1", "2", "3"]}
    # a spec may leave a vocabulary open for the data to fill; a schema may not
    open_entry = {"name": "g", "kind": "cat", "controllable": True}
    assert IngestionSpec.from_dict({"label": "class", "features": [open_entry]}).to_dict() == {
        "label": "class", "features": [{**open_entry, "weight": 1.0}]}
    with pytest.raises(InvalidInputError, match="needs a vocabulary"):
        FeatureSchema([Feature("g", "cat", True)])
    with pytest.raises(InvalidInputError, match="needs a vocabulary"):
        FeatureSchema.from_dict({"features": [open_entry]})


def test_only_a_spec_defaults_the_controllable_flag():
    entry = {"name": "v", "kind": "cont"}
    spec = IngestionSpec.from_dict({"label": "class", "features": [entry]})
    assert spec.columns[0].controllable is True
    with pytest.raises(InvalidInputError, match="missing 'controllable'"):
        FeatureSchema.from_dict({"features": [entry]})


@pytest.mark.parametrize("entry", [7, "v", None, ["v", "cont"]], ids=repr)
def test_a_feature_entry_must_be_an_object(entry):
    with pytest.raises(IngestionError, match="must be a JSON object"):
        IngestionSpec.from_dict({"label": "class", "features": [entry]})
    with pytest.raises(InvalidInputError, match="must be a JSON object"):
        FeatureSchema.from_dict({"features": [entry]})


@pytest.mark.parametrize("kind, vocabulary", [
    ("cat", "lo"),  # a string is not split into its characters
    ("cat", {"lo": 0}),
    ("cat", 3),
    ("cat", [["lo"], "hi"]),
    ("cat", [True, False]),
    ("cat", [None]),
    ("cont", ["lo", "hi"]),  # a continuous feature has no categories to close
    ("cont", []),
], ids=repr)
def test_a_feature_entry_vocabulary_must_be_a_list_on_a_cat_entry(kind, vocabulary):
    entry = {"name": "g", "kind": kind, "controllable": True, "vocabulary": vocabulary}
    with pytest.raises(IngestionError, match="vocabulary"):
        IngestionSpec.from_dict({"label": "class", "features": [entry]})
    with pytest.raises(InvalidInputError, match="vocabulary"):
        FeatureSchema.from_dict({"features": [entry]})


def test_schema_round_trips_through_dict():
    schema = make_schema(["cont", 4], controllable=[False, True], weights=[2.0, 1.0])
    assert FeatureSchema.from_dict(schema.to_dict()).features == schema.features


# --- normalization ----------------------------------------------------------

def test_normalize_examples():
    assert normalize(5, 0, 10) == 0.5
    assert normalize(0, 0, 10) == 0.0
    assert normalize(12, 0, 10) == 1.0  # out-of-range clamps


def test_normalize_rejects_degenerate_range():
    with pytest.raises(InvalidInputError):
        normalize(1.0, 3.0, 3.0)
    with pytest.raises(InvalidInputError):
        denormalize(0.5, 5.0, 2.0)


@given(
    lo=st.floats(min_value=-1e3, max_value=1e3),
    width=st.floats(min_value=1e-3, max_value=1e3),
    t=st.floats(min_value=0.0, max_value=1.0),
)
def test_round_trip_within_1e12(lo, width, t):
    v = lo + t * width
    assert abs(denormalize(normalize(v, lo, lo + width), lo, lo + width) - v) <= 1e-12


# --- instances --------------------------------------------------------------

def test_validate_instance():
    schema = make_schema(["cont", 3])
    out = validate_instance(schema, [1.0 + 1e-10, 2.0])
    assert out[0] == 1.0  # tiny overshoot clamps
    with pytest.raises(InvalidInputError):
        validate_instance(schema, [1.1, 1.0])
    with pytest.raises(InvalidInputError):
        validate_instance(schema, [0.5, 3.0])  # code out of vocabulary
    with pytest.raises(InvalidInputError):
        validate_instance(schema, [0.5, 1.5])  # non-integral code
    with pytest.raises(InvalidInputError):
        validate_instance(schema, [0.5])  # arity
    with pytest.raises(InvalidInputError):
        validate_instance(schema, [np.nan, 1.0])


def test_validate_instance_names_the_first_bad_feature():
    schema = make_schema(["cont", 3, "cont", 4], names=["a", "b", "c", "d"])
    with pytest.raises(InvalidInputError, match=r"^feature 'b': 3.0 is not a valid category code$"):
        validate_instance(schema, [0.5, 3.0, 1.5, 0.5])
    with pytest.raises(InvalidInputError, match=r"^feature 'a': -0.5 outside \[0, 1\]$"):
        validate_instance(schema, [-0.5, 3.0, 0.5, 1.0])
    with pytest.raises(InvalidInputError, match=r"^feature 'c': 1.5 outside \[0, 1\]$"):
        validate_instance(schema, [0.5, 2.0, 1.5, 0.5])
    # the slack clips continuous entries only, and a -0.0 stays as it is
    out = validate_instance(schema, [-1e-10, 2.0, -0.0, 3.0])
    assert out.tolist() == [0.0, 2.0, 0.0, 3.0]
    assert not np.signbit(out[0]) and np.signbit(out[2])
    assert validate_instance(schema, [1.0 + 1e-9, 0.0, 1.0, 0.0])[0] == 1.0


def test_encode_instance():
    schema = make_schema(["cont", 3], names=["size", "grade"])
    params = ((10.0, 30.0), None)
    x = encode_instance(schema, params, {"size": 20.0, "grade": "2"})
    assert x[0] == 0.5 and x[1] == 2.0
    with pytest.raises(InvalidInputError):
        encode_instance(schema, params, {"size": 20.0})
    with pytest.raises(InvalidInputError):
        encode_instance(schema, params, {"size": 20.0, "grade": "9"})
    with pytest.raises(InvalidInputError, match="'size': expected a number, got True"):
        encode_instance(schema, params, {"size": True, "grade": "2"})


def test_encode_instance_reads_integral_json_numbers_as_categories():
    # json.load gives 2.0 for a written 2.0; it names category "2", while
    # 2.5 and True name none
    schema = FeatureSchema([Feature("grade", "cat", True, vocabulary=("1", "2", "3"))])
    for value in (2, 2.0):
        assert list(encode_instance(schema, None, {"grade": value})) == [1.0]
    for value in (2.5, True):
        with pytest.raises(InvalidInputError,
                           match=re.escape(f"feature 'grade': unknown category {str(value)!r}")):
            encode_instance(schema, None, {"grade": value})


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, "inf", 10 ** 400],
                         ids=["inf", "-inf", "nan", "inf-string", "int-past-float"])
def test_encode_instance_rejects_values_that_are_not_finite_numbers(value):
    schema = make_schema(["cont", 3], names=["size", "grade"])
    params = ((10.0, 30.0), None)
    # a finite value outside the training range still clamps
    assert encode_instance(schema, params, {"size": 1e300, "grade": "2"})[0] == 1.0
    assert encode_instance(schema, params, {"size": -5, "grade": "2"})[0] == 0.0
    with pytest.raises(InvalidInputError, match="'size': .* is not a finite number"):
        encode_instance(schema, params, {"size": value, "grade": "2"})


def test_encode_instance_without_norm_params_is_a_model_error():
    # a model file may omit norm_params; it then cannot scale a raw continuous value
    schema = make_schema(["cont", 3], names=["size", "grade"])
    with pytest.raises(ModelFormatError, match="'size': the model has no norm_params"):
        encode_instance(schema, None, {"size": 20.0, "grade": "2"})
    cat_only = make_schema([3], names=["grade"])
    assert list(encode_instance(cat_only, None, {"grade": "2"})) == [2.0]


@pytest.mark.parametrize("cls, valid", [
    (ForestParams, {}),
    (CafaConfig, {}),
    (SynthSpec, {"m_controllable": 2, "m_uncontrollable": 1, "n_rows": 10}),
], ids=["ForestParams", "CafaConfig", "SynthSpec"])
def test_every_count_and_seed_field_takes_only_integers(cls, valid):
    # a field annotated int is a count, seed or index: one added later
    # cannot skip the integer rule
    fields = [name for name, t in typing.get_type_hints(cls).items() if t in (int, int | None)]
    assert "seed" in fields
    cls(**valid)
    for name in fields:
        for bad in (1.5, 2.0, True):
            with pytest.raises(InvalidInputError, match=f"^{name} must be an integer"):
                cls(**{**valid, name: bad})


@pytest.mark.parametrize("text, ok", [
    ("0_5", False), ("1_000", False), ("\u0661", False), ("\u0663.\u0665", False),
    (".5", True), ("5.", True), ("-0.5", True), ("1e-3", True),
], ids=["0_5", "1_000", "arabic-1", "arabic-3.5", ".5", "5.", "-0.5", "1e-3"])
def test_numbers_written_as_text_must_be_ascii_decimals(tmp_path, text, ok):
    schema = make_schema(["cont", 3], names=["size", "grade"])
    params = ((-1.0, 7.0), None)
    spec = IngestionSpec("class", (Feature("size", "cont", True),))
    p = tmp_path / "d.csv"
    p.write_text(f"size,class\n{text},0\n2,1\n", encoding="utf-8")
    if ok:
        value = float(text)
        assert encode_instance(schema, params, {"size": text, "grade": "2"})[0] == (value + 1) / 8
        assert load_csv(p, spec).norm_params == ((min(value, 2.0), max(value, 2.0)),)
        return
    with pytest.raises(InvalidInputError,
                       match=re.escape(f"'size': {text!r} is not a finite number")):
        encode_instance(schema, params, {"size": text, "grade": "2"})
    with pytest.raises(IngestionError,
                       match=re.escape(f"row 2: cannot parse {text!r} as a finite number")):
        load_csv(p, spec)


@pytest.mark.parametrize("cells, want", [
    (["10", "2", "1.0", "1", "01"], ["01", "1", "1.0", "2", "10"]),
    (["10", "2", "nan", "1"], ["1", "10", "2", "nan"]),
    (["inf", "3"], ["3", "inf"]),
    (["3", "1e400"], ["1e400", "3"]),
    (["1_0", "9"], ["1_0", "9"]),
    (["\u0661", "2"], ["2", "\u0661"]),
], ids=["decimals", "nan", "inf", "1e400", "underscore", "arabic-digit"])
def test_open_vocabulary_order(tmp_path, cells, want):
    # numeric order only when every cell is a finite ASCII decimal, ties by
    # text; string order otherwise
    p = tmp_path / "d.csv"
    p.write_text("c,class\n" + "".join(f"{c},{i % 2}\n" for i, c in enumerate(cells)),
                 encoding="utf-8")
    data = load_csv(p, IngestionSpec("class", (Feature("c", "cat", True),)))
    assert list(data.schema.features[0].vocabulary) == want


# --- Dataset ----------------------------------------------------------------

def test_dataset_validation():
    schema = make_schema(["cont", "cont"])
    X = np.array([[0.1, 0.2], [0.3, 0.4]])
    with pytest.raises(InvalidInputError):
        Dataset(schema, X, np.array([0]), ((0, 1), (0, 1)))  # label count
    with pytest.raises(InvalidInputError):
        Dataset(schema, X, np.array([0, 0]), ((0, 1), (0, 1)))  # single class
    with pytest.raises(InvalidInputError):
        Dataset(schema, X, np.array([0, 1]), ((0, 1),))  # norm_params arity
    with pytest.raises(InvalidInputError):
        Dataset(schema, X, np.array([0, 1]), ((0, 1), (1, 1)))  # degenerate range
    data = Dataset.from_normalized(schema, X, np.array([0, 1]))
    assert data.n_rows == 2 and data.y.tolist() == [0, 1]
    assert not data.X.flags.writeable


@pytest.mark.parametrize("bounds", [("a", "b"), (False, True), (0.0, np.inf), (-np.inf, 1.0),
                                    (0, 10 ** 400)],
                         ids=["strings", "booleans", "infinite-max", "infinite-min",
                              "int-past-float"])
def test_dataset_rejects_norm_params_that_are_not_two_finite_numbers(bounds):
    schema = make_schema(["cont", "cont"])
    X = np.array([[0.1, 0.2], [0.3, 0.4]])
    with pytest.raises(InvalidInputError, match="'f1': degenerate normalization range"):
        Dataset(schema, X, np.array([0, 1]), ((0.0, 1.0), bounds))


# --- CSV ingestion ----------------------------------------------------------

def _write(tmp_path, text, name="d.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_load_breast_csv(breast_data):
    assert breast_data.n_rows == 286
    assert breast_data.schema.arity == 9
    assert breast_data.label_values == ("0", "1")
    assert int(breast_data.y.sum()) == 85
    # age and menopause are the fixed risk factors
    unc = [breast_data.schema.names[j] for j in breast_data.schema.uncontrollable_idx]
    assert unc == ["age", "menopause"]
    for i in range(breast_data.n_rows):
        validate_instance(breast_data.schema, breast_data.X[i])


def test_ingestion_is_deterministic(breast_data, tmp_path):
    spec = IngestionSpec.from_json(Path(__file__).resolve().parents[1] / "data" / "breast_cancer.spec.json")
    again = load_csv(Path(__file__).resolve().parents[1] / "data" / "breast_cancer.csv", spec)
    assert np.array_equal(breast_data.X, again.X)
    assert np.array_equal(breast_data.y, again.y)
    assert breast_data.schema.features == again.schema.features


@pytest.mark.parametrize("flag", ["false", "true", 0, 1, None, [False]])
def test_ingestion_spec_controllable_must_be_a_json_boolean(flag):
    # bool("false") is True: a string flag would make the feature controllable
    doc = {"label": "class", "features": [{"name": "v", "kind": "cont", "controllable": flag}]}
    with pytest.raises(IngestionError, match="'controllable' must be true or false"):
        IngestionSpec.from_dict(doc)


def test_ingestion_spec_controllable_flag():
    feats = [{"name": "a", "kind": "cont", "controllable": False},
             {"name": "b", "kind": "cont", "controllable": True},
             {"name": "c", "kind": "cont"}]
    spec = IngestionSpec.from_dict({"label": "class", "features": feats})
    assert [c.controllable for c in spec.columns] == [False, True, True]


def test_single_column_file_errors():
    # a labels-only spec never reaches the file: no feature columns
    with pytest.raises(IngestionError):
        IngestionSpec(label="class", columns=())


def test_spec_reading_its_label_as_a_feature_errors():
    # "controllable" defaults to true, so the label would become a lever
    feats = [{"name": "a", "kind": "cont"}, {"name": "class", "kind": "cat"}]
    with pytest.raises(IngestionError, match="label 'class' as a feature"):
        IngestionSpec.from_dict({"label": "class", "features": feats})


def test_missing_label_names_line(tmp_path):
    p = _write(tmp_path, "v,class\n1,a\n2,b\n3,?\n")
    spec = IngestionSpec(label="class", columns=(Feature("v", "cont", True),))
    with pytest.raises(IngestionError, match="row 4: missing label"):
        load_csv(p, spec)


@pytest.mark.parametrize("header", ["v,v,class", "v,class,class"])
def test_spec_column_named_twice_in_header_errors(tmp_path, header):
    p = _write(tmp_path, f"{header}\n1,2,a\n3,4,b\n")
    spec = IngestionSpec(label="class", columns=(Feature("v", "cont", True),))
    with pytest.raises(IngestionError, match="more than once in header"):
        load_csv(p, spec)


def test_unread_column_named_twice_in_header_is_ignored(tmp_path):
    p = _write(tmp_path, "x,x,v,class\n0,0,1,a\n0,0,3,b\n")
    spec = IngestionSpec(label="class", columns=(Feature("v", "cont", True),))
    assert list(load_csv(p, spec).X[:, 0]) == [0.0, 1.0]


def test_min_max_scaling_forced(tmp_path):
    p = _write(tmp_path, "v,class\n2,a\n4,b\n6,a\n")
    spec = IngestionSpec(label="class", columns=(Feature("v", "cont", True),))
    data = load_csv(p, spec)
    assert list(data.X[:, 0]) == [0.0, 0.5, 1.0]
    assert data.norm_params[0] == (2.0, 6.0)


def test_malformed_row_names_line(tmp_path):
    p = _write(tmp_path, "v,class\n1,a\n2,b,EXTRA\n")
    spec = IngestionSpec(label="class", columns=(Feature("v", "cont", True),))
    with pytest.raises(IngestionError, match="row 3"):
        load_csv(p, spec)


def test_unparseable_cell_names_line(tmp_path):
    p = _write(tmp_path, "v,class\n1,a\nxyz,b\n")
    spec = IngestionSpec(label="class", columns=(Feature("v", "cont", True),))
    with pytest.raises(IngestionError, match="row 3"):
        load_csv(p, spec)


def test_unknown_closed_category(tmp_path):
    p = _write(tmp_path, "g,class\nlo,a\nwat,b\n")
    spec = IngestionSpec(
        label="class", columns=(Feature("g", "cat", True, vocabulary=("lo", "hi")),)
    )
    with pytest.raises(IngestionError, match="unknown category"):
        load_csv(p, spec)


def test_constant_continuous_column(tmp_path):
    p = _write(tmp_path, "v,class\n3,a\n3,b\n")
    spec = IngestionSpec(label="class", columns=(Feature("v", "cont", True),))
    with pytest.raises(IngestionError, match="constant") as err:
        load_csv(p, spec)
    assert str(err.value) == f"{p}: column 'v': constant continuous column"


def test_from_raw_scales_continuous_columns_and_keeps_codes():
    schema = make_schema(["cont", 3, "cont"])
    raw = np.array([[2.0, 0, -1.0], [6.0, 2, 1.0], [4.0, 1, 0.0]])
    data = Dataset.from_raw(schema, raw, [0, 1, 0], label_values=("no", "yes"))
    assert data.X.tolist() == [[0.0, 0, 0.0], [1.0, 2, 1.0], [0.5, 1, 0.5]]
    assert data.norm_params == ((2.0, 6.0), None, (-1.0, 1.0))
    assert data.label_values == ("no", "yes")
    assert raw[0, 0] == 2.0  # the caller's array is not scaled in place
    with pytest.raises(InvalidInputError, match="column 'f1': constant continuous column"):
        Dataset.from_raw(make_schema(["cont", "cont"]), [[0, 5], [1, 5], [2, 5]], [0, 1, 0])


def test_missing_column_and_file(tmp_path):
    spec = IngestionSpec(label="class", columns=(Feature("v", "cont", True),))
    p = _write(tmp_path, "other,class\n1,a\n2,b\n")
    with pytest.raises(IngestionError, match="'v'"):
        load_csv(p, spec)
    with pytest.raises(IngestionError, match="cannot read"):
        load_csv(tmp_path / "nope.csv", spec)
    with pytest.raises(IngestionError, match="empty"):
        load_csv(_write(tmp_path, "", "e.csv"), spec)


def test_non_utf8_data_file_is_a_data_error(tmp_path):
    p = tmp_path / "latin1.csv"
    p.write_bytes("v,class\n1,caf\xe9\n2,b\n".encode("latin-1"))
    spec = IngestionSpec(label="class", columns=(Feature("v", "cont", True),))
    with pytest.raises(IngestionError, match="not UTF-8"):
        load_csv(p, spec)


def test_missing_cells_imputed(tmp_path):
    p = _write(tmp_path, "g,v,class\nlo,1,a\n?,?,b\nlo,3,a\nhi,5,b\n")
    spec = IngestionSpec(
        label="class",
        columns=(Feature("g", "cat", True), Feature("v", "cont", True)),
    )
    data = load_csv(p, spec)
    # mode of g is "lo" (2 of 3 known); median of v is 3
    g = data.schema.features[0].vocabulary
    assert g == ("hi", "lo")
    assert data.X[1, 0] == g.index("lo")
    assert data.X[1, 1] == (3.0 - 1.0) / (5.0 - 1.0)


def test_label_mapping_is_sorted(tmp_path):
    p = _write(tmp_path, "v,class\n1,10\n2,9\n3,10\n")
    spec = IngestionSpec(label="class", columns=(Feature("v", "cont", True),))
    data = load_csv(p, spec)
    assert data.label_values == ("9", "10")  # numeric sort, not lexical
    assert list(data.y) == [1, 0, 1]


@settings(max_examples=20)
@given(data=st.data())
def test_random_well_formed_files_satisfy_schema(data):
    rng_seed = data.draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(rng_seed)
    n_cols = data.draw(st.integers(1, 4))
    n_rows = data.draw(st.integers(4, 12))
    kinds = [data.draw(st.sampled_from(["cont", "cat"])) for _ in range(n_cols)]

    header = [f"c{j}" for j in range(n_cols)] + ["class"]
    cols = []
    for j, k in enumerate(kinds):
        if k == "cat":
            cols.append([f"v{rng.integers(0, 3)}" for _ in range(n_rows)])
        else:
            vals = rng.normal(0, 5, size=n_rows)
            vals[0] += 10.0  # guarantee a non-constant column
            cols.append([repr(float(v)) for v in vals])
    labels = [str(rng.integers(0, 2)) for _ in range(n_rows)]
    labels[0], labels[1] = "0", "1"  # guarantee two classes

    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "r.csv"
        with open(p, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            for i in range(n_rows):
                w.writerow([cols[j][i] for j in range(n_cols)] + [labels[i]])
        spec = IngestionSpec(
            label="class",
            columns=tuple(Feature(f"c{j}", kinds[j], True) for j in range(n_cols)),
        )
        loaded = load_csv(p, spec)
    assert loaded.n_rows == n_rows
    for i in range(n_rows):
        validate_instance(loaded.schema, loaded.X[i])
    assert loaded.y.max() < len(loaded.label_values)


def test_raw_csv_round_trip(tmp_path):
    from cafa.bench import SynthSpec, generate_synth

    data = generate_synth(SynthSpec(m_controllable=3, m_uncontrollable=1, n_rows=60, seed=5))
    p = tmp_path / "raw.csv"
    dataset_to_raw_csv(data, p)
    spec = ingestion_spec_for(data)
    again = load_csv(p, spec)
    assert again.schema.features == data.schema.features
    assert np.array_equal(again.y, data.y)
    cat = data.schema.is_categorical
    assert np.array_equal(again.X[:, cat], data.X[:, cat])
    # continuous columns rescale to the written values' own min-max range,
    # so compare in raw units
    for j in np.flatnonzero(~cat):
        lo, hi = again.norm_params[j]
        raw_again = again.X[:, j] * (hi - lo) + lo
        olo, ohi = data.norm_params[j]
        raw_orig = data.X[:, j] * (ohi - olo) + olo
        assert np.allclose(raw_again, raw_orig, atol=1e-12)
