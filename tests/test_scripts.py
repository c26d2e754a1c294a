"""Every script under ``scripts/`` imports against the current package, and
``make_datasets.py`` regenerates the shipped data files.

Each script keeps its ``main()`` behind ``__main__``, so loading it as a
module runs only its imports and module-level constants.
"""

import importlib.util
from pathlib import Path

import pytest

from cafa.bench import breast_ingestion_spec

from .conftest import DATA_DIR

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


def _load(path):
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", SCRIPTS, ids=[p.name for p in SCRIPTS])
def test_script_imports(path):
    assert callable(_load(path).main)


@pytest.fixture(scope="module")
def make_datasets():
    return _load(next(p for p in SCRIPTS if p.name == "make_datasets.py"))


def test_breast_rows_shape(make_datasets):
    header, rows = make_datasets.breast_rows()
    assert header[-1] == "class" and len(header) == 10
    assert len(rows) == 286
    assert sum(int(r[-1]) for r in rows) == 85
    assert sum(r[4] == "?" for r in rows) == 8  # node_caps gaps
    assert sum(r[7] == "?" for r in rows) == 1  # breast_quad gap
    spec = breast_ingestion_spec()
    assert spec.label == "class"
    assert [c.name for c in spec.columns] == header[:-1]


def test_shipped_breast_files_match_generator(make_datasets, tmp_path):
    make_datasets.main(tmp_path)
    for name in ("breast_cancer.csv", "breast_cancer.spec.json"):
        assert (tmp_path / name).read_bytes() == (DATA_DIR / name).read_bytes(), name
