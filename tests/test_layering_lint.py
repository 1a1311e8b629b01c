"""``scripts/check_layering.py``: the source tree passes, an unranked
top-level module fails, and so does a rank that names no module."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "check_layering", ROOT / "scripts" / "check_layering.py")
check_layering = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_layering)


@pytest.fixture
def tree(tmp_path):
    """A ``src`` root with one empty module per ranked layer."""
    package = tmp_path / "repro"
    package.mkdir()
    (package / "__init__.py").write_text("")
    for layer in check_layering.LAYER_RANK:
        (package / f"{layer}.py").write_text("")
    return tmp_path


def test_source_tree_passes():
    assert check_layering.check(str(ROOT / "src")) == []


def test_unranked_module_fails(tree):
    (tree / "repro" / "tooling.py").write_text("import repro.core\n")
    (violation,) = check_layering.check(str(tree))
    assert "'repro.tooling', which has no layer rank" in violation


def test_rank_naming_no_module_fails(tree):
    (tree / "repro" / "mediator.py").unlink()
    (violation,) = check_layering.check(str(tree))
    assert "ranks 'repro.mediator', which names no module" in violation


def test_upward_import_still_fails(tree):
    (tree / "repro" / "obs.py").write_text("from repro.core import x\n")
    (violation,) = check_layering.check(str(tree))
    assert "upward import" in violation
