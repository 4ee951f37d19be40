"""The public surface: every exported name resolves, and the package
re-exports only names its modules export."""

import ast
import importlib
from pathlib import Path

import pytest

import unicwd

LAYERS = ("graph", "decomp", "catalog", "synth", "kexpr", "solve", "cli")


@pytest.mark.parametrize("layer", LAYERS)
def test_every_exported_name_resolves(layer):
    mod = importlib.import_module(f"unicwd.{layer}")
    assert len(set(mod.__all__)) == len(mod.__all__)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_package_reexports_only_exported_names():
    tree = ast.parse(Path(unicwd.__file__).read_text(encoding="utf-8"))
    imported = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert {module for module, _ in imported} == set(LAYERS) - {"cli"}
    for module, name in imported:
        mod = importlib.import_module(f"unicwd.{module}")
        assert name in mod.__all__, f"unicwd.{module}.{name} is not in its __all__"
        assert getattr(unicwd, name) is getattr(mod, name)


def test_not_unigraph_error_is_one_class():
    from unicwd.catalog import NotUnigraphError
    from unicwd.synth import NotUnigraphError as from_synth

    assert unicwd.NotUnigraphError is NotUnigraphError is from_synth
