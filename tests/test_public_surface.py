"""Every name a module lists in ``__all__`` exists, and the package root imports only listed names.

A stale ``__all__`` entry otherwise shows only when someone runs
``from omtransfer.<module> import *``.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import omtransfer

MODULES = sorted(m.name for m in pkgutil.iter_modules(omtransfer.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_exist(name):
    module = importlib.import_module(f"omtransfer.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_package_imports_only_listed_names():
    tree = ast.parse(Path(omtransfer.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    unlisted = [
        f"{node.module}.{alias.name}"
        for node in imports
        for alias in node.names
        if alias.name not in importlib.import_module(f"omtransfer.{node.module}").__all__
    ]
    assert unlisted == []
