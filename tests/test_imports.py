"""Checks on the package's imports: every import is used, and no
package-level name hides a submodule.

A name counts as used when the module reads it anywhere (annotations
included) or lists it in ``__all__``, which is how ``__init__`` re-exports.
"""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "mcsketch"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_checker_finds_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path\n"
        "import numpy as np\n"
        "from . import net\n"
        "from .core import a, b as c, d\n"
        "__all__ = ['d']\n"
        "def f(x: c) -> None:\n"
        "    return np.zeros(1)\n"
    )
    assert unused_imports(source) == ["a", "net", "os"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.stem != "__init__"), ids=lambda p: p.name
)
def test_submodule_is_not_shadowed(path):
    # a re-export named like its submodule (a function ``annotate`` from
    # ``annotate.py``) rebinds the package attribute, so
    # ``from mcsketch import annotate`` would not give the module
    import mcsketch

    assert getattr(mcsketch, path.stem) is importlib.import_module(f"mcsketch.{path.stem}")
