"""Checks on the package's imports: every import is used, no
package-level name hides a submodule, the package exports what the
benchmark and README's library example use, and it leaves its command
line unimported.

A name counts as used when the module reads it anywhere (annotations
included) or lists it in ``__all__``, which is how ``__init__`` re-exports.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "mcsketch"


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
    # ``from mcsketch import annotate`` would not give the module; the
    # package does not import ``cli``, so each module is imported first
    import mcsketch

    module = importlib.import_module(f"mcsketch.{path.stem}")
    assert getattr(mcsketch, path.stem) is module


def test_package_surface_serves_the_benchmark_and_the_readme(capsys):
    # what the benchmark's child process imports from the package, or reads
    # as an attribute of it, is exported; the rest lives in submodules
    import mcsketch

    tree = ast.parse((ROOT / "perfbench" / "child.py").read_text())
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "mcsketch":
            used.update(a.name for a in node.names)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "mcsketch"
        ):
            used.add(node.attr)
    assert used and used <= set(mcsketch.__all__)
    assert len(mcsketch.__all__) <= 21
    assert all(hasattr(mcsketch, name) for name in mcsketch.__all__)
    # README's library example runs as printed
    readme = (ROOT / "README.md").read_text()
    library = readme.split("## Library use", 1)[1]
    block = library.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) > 1


def test_cli_module_runs_under_warnings_as_errors():
    # a package that imported its CLI module made ``python -m mcsketch.cli``
    # warn that the module was already in sys.modules, an exit 1 with every
    # RuntimeWarning an error; fresh interpreters, so this process's
    # imports do not count
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "mcsketch.cli", "--help"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("usage: mcsketch")
    check = "import sys, mcsketch; sys.exit('mcsketch.cli' in sys.modules)"
    run = subprocess.run(
        [sys.executable, "-c", check], env=env, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
