"""The package's third-party imports: each is a declared runtime dependency,
each declared runtime dependency is imported, and the CLI's import does not
load `scipy.sparse`, which only a fit needs."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "crowdfuse"


def third_party_imports():
    """{top-level module: a module of the package importing it} over every
    absolute import in the package, the standard library left out."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top not in sys.stdlib_module_names and top != "crowdfuse":
                    found.setdefault(top, path.name)
    return found


def declared_dependencies():
    """The names of pyproject.toml's runtime dependencies, as imported."""
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as handle:
        project = tomllib.load(handle)["project"]
    return {re.match(r"[A-Za-z0-9_.-]+", spec).group().lower()
            .replace("-", "_") for spec in project["dependencies"]}


def test_third_party_imports_are_declared():
    declared = declared_dependencies()
    imports = third_party_imports()
    assert {"numpy", "scipy"} <= imports.keys()  # the scan sees both
    undeclared = {name: module for name, module in imports.items()
                  if name.lower() not in declared}
    assert undeclared == {}


def test_declared_dependencies_are_imported():
    imported = {name.lower() for name in third_party_imports()}
    assert declared_dependencies() - imported == set()


def test_cli_import_leaves_scipy_sparse_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, crowdfuse.cli; print('scipy.sparse' in sys.modules)"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
