"""Only `constraints.py` knows how a constraint set is stored: no other
package module reads a set's pairs or its group arrays. Every other module
asks the set for what it needs (`partner_sums`, `items`, `count_violations`,
`join_labels`, ...), so the storage can change in one file.

Only `fileio.py` opens files: no other package module calls `open`, reads
or writes JSON, or makes a CSV reader or writer, so the file formats and
their error messages live in one file.

Every name a package module imports is used in that module, so an import
says what the module depends on.

`bounds.py` evaluates the bounds from a posterior, parameters and a spec,
so of the package it imports only `model`, `numerics` and `synth`, not the
fits in `aggregators`.

No fit reads `FitOptions.seed`, so no package module passes one: a seed
there would look as if it changed a fit."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "crowdfuse"

PRIVATE = {"_groups", "_sizes", "_pairs", "must_link", "cannot_link"}


def attribute_reads(path):
    """(line, attribute) of every `x.<attribute>` in the module at `path`
    whose attribute is in PRIVATE."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [(node.lineno, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in PRIVATE]


@pytest.mark.parametrize("module", sorted(
    path.name for path in PACKAGE.glob("*.py")
    if path.name != "constraints.py"))
def test_no_module_but_constraints_reads_set_storage(module):
    assert attribute_reads(PACKAGE / module) == []


def test_guard_sees_constraints_reads(tmp_path):
    # The guard finds reads where they are, so an empty result elsewhere
    # means something. constraints.py reads the stored arrays; the pair
    # views are read by callers outside the package, as in `caller`.
    caller = tmp_path / "caller.py"
    caller.write_text("pairs = cs.must_link | cs.cannot_link\n")
    found = {attr for path in (PACKAGE / "constraints.py", caller)
             for _, attr in attribute_reads(path)}
    assert found == PRIVATE


FILE_CALLS = {"open", "json.load", "json.loads", "json.dump", "json.dumps",
              "csv.reader", "csv.writer", "csv.DictReader", "csv.DictWriter"}


def file_calls(path):
    """(line, callee) of every call in the module at `path` to a name in
    FILE_CALLS, or to any `.open` method."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    calls = [(node.lineno, ast.unparse(node.func)) for node in ast.walk(tree)
             if isinstance(node, ast.Call)]
    return [(line, name) for line, name in calls
            if name in FILE_CALLS or name.endswith(".open")]


@pytest.mark.parametrize("module", sorted(
    path.name for path in PACKAGE.glob("*.py") if path.name != "fileio.py"))
def test_no_module_but_fileio_opens_files(module):
    assert file_calls(PACKAGE / module) == []


def test_guard_sees_fileio_calls(tmp_path):
    # The guard finds the calls fileio.py makes, and those it does not
    # make when written in another module, as in `caller`.
    caller = tmp_path / "caller.py"
    caller.write_text("json.dump(doc, handle)\ncsv.DictReader(handle)\n"
                      "csv.DictWriter(handle, fields)\n"
                      "with path.open() as handle:\n    json.load(handle)\n")
    found = {name for path in (PACKAGE / "fileio.py", caller)
             for _, name in file_calls(path)}
    assert found == FILE_CALLS | {"path.open"}


NOQA = "# noqa: F401"


def unused_imports(path):
    """(line, name) of every name an import in the module at `path` binds
    and the module never reads. `from __future__` imports and imports on a
    line marked NOQA are left out."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        marked = any(NOQA in line
                     for line in lines[node.lineno - 1:node.end_lineno])
        if marked or getattr(node, "module", None) == "__future__":
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in read:
                found.append((node.lineno, name))
    return found


@pytest.mark.parametrize("module", sorted(
    path.name for path in PACKAGE.glob("*.py")
    if path.name != "__init__.py"))  # __init__ imports to re-export
def test_every_import_is_used(module):
    assert unused_imports(PACKAGE / module) == []


def test_guard_sees_unused_imports(tmp_path):
    # The guard finds an unused name in each import form, reads a name used
    # only as an attribute's base or an annotation, and finds model.py's
    # NOQA import once its mark is gone.
    caller = tmp_path / "caller.py"
    caller.write_text(
        "from __future__ import annotations\n"
        "import os.path\nimport json as js\nimport numpy as np\n"
        "from dataclasses import (dataclass,\n    field)\n"
        "from .model import digamma  # noqa: F401\n"
        "def f(x: np.ndarray) -> dataclass:\n    return os.path.join(x)\n")
    assert unused_imports(caller) == [(3, "js"), (5, "field")]
    unmarked = tmp_path / "model.py"
    unmarked.write_text((PACKAGE / "model.py").read_text(encoding="utf-8")
                        .replace(NOQA, ""), encoding="utf-8")
    assert unused_imports(PACKAGE / "model.py") == []
    assert {name for _, name in unused_imports(unmarked)} == {"digamma"}


BOUNDS_IMPORTS = {"model", "numerics", "synth"}


def package_imports(path):
    """The package modules that the module at `path` imports, relatively
    (`from .x import y`, `from . import x`) or by the package's name, at
    module level or inside a function."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("crowdfuse."))
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] != "crowdfuse":
                continue
            if node.level == 0:
                parts = parts[1:]
            if parts and parts[0]:
                found.add(parts[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def test_bounds_imports_no_fit():
    assert package_imports(PACKAGE / "bounds.py") <= BOUNDS_IMPORTS


def test_guard_sees_package_imports(tmp_path):
    # Each import form names its package module, whether it imports the
    # module or a name from it; other packages are left out.
    caller = tmp_path / "caller.py"
    caller.write_text(
        "import numpy as np\nfrom dataclasses import field\n"
        "from .aggregators import FitResult\nfrom . import constraints, model\n"
        "import crowdfuse.experiment\nfrom crowdfuse import fileio\n"
        "from crowdfuse.metrics import score\n"
        "def f():\n    from .selection import bvsb\n")
    assert package_imports(caller) == {
        "aggregators", "constraints", "model", "experiment", "fileio",
        "metrics", "selection"}
    assert "aggregators" in package_imports(PACKAGE / "cli.py")


def fit_seed_calls(path):
    """(line, callee) of every call in the module at `path` to a callee
    named `FitOptions`, bare or as an attribute, with a `seed` keyword."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [(node.lineno, ast.unparse(node.func)) for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None))
            == "FitOptions"
            and any(keyword.arg == "seed" for keyword in node.keywords)]


@pytest.mark.parametrize("module", sorted(
    path.name for path in PACKAGE.glob("*.py")))
def test_no_module_passes_fit_seed(module):
    assert fit_seed_calls(PACKAGE / module) == []


def test_guard_sees_fit_seed_keywords(tmp_path):
    # Both callee forms are found, on the line where the call starts; a
    # call without the keyword, and the keyword in another call, are not.
    caller = tmp_path / "caller.py"
    caller.write_text(
        "FitOptions(seed=1)\nopts = aggregators.FitOptions(\n"
        "    tol=0, seed=s)\nFitOptions(tol=0)\nreplace(opts, seed=2)\n"
        "generate(spec, seed=3)\n")
    assert fit_seed_calls(caller) == [(1, "FitOptions"),
                                      (2, "aggregators.FitOptions")]
