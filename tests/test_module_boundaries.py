"""Only `constraints.py` knows how a constraint set is stored: no other
package module reads a set's pairs or its group arrays. Every other module
asks the set for what it needs (`partner_sums`, `per_item_counts`, `items`,
`count_violations`, `join_labels`, ...), so the storage can change in one
file."""

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
