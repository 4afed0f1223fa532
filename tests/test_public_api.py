"""Every public name of the package has a caller outside the tests.

A name in ``noiseattn.__all__`` counts as used when a module of the
package other than ``__init__.py`` refers to it outside its own
definition, or when ``perfbench/`` names it: the benchmark calls the
package and keys its trace metrics on qualified names such as
``data.inject_noise``. Helpers that only tests call live in the tests.
"""

import ast
import inspect
import re
from pathlib import Path

import noiseattn

ROOT = Path(__file__).resolve().parents[1]

# Public names kept without such a caller, each with its reason.
ALLOWED = {
    "empirical_transition": "ROADMAP item 3 compares each learned unit with it",
}


def references(tree) -> set[str]:
    """Names and attribute names a module refers to, each outside the
    function or class that defines it."""
    found = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        elif isinstance(node, ast.Name) and node.id not in inside:
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in inside:
            found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return found


def test_every_public_name_has_a_caller_outside_the_tests():
    used = set()
    for path in (ROOT / "src" / "noiseattn").glob("*.py"):
        if path.name != "__init__.py":
            used |= references(ast.parse(path.read_text()))
    for path in (ROOT / "perfbench").rglob("*.py"):
        used |= set(re.findall(r"\w+", path.read_text()))
    public = {name for name in noiseattn.__all__
              if not inspect.ismodule(getattr(noiseattn, name))}
    assert sorted(public - used - set(ALLOWED)) == []
    assert set(ALLOWED) <= public - used  # an entry that gains a caller leaves the list
