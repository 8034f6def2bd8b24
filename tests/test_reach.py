"""Every name defined in ``src/vortexlab`` is used somewhere in ``src/``.

A top-level function or class counts as used when some other place in the
package names it (a bare name or a module attribute); a non-dunder method or
property when some other place reads it as an attribute.  A name used only
from tests belongs in ``tests/``.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "vortexlab"

ALLOWED = {
    # Injected by the benchmark's substitute hook to run a solver without the
    # quadratic term.
    "zero_nonlinearity",
    # The predicted growth rate of an unscaled norm bound, for a horizon sweep.
    "deterministic_exponents",
}


def _definitions(tree: ast.Module):
    """(name, node, is_member) for every top-level function or class and
    every non-dunder method or property of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node, False
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not (
                    member.name.startswith("__") and member.name.endswith("__")
                ):
                    yield member.name, member, True


def _references(tree: ast.Module):
    """(name, line, is_attribute) for every name read or attribute taken."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, True


def unreached() -> list[str]:
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    refs = [
        (name, line, attr, file)
        for file, tree in trees.items()
        for name, line, attr in _references(tree)
    ]
    missing = []
    for file, tree in trees.items():
        for name, node, member in _definitions(tree):
            inside = range(node.lineno, node.end_lineno + 1)
            used = any(
                ref == name and (attr or not member) and not (where == file and line in inside)
                for ref, line, attr, where in refs
            )
            if not used and name not in ALLOWED:
                missing.append(f"{file}:{node.lineno} {name}")
    return missing


def test_every_definition_is_reached_from_src():
    assert unreached() == []


def test_allowlist_entries_exist():
    trees = [ast.parse(path.read_text()) for path in SRC.glob("*.py")]
    assert ALLOWED <= {name for tree in trees for name, _, _ in _definitions(tree)}
