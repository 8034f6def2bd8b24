"""Every name, option and field defined in ``src/vortexlab`` is used in ``src/``.

A top-level function or class counts as used when some other place in the
package names it (a bare name or a module attribute); a non-dunder method or
property when some other place reads it as an attribute.  A name used only
from tests belongs in ``tests/``.  An optional parameter of such a function
or method counts as used when some call in the package to a function of that
name sets it, by keyword or by position; an option only tests set is a
branch only tests reach; and its default counts as used when some call in
the package leaves it unset, for a default every call overrides is an
option the package sets only one way.  A field of a ``@dataclass`` counts
as used when some code in the package reads an attribute of its name; a
field nothing reads is data the package computes and carries for no one.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "vortexlab"

ALLOWED = {
    # Injected by the benchmark's substitute hook to run a solver without the
    # quadratic term.
    "zero_nonlinearity",
}

# Optional parameters that no call in ``src/`` sets, each with its reason.
UNSET_ALLOWED = {
    "main(argv)": "the console script calls main() on sys.argv; tests pass argv",
    "picard_solve(nonlinearity)": "tests and the benchmark's substitute hook run "
    "a solver without the quadratic term",
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


def _optional_parameters(fn: ast.FunctionDef, member: bool):
    """(name, position) of every parameter with a default; the position among
    the positional parameters a call fills (``self`` excluded), or None for a
    keyword-only one."""
    args = fn.args
    positional = (args.posonlyargs + args.args)[1 if member else 0 :]
    first = len(positional) - len(args.defaults)
    for pos, arg in enumerate(positional[first:], start=first):
        yield arg.arg, pos
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _sets(call: ast.Call, name: str, pos: int | None) -> bool:
    """Whether ``call`` sets the parameter: by keyword, by position, or
    through ``*args`` / ``**kwargs`` it cannot see into."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return pos is not None and len(call.args) > pos


def _options():
    """(``name(param)``, how many calls in ``src/`` to a function of that
    name set the parameter, how many leave it at its default) for every
    optional parameter of a definition in ``src/``."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                callee = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                calls.setdefault(callee, []).append(node)
    for tree in trees.values():
        for name, node, member in _definitions(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            for param, pos in _optional_parameters(node, member):
                sets = [_sets(call, param, pos) for call in calls.get(name, [])]
                yield f"{name}({param})", sets.count(True), sets.count(False)


def unset_options() -> list[str]:
    return [entry for entry, setting, _ in _options() if not setting]


def test_every_option_is_set_from_src():
    assert [entry for entry in unset_options() if entry not in UNSET_ALLOWED] == []


def test_unset_allowlist_entries_are_unset_options():
    assert set(UNSET_ALLOWED) <= set(unset_options())


# Optional parameters whose default no call in ``src/`` relies on, each with
# its reason.
DEFAULT_ALLOWED: dict[str, str] = {}


def overridden_defaults() -> list[str]:
    return [entry for entry, _, defaulted in _options() if not defaulted]


def test_every_default_is_relied_on_from_src():
    assert [entry for entry in overridden_defaults() if entry not in DEFAULT_ALLOWED] == []


def test_default_allowlist_entries_are_overridden_defaults():
    assert set(DEFAULT_ALLOWED) <= set(overridden_defaults())


# Dataclass fields, as ``Class.field``, that no attribute read in ``src/``
# names, each with its reason.
FIELD_ALLOWED: dict[str, str] = {}


def _is_dataclass(decorator: ast.expr) -> bool:
    f = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(f, "id", getattr(f, "attr", None)) == "dataclass"


def unread_fields() -> list[str]:
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    read = {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    missing = []
    for tree in trees:
        for cls in tree.body:
            if not (
                isinstance(cls, ast.ClassDef) and any(map(_is_dataclass, cls.decorator_list))
            ):
                continue
            for field in cls.body:
                if isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name):
                    if field.target.id not in read:
                        missing.append(f"{cls.name}.{field.target.id}")
    return missing


def test_every_field_is_read_from_src():
    assert [entry for entry in unread_fields() if entry not in FIELD_ALLOWED] == []


def test_field_allowlist_entries_are_unread_fields():
    assert set(FIELD_ALLOWED) <= set(unread_fields())
