"""Every function in ``src/qchar`` has a caller in ``src/qchar``, and every
error type of ``qchar.rings`` a ``raise`` there.

A function or method passes when some code of the package names it: a
``Name`` or an attribute ``.name`` outside its own ``def`` line (an import
alone does not count; docstrings and comments are not code).  The public
surface passes as well: the names ``qchar/__init__.py`` imports, the public
names of ``qchar.verify`` and ``qchar.cli`` (the checks and the entry
point), and the dunder methods Python calls itself.  A helper that only the
tests call belongs in ``tests/oracles.py``; an error type that nothing raises
goes, and a test oracle that needs one defines its own."""

import ast
from pathlib import Path

import qchar.rings as rings

SRC = Path(__file__).resolve().parent.parent / "src" / "qchar"
PUBLIC_MODULES = ("verify.py", "cli.py")


def _trees():
    return {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _referenced(trees) -> set:
    names = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _exported(trees) -> set:
    names = {alias.name for node in ast.walk(trees["__init__.py"]) if isinstance(node, ast.ImportFrom) for alias in node.names}
    for module in PUBLIC_MODULES:
        names |= {node.name for node in trees[module].body if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    return names


def uncalled() -> list:
    """(module, name) of every function or method no code of the package
    names, outside the public surface."""
    trees = _trees()
    keep = _referenced(trees) | _exported(trees)
    out = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
                if not (name.startswith("__") and name.endswith("__")) and name not in keep:
                    out.append((module, name))
    return out


def test_every_function_has_a_caller_in_the_package():
    assert uncalled() == []


def unraised() -> list:
    """The exception classes of ``qchar.rings`` that no ``raise`` of the
    package names (``raise E(..)`` or ``raise E``)."""
    raised = set()
    for tree in _trees().values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None))
    errors = [c.__name__ for c in vars(rings).values() if isinstance(c, type) and issubclass(c, Exception)]
    return sorted(name for name in errors if name not in raised)


def test_every_ring_error_is_raised_in_the_package():
    assert unraised() == []
