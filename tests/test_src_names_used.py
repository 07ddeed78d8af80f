"""Every function, class, method and property that ``src/threatrank``
defines is used by the program: referenced from ``src/threatrank``,
``bench/*.py`` or ``scripts/*.py`` outside its own definition.  A helper
only the tests call belongs in the tests, and exporting a name is not a
use: the strings of the package's ``_MODULES`` table, from which
``threatrank.__all__`` is built, are no reference.

Dunders are exempt, and so is a method that overrides a method of a
standard-library base class (``argparse.ArgumentParser.error``), which the
library calls.  A class inherits the standard-library bases of a base class
its module defines, and a ``typing.NamedTuple`` base stands for the named
tuple API (``_make``, which ``_replace`` calls).  A reference is a name, an
attribute, or a string that is an identifier (``bench/trace_cli.py``
rebinds functions by name); names match by their last part, so a
definition counts as used when any reference spells its name.
"""

from __future__ import annotations

import ast
import builtins
import importlib
import sys
import typing
from collections import Counter, namedtuple
from pathlib import Path

from tests.conftest import REPO_ROOT
from tests.test_stdlib_only import SOURCES

READERS = [*SOURCES, *sorted((REPO_ROOT / "bench").glob("*.py")),
           *sorted((REPO_ROOT / "scripts").glob("*.py"))]


def _references(tree: ast.AST) -> Counter:
    names: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "_MODULES"
                for target in node.targets):
            names.subtract(_references(node.value))  # exports, which the walk adds back
        elif isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            names[node.value] += 1
    return names


def _stdlib_object(base: ast.expr, imported: dict[str, str]):
    """The standard-library class a base-class expression names, else None."""
    parts = []
    while isinstance(base, ast.Attribute):
        parts.append(base.attr)
        base = base.value
    if not isinstance(base, ast.Name):
        return None
    dotted = [*imported.get(base.id, base.id).split("."), *reversed(parts)]
    if len(dotted) == 1:
        return getattr(builtins, dotted[0], None)
    if dotted[0] not in sys.stdlib_module_names:
        return None
    obj = importlib.import_module(dotted[0])
    for attr in dotted[1:]:
        obj = getattr(obj, attr, None)
    # typing.NamedTuple is a function; the classes it makes are named tuples.
    return namedtuple("NamedTuple", ()) if obj is typing.NamedTuple else obj


def _imports(tree: ast.Module) -> dict[str, str]:
    """Local name -> dotted name of every absolute import in a module."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            for alias in node.names:
                imported[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return imported


def _definitions(tree: ast.Module):
    """``(qualified name, node, overrides a stdlib base)`` per def and class."""
    imported = _imports(tree)
    local_bases: dict[str, list] = {}  # a class this module defines -> its stdlib bases

    def visit(body, prefix, bases):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                overrides = any(hasattr(base, node.name) for base in bases)
                yield f"{prefix}{node.name}", node, overrides
                stdlib_bases = []
                for expr in getattr(node, "bases", ()):
                    if isinstance(expr, ast.Name) and expr.id in local_bases:
                        stdlib_bases.extend(local_bases[expr.id])
                    elif (base := _stdlib_object(expr, imported)) is not None:
                        stdlib_bases.append(base)
                if isinstance(node, ast.ClassDef):
                    local_bases[node.name] = stdlib_bases
                yield from visit(node.body, f"{prefix}{node.name}.", stdlib_bases)
            elif isinstance(node, (ast.If, ast.Try, ast.With, ast.For, ast.While)):
                yield from visit(ast.iter_child_nodes(node), prefix, bases)

    yield from visit(tree.body, "", [])


def unused(sources: dict[str, ast.Module], readers: list[ast.AST]) -> list[str]:
    """``module.qualname`` of each definition in ``sources`` that no reader
    references outside the definition itself."""
    total = Counter()
    for tree in readers:
        total.update(_references(tree))
    found = []
    for module, tree in sources.items():
        for qualname, node, overrides in _definitions(tree):
            name = node.name
            if (name.startswith("__") and name.endswith("__")) or overrides:
                continue
            if total[name] - _references(node)[name] <= 0:
                found.append(f"{module}.{qualname}")
    return sorted(found)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_every_src_name_is_used_outside_the_tests():
    assert SOURCES and len(READERS) > len(SOURCES)
    sources = {path.stem: _parse(path) for path in SOURCES}
    readers = [_parse(path) for path in READERS]
    assert unused(sources, readers) == []


def test_unused_names_are_detected():
    source = ast.parse(
        "import argparse\n"
        "from enum import Enum\n"
        "def used(): return helper()\n"
        "def helper(): pass\n"
        "def only_recursive(n): return only_recursive(n - 1)\n"
        "def exported(): pass\n"
        "class Parser(argparse.ArgumentParser):\n"
        "    def error(self, message): pass\n"
        "    def extra(self): pass\n"
        "    def __repr__(self): return ''\n"
        "class Colour(str, Enum):\n"
        "    @property\n"
        "    def upper(self): return 1\n"
        "    @property\n"
        "    def shade(self): return 2\n"
        "if True:\n"
        "    def guarded(): pass\n"
        "from typing import NamedTuple\n"
        "class _Fields(NamedTuple):\n"
        "    x: int\n"
        "class Checked(_Fields):\n"
        "    def _make(cls, iterable): pass\n"
        "    def _extra(self): pass\n"
    )
    reader = ast.parse("used(); Parser(); Colour; rebind('guarded'); Checked\n")
    exports = ast.parse("_MODULES = {'m': ('exported', 'used')}\n")
    assert unused({"m": source}, [source, reader, exports]) == [
        "m.Checked._extra", "m.Colour.shade", "m.Parser.extra", "m.exported",
        "m.only_recursive"]
