"""No module reaches into another threatrank module's private names: every
``_name`` it reads through an imported threatrank module or object, or
imports outright, is a finding."""

from __future__ import annotations

import ast

from tests.test_stdlib_only import SOURCES


# A named tuple's own API: its leading underscore only keeps it apart from
# the field names.
_NAMEDTUPLE_API = frozenset({"_asdict", "_field_defaults", "_fields", "_make", "_replace"})


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__") and name not in _NAMEDTUPLE_API


def _is_threatrank(node: ast.ImportFrom) -> bool:
    return node.level > 0 or (node.module or "").split(".")[0] == "threatrank"


def private_reads(tree: ast.Module) -> list[str]:
    """Private attribute chains reached through names imported from threatrank."""
    imported: set[str] = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _is_threatrank(node):
            for alias in node.names:
                if _is_private(alias.name):
                    found.append(f"{'.' * node.level}{node.module or ''}.{alias.name}")
                imported.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names
                            if alias.name.split(".")[0] == "threatrank")
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        chain = [node.attr]
        root = node.value
        while isinstance(root, ast.Attribute):
            chain.append(root.attr)
            root = root.value
        if (isinstance(root, ast.Name) and root.id in imported
                and any(_is_private(attr) for attr in chain)):
            found.append(".".join([root.id, *reversed(chain)]))
    return found


def test_no_cross_module_private_access():
    assert SOURCES
    findings = {
        path.name: sorted(set(private_reads(ast.parse(path.read_text(encoding="utf-8")))))
        for path in SOURCES
    }
    assert {name: reads for name, reads in findings.items() if reads} == {}


def test_private_reads_are_detected():
    tree = ast.parse(
        "from . import feeds\n"
        "from .feeds import ParseResult, _KIND_BY_TYPE\n"
        "import threatrank.kgraph\n"
        "a = feeds.ParseResult._FIELD_BY_KIND\n"
        "b = ParseResult._private()\n"
        "c = threatrank.kgraph._x\n"
        "d = feeds.SOURCES, self._own, feeds.__name__\n"
        "e = feeds.CveRecord._fields, ParseResult._replace\n"
    )
    assert sorted(private_reads(tree)) == [
        ".feeds._KIND_BY_TYPE",
        "ParseResult._private",
        "feeds.ParseResult._FIELD_BY_KIND",
        "threatrank.kgraph._x",
    ]
