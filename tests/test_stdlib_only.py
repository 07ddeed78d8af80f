"""The runtime is stdlib-only: every module imports only the standard
library or threatrank itself."""

from __future__ import annotations

import ast
import sys

from tests.conftest import REPO_ROOT

SOURCES = sorted((REPO_ROOT / "src" / "threatrank").glob("*.py"))


def _imported_top_levels(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_runtime_imports_only_stdlib_and_threatrank():
    assert SOURCES
    outside = {
        (path.name, module)
        for path in SOURCES
        for module in _imported_top_levels(path)
        if module != "threatrank" and module not in sys.stdlib_module_names
    }
    assert outside == set()
