#!/usr/bin/env python3
"""Check that two source trees write byte-identical outputs.

Usage, from the root of a checkout:

    python3 scripts/same_outputs.py PARENT_SRC CHANGE_SRC

Each argument is a checkout's root or its ``src`` directory.  Under each
tree, one full CLI refresh runs on both fixtures and on the three
benchmark corpora (generated by ``bench/corpus.py``) at seed 1, the seed
the benchmark runs, and at the held-out seed 2: ``ingest``,
``build``, ``rank`` under every policy for every organization,
``evaluate``, and ``case-study`` for every organization.  Every output
file whose sha256 differs between the trees, or that only one tree
wrote, is printed, and so is every line that a command prints
differently (its output directory read as ``<out>``), or that only one
tree prints.  The exit code is 1 if there is any (or if a command
fails); 0 means every output matched.  The last line also gives
the source lines of each tree's ``threatrank`` package, its code lines
(lines holding a token that is neither a comment nor part of a
docstring, so a moved or reworded comment does not count), and the
source lines of the ``scripts/*.py`` beside its ``src`` directory.
Nothing is written outside a temporary directory.
"""

from __future__ import annotations

import ast
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FIXTURES = ("case_study", "synthetic52")
# The benchmark's seed, and a held-out one.
SEEDS = (1, 2)
POLICIES = ("cvss_base", "apt_threat", "general_threat", "ideal")
# Runs each command of a JSON list in one interpreter and writes the JSON
# list of what each one printed, its output directory replaced by "<out>";
# prints the first failing command and exits with its code.
_CHILD = """
import contextlib, io, json, sys
from threatrank.cli import main
printed = []
for argv in json.load(sys.stdin):
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        code = main(argv)
    if code:
        print(" ".join(argv), "->", code, file=sys.stderr)
        sys.exit(code)
    printed.append(stdout.getvalue().replace(argv[argv.index("--out") + 1], "<out>"))
json.dump(printed, sys.stdout)
"""


def _src_dir(arg: str) -> Path:
    path = Path(arg).resolve()
    for candidate in (path / "src", path):
        if (candidate / "threatrank" / "cli.py").is_file():
            return candidate
    raise SystemExit(f"error: no threatrank sources under {path}")


def _refresh(config: Path, read_args: list[str], out: Path) -> list[list[str]]:
    """The commands of one full refresh of ``config``, writing into ``out``."""
    raw = json.loads(config.read_text(encoding="utf-8"))
    orgs = sorted(json.loads((config.parent / p).read_text(encoding="utf-8"))["org_id"]
                  for p in raw["profiles"])
    base = ["--config", str(config), "--out", str(out)]
    read = base + read_args
    return [base + ["ingest"], base + ["build"],
            *[read + ["rank", "--org", org, "--policy", policy]
              for org in orgs for policy in POLICIES],
            read + ["evaluate"],
            *[read + ["case-study", "--org", org] for org in orgs]]


def _source_lines(paths) -> int:
    return sum(path.read_bytes().count(b"\n") for path in paths)


def _docstring_spans(tree: ast.AST) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """The (start, end) positions of every module, class and function docstring."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                spans.append(((first.lineno, first.col_offset),
                              (first.end_lineno, first.end_col_offset)))
    return spans


_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def code_lines(source: str) -> int:
    """The lines of ``source`` holding a token that is neither a comment nor
    part of a docstring; a multi-line token holds every line it spans."""
    spans = _docstring_spans(ast.parse(source))
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _NOT_CODE or any(start <= token.start and token.end <= end
                                          for start, end in spans):
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def _code_lines(paths) -> int:
    return sum(code_lines(path.read_text(encoding="utf-8")) for path in paths)


def _digests(out: Path) -> dict[str, str]:
    return {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.rglob("*")) if path.is_file()}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 scripts/same_outputs.py PARENT_SRC CHANGE_SRC", file=sys.stderr)
        return 1
    sys.path.insert(0, str(ROOT / "bench"))
    from corpus import WORKLOADS, generate

    trees = {"parent": _src_dir(argv[0]), "change": _src_dir(argv[1])}
    differing = failed = compared = differing_lines = compared_lines = 0
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        work = Path(tmp)
        projects = [(name, ROOT / "fixtures" / name / "config.json", []) for name in FIXTURES]
        for seed in SEEDS:
            for workload in WORKLOADS:
                name = f"{workload}-seed{seed}"
                corpus = generate(workload, seed, work / "corpora" / name)
                projects.append((name, corpus.config, corpus.read_args))
        for name, config, read_args in projects:
            digests, printed = {}, {}
            for tree, src in trees.items():
                out = work / tree / name
                env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
                commands = _refresh(config, read_args, out)
                proc = subprocess.run([sys.executable, "-c", _CHILD], input=json.dumps(commands),
                                      text=True, env=env, cwd=work, capture_output=True)
                if proc.returncode:
                    print(f"{name}: {tree} failed: {proc.stderr.strip()}")
                    failed += 1
                digests[tree] = _digests(out)
                # Each command's printed lines, by the command after its --out.
                printed[tree] = {} if proc.returncode else {
                    " ".join(argv[4:]): text.splitlines()
                    for argv, text in zip(commands, json.loads(proc.stdout))}
            for command in sorted(printed["parent"].keys() | printed["change"].keys()):
                pairs = itertools.zip_longest(printed["parent"].get(command, []),
                                              printed["change"].get(command, []))
                for line_no, (before, after) in enumerate(pairs, start=1):
                    if before != after:
                        print(f"{name}: {command}: line {line_no}: "
                              f"parent {before!r} change {after!r}")
                        differing_lines += 1
                    compared_lines += 1
            parent, change = digests["parent"], digests["change"]
            for path in sorted(parent.keys() | change.keys()):
                if parent.get(path) != change.get(path):
                    print(f"{name}/{path}: parent {parent.get(path, 'missing')[:16]} "
                          f"change {change.get(path, 'missing')[:16]}")
                    differing += 1
            compared += len(parent.keys() | change.keys())
            print(f"{name}: {len(change)} output files", file=sys.stderr)
    package = ", ".join(f"{tree} {_source_lines((src / 'threatrank').rglob('*.py'))}"
                        for tree, src in trees.items())
    code = ", ".join(f"{tree} {_code_lines((src / 'threatrank').rglob('*.py'))}"
                     for tree, src in trees.items())
    scripts = ", ".join(f"{tree} {_source_lines((src.parent / 'scripts').glob('*.py'))}"
                        for tree, src in trees.items())
    print(f"{differing} of {compared} output files differ, {differing_lines} of "
          f"{compared_lines} printed lines differ, {failed} refreshes failed; "
          f"src/threatrank lines: {package}; src/threatrank code lines: {code}; "
          f"scripts lines: {scripts}")
    return int(bool(differing or differing_lines or failed))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
