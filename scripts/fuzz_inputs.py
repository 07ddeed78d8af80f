#!/usr/bin/env python3
"""Fuzz the case fixture's inputs against the CLI's exit-code contract.

Usage, from the root of a checkout:

    python3 scripts/fuzz_inputs.py SEED N

Every input of ``fixtures/case_study`` is fuzzed: the config, the profile,
the JSON-lines snapshots and the two CSV feeds, and copies of the four
packaged data files (the country and sector vocabularies and lexicons),
which each case's config names under ``lexicons`` and ``vocabularies``.
Two kinds of case, each drawn from ``SEED``:

* N one-byte edits: a byte of ``ALPHABET`` replaces, or is inserted
  before, one position of one input, data files included;
* N JSON-value swaps, without replacement from all of them: the value at
  one key path is replaced by one of ``SWAP_VALUES``.  The paths are every
  path of the config and the profile, every path of one record line of
  each snapshot, and every cell of one row of each CSV (a swapped cell
  holds the value's JSON text).  The record lines are drawn from ``SEED``
  alone, so every N draws the same swaps, and an N at least their count
  runs them all.

And one key rename per object key of the config and the profile, whatever
N is: the key loses its last character (``software`` becomes
``softwar``), so a misspelt key must not be read as an absent one.

Each case edits one file of a fresh copy of the fixture in a temporary
directory and runs all five commands on it in-process, with the config's
own output directory: ``ingest``, ``build``, ``rank``, ``evaluate`` and
``case-study``.  A command that returns anything but 0, 1 or 2, raises,
or prints a traceback breaks the contract.  A command that exits 2 must
name the edited file (its base name) on stderr, so that a data error
points at the file that holds the fault.  On a key rename, ``build``
must exit 2.  After the five commands, every file in the case copy that
is not an input must have a name that a command writes (``OUTPUT_NAME``),
so that no temporary file is left beside an output.  Each case that fails
a rule is printed, the summary line counts each rule's failures, and the
exit code is 1 if there is any.
The unedited copy runs first, and every command must exit 0 on it.
Nothing is written outside the temporary directory.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import io
import json
import random
import re
import shutil
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from threatrank.cli import main as cli_main  # noqa: E402
from threatrank.vocab import read_data_file  # noqa: E402

CASE_STUDY = ROOT / "fixtures" / "case_study"
# Every input file of the case fixture, relative to it.
INPUTS = tuple(sorted(path.relative_to(CASE_STUDY).as_posix()
                      for pattern in ("*.json", "profiles/*.json", "snapshots/*.jsonl", "*.csv")
                      for path in CASE_STUDY.glob(pattern)))
# Where each case copy holds a copy of a packaged data file, and the config
# section and key that name it.
DATA_FILES = {"data/countries.txt": ("vocabularies", "countries"),
              "data/dhs_sectors.txt": ("vocabularies", "sectors"),
              "data/country_terms.tsv": ("lexicons", "countries"),
              "data/sector_terms.tsv": ("lexicons", "sectors")}
# The bytes a one-byte edit writes.
ALPHABET = b'\xff\x00{,\n"'
# The values a swap puts at a key path.  The non-ASCII string holds the
# letters that sre's case folding maps onto ASCII ones (ſ, İ, ı and the
# Kelvin sign) and a dash, so that a swapped group description reaches
# attribution's non-ASCII text.
SWAP_VALUES = (None, True, 0, -1, 2**70, 1.5, "", "x", [], {}, ["China"], {"a": 1},
               "A Ruſſian group \u2014 targets İran and \u212aorea, actıve since 2009.")
ORG = "ODU"
# The name of each file the five commands write; a temporary file left
# beside one (its name led by a dot) is none of them.
OUTPUT_NAME = re.compile(r"(ingest|build)_summary\.json|graph\.jsonl|(ndcg_by_k|cost|ttest)\.csv"
                         r"|(coverage|ranked|case_study)_.*\.csv", re.DOTALL).fullmatch
COMMANDS = (["ingest"], ["build"], ["rank", "--org", ORG, "--policy", "apt_threat"],
            ["evaluate"], ["case-study", "--org", ORG])


def project_files() -> dict[str, bytes]:
    """The bytes of every input of an unedited case copy, by path under it:
    the fixture's inputs, with a config that names the ``DATA_FILES``, and
    those files, each a copy of the packaged one."""
    files = {name: (CASE_STUDY / name).read_bytes() for name in INPUTS}
    config = json.loads(files["config.json"])
    for name, (section, key) in DATA_FILES.items():
        config.setdefault(section, {})[key] = name
        files[name] = read_data_file(None, Path(name).name).encode("utf-8")
    files["config.json"] = (json.dumps(config, indent=2) + "\n").encode("utf-8")
    return files


def byte_edit(data: bytes, at: int, byte: int, insert: bool) -> bytes:
    """``data`` with ``byte`` inserted before position ``at``, or replacing it."""
    return data[:at] + bytes([byte]) + data[at + (0 if insert else 1):]


def key_paths(value) -> list[tuple]:
    """The path of every value inside a JSON value, its own ``()`` first;
    a path step is an object key or an array index."""
    paths, stack = [], [((), value)]
    while stack:
        path, value = stack.pop()
        paths.append(path)
        if isinstance(value, (dict, list)):
            steps = value.keys() if isinstance(value, dict) else range(len(value))
            stack.extend((path + (step,), value[step]) for step in reversed(list(steps)))
    return paths


def swapped(value, path: tuple, new):
    """A copy of the JSON value ``value`` with ``new`` at ``path``."""
    if not path:
        return copy.deepcopy(new)
    value = copy.deepcopy(value)
    parent = value
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = copy.deepcopy(new)
    return value


# The inputs whose object keys are renamed, one case per key.
RENAMED = ("config.json", "profiles/odu.json")


def renamed_key(value, path: tuple):
    """A copy of the JSON value ``value`` whose object key at ``path``, kept
    in its place, has lost its last character."""
    value = copy.deepcopy(value)
    parent = value
    for step in path[:-1]:
        parent = parent[step]
    items = list(parent.items())
    parent.clear()
    parent.update((key[:-1] if key == path[-1] else key, item) for key, item in items)
    return value


def value_swaps(name: str, data: bytes, rng: random.Random) -> list[tuple]:
    """Each ``(path, value)`` swap of one input, for ``swap_bytes``.

    A JSON file's paths are its own.  A JSON-lines or CSV file's paths
    start with the index of one line, drawn from ``rng`` among its records
    (a CSV's header and ``#`` lines are not records), and go on into that
    record, or name one of the row's cells.
    """
    if name.endswith(".json"):
        return [(path, new) for path in key_paths(json.loads(data)) for new in SWAP_VALUES]
    lines = data.decode("utf-8").split("\n")
    records = [at for at, line in enumerate(lines) if line.strip() and not line.startswith("#")]
    if name.endswith(".csv"):
        records = records[1:]  # the header
    at = rng.choice(records)
    if name.endswith(".jsonl"):
        paths = key_paths(json.loads(lines[at]))
    else:
        paths = [(column,) for column in range(len(next(csv.reader([lines[at]]))))]
    return [((at, *path), new) for path in paths for new in SWAP_VALUES]


def swap_bytes(name: str, data: bytes, path: tuple, new) -> bytes:
    """The bytes of input ``name`` after one swap from ``value_swaps``."""
    if name.endswith(".json"):
        return (json.dumps(swapped(json.loads(data), path, new), indent=2) + "\n").encode()
    lines = data.decode("utf-8").split("\n")
    at, *rest = path
    if name.endswith(".jsonl"):
        lines[at] = json.dumps(swapped(json.loads(lines[at]), tuple(rest), new))
    else:
        row = next(csv.reader([lines[at]]))
        row[rest[0]] = new if isinstance(new, str) else json.dumps(new)
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="").writerow(row)
        lines[at] = buffer.getvalue()
    return "\n".join(lines).encode("utf-8")


def run_commands(name: str, data: bytes) -> tuple[list[tuple[str, int | None, str]], list[str]]:
    """Run every command on a temporary case copy (``project_files``) whose
    input ``name`` holds ``data``; return each command's name, exit code
    and stderr, or None and the traceback for a command that raised; and
    the path of each file then in the copy that is neither an input nor
    named as an output (``OUTPUT_NAME``)."""
    runs = []
    with tempfile.TemporaryDirectory(prefix="fuzz_inputs_") as tmp:
        project = Path(tmp) / "case"
        shutil.copytree(CASE_STUDY, project, ignore=shutil.ignore_patterns("out"))
        for path, content in {**project_files(), name: data}.items():
            (project / path).parent.mkdir(exist_ok=True)
            (project / path).write_bytes(content)
        inputs = set(project.rglob("*"))
        for command in COMMANDS:
            stderr = io.StringIO()
            try:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(stderr):
                    code = cli_main(["--config", str(project / "config.json"), *command])
            except Exception:
                runs.append((command[0], None, traceback.format_exc()))
                continue
            runs.append((command[0], code, stderr.getvalue()))
        strays = sorted(path.relative_to(project).as_posix() for path in project.rglob("*")
                        if path not in inputs and path.is_file() and not OUTPUT_NAME(path.name))
    return runs, strays


def failed_rename(runs: list[tuple[str, int | None, str]]) -> list[str]:
    """``build``'s run, if it did not exit 2 on a case with a renamed key."""
    return [f"{command}: exit {code!r} on a renamed key, not 2\n{err}"
            for command, code, err in runs if command == "build" and code != 2]


def broken_runs(runs: list[tuple[str, int | None, str]], codes=(0, 1, 2)) -> list[str]:
    """How each of ``run_commands``' runs broke the contract, or exited
    outside ``codes``."""
    return [f"{command}: raised\n{err}" if code is None else f"{command}: exit {code!r}\n{err}"
            for command, code, err in runs if code not in codes or "Traceback" in err]


def unnamed_runs(name: str, runs: list[tuple[str, int | None, str]]) -> list[str]:
    """Each of ``run_commands``' runs that exited 2 without naming the
    edited input ``name`` (its base name) on stderr."""
    base = Path(name).name
    return [f"{command}: exit 2 without naming {base}\n{err}"
            for command, code, err in runs if code == 2 and base not in err]


def stray_files(strays: list[str]) -> list[str]:
    """A line for each file ``run_commands`` found that no command writes."""
    return [f"left {path}, which no command writes" for path in strays]


def run_case(name: str, data: bytes, codes=(0, 1, 2)) -> list[str]:
    """``broken_runs``, ``unnamed_runs`` and ``stray_files`` of every command
    on a case copy whose input ``name`` holds ``data``."""
    runs, strays = run_commands(name, data)
    return broken_runs(runs, codes) + unnamed_runs(name, runs) + stray_files(strays)


def _report(label: str, broken: list[str]) -> str:
    return f"{label}\n" + "".join(f"  {line}\n" for text in broken for line in text.splitlines())


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(arg.isdigit() for arg in argv):
        print("usage: fuzz_inputs.py SEED N", file=sys.stderr)
        return 2
    seed, count = map(int, argv)
    rng = random.Random(seed)
    originals = project_files()
    broken = run_case("config.json", originals["config.json"], codes=(0,))
    if broken:
        print(_report("the unedited case copy", broken))
        return 1
    cases = []  # (label, input name, its edited bytes, whether a key was renamed)
    for _ in range(count):
        name = rng.choice(sorted(originals))
        data = originals[name]
        insert = rng.random() < 0.5
        at, byte = rng.randrange(len(data) + insert), rng.choice(ALPHABET)
        cases.append((f"{name}: {'insert' if insert else 'replace'} {bytes([byte])!r} at {at}",
                      name, byte_edit(data, at, byte, insert), False))
    lines = random.Random(seed)  # the swapped lines depend on SEED alone, not on N
    swaps = [(name, path, new) for name in INPUTS
             for path, new in value_swaps(name, originals[name], lines)]
    for name, path, new in rng.sample(swaps, min(count, len(swaps))):
        cases.append((f"{name}: {json.dumps(new)} at {list(path)}", name,
                      swap_bytes(name, originals[name], path, new), False))
    renames = 0
    for name in RENAMED:
        value = json.loads(originals[name])
        for path in key_paths(value):
            if path and isinstance(path[-1], str):
                data = (json.dumps(renamed_key(value, path), indent=2) + "\n").encode()
                cases.append((f"{name}: key {list(path)} renamed", name, data, True))
                renames += 1
    failed = data_errors = unnamed = misread = stray = 0
    for label, name, data, rename in cases:
        runs, strays = run_commands(name, data)
        broken, silent = broken_runs(runs), unnamed_runs(name, runs)
        accepted = failed_rename(runs) if rename else []
        left = stray_files(strays)
        if broken or silent or accepted or left:
            print(_report(label, broken + silent + accepted + left))
        failed += bool(broken)
        unnamed += bool(silent)
        misread += bool(accepted)
        stray += bool(left)
        data_errors += any(code == 2 for _command, code, _err in runs)
    print(f"{len(cases)} cases ({min(count, len(swaps))} of {len(swaps)} value swaps, "
          f"{renames} key renames), {len(cases) * len(COMMANDS)} command runs, "
          f"{failed} broke the exit-code contract, "
          f"{unnamed} of {data_errors} exit-2 cases do not name the edited file, "
          f"{misread} of {renames} key renames do not make build exit 2, "
          f"{stray} cases leave a file that no command writes")
    return 1 if failed or unnamed or misread or stray else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
