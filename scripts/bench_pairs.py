#!/usr/bin/env python3
"""Run the benchmark on two source trees in interleaved pairs and compare them.

Usage, from anywhere:

    python3 scripts/bench_pairs.py PARENT CHANGE --workload W --pairs N \\
        [--seed 1] [--seconds 40] [--also WORKLOAD=PAIRS ...] \\
        [--held-out-seed 2 --held-out-pairs 2] [--traced-pairs 1] \\
        [--change TEXT] [--parent-commit SHA] [--out BENCH.json]

PARENT and CHANGE are checkout roots; ``--parent-commit`` names the
parent's commit when PARENT is an export with no git history.  Each run
is one call of that tree's own ``bench/run.py``, started from that tree's
root, so each side runs the bench, the corpus generator and the sources
it holds.  Runs alternate P C C P P C ..., so a drift in the machine's
speed falls on both sides alike; pair i is runs 2i and 2i+1.  The last
line of each run's standard output is its JSON result (``{"correct",
"attempted", "failed", "metrics"}``).

The output is one JSON object in the shape every ``BENCH_*.json`` shares:
``change``, ``parent_commit``, ``machine``, ``command``, ``order`` and
``runs`` for ``--workload`` at ``--seed``, then ``held_out_seed`` (the same
workload at ``--held-out-seed``) and ``traced`` (``--trace 1`` runs of the
same workload), each null when not asked for.  Each series also holds a
``summary``: per metric, both sides' medians and interquartile ranges, the
change's pair wins and its relative change of the median.  ``--also``
adds a series of another workload, under ``also``.  A win is a lower
value, unless the ``BENCHMARK.json`` beside this script says the metric
is better higher.  Nothing under either tree's ``bench/`` is edited.

Two trees of which only one holds a bytecode cache (a ``__pycache__``
under ``src/``) are refused: the cached side would skip compiling the
package in every command, a saving that is no part of either tree.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def interleaved(pairs: int) -> list[str]:
    """P C C P P C ... for ``pairs`` pairs."""
    order = []
    for i in range(pairs):
        order += SIDES if i % 2 == 0 else SIDES[::-1]
    return order


def parse_result(stdout: str) -> dict:
    """The JSON object on the last non-blank line of a run's standard output."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("the run printed nothing")
    result = json.loads(lines[-1])
    if not isinstance(result, dict) or "metrics" not in result:
        raise ValueError(f"the run's last line is not a result: {lines[-1][:200]!r}")
    return result


def quartile_range(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def higher_is_better() -> frozenset[str]:
    """Names of the metrics that ``BENCHMARK.json`` marks better higher."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return frozenset()
    spec = json.loads(path.read_text(encoding="utf-8"))
    return frozenset(entry["name"] for key in ("end_to_end", "per_layer")
                     for entry in spec.get(key, ()) if entry.get("better") == "higher")


def summarize(runs: list[dict], higher: frozenset[str] = frozenset()) -> dict:
    """Per metric: medians, interquartile ranges, pair wins and relative change.

    ``runs`` are ``{"side", "result"}`` in run order; pair i is runs 2i and
    2i+1, one of each side.  A metric is named as ``run.py`` names it
    (``weekly_refresh.rank_s``); ``higher`` holds the bare names
    (``ranking.unique_rank_ratio``) that are better higher.  A metric
    missing from a run is left out of that run's side and of that pair.
    """
    values = {side: {} for side in SIDES}
    for run in runs:
        for name, metric in run["result"]["metrics"].items():
            values[run["side"]].setdefault(name, []).append(metric["value"])
    summary = {}
    for name in sorted(set(values["parent"]) & set(values["change"])):
        better_higher = name.split(".", 1)[-1] in higher or name in higher
        wins = pairs = 0
        for first, second in zip(runs[::2], runs[1::2]):
            by_side = {run["side"]: run["result"]["metrics"].get(name) for run in (first, second)}
            if None in by_side.values() or len(by_side) != 2:
                continue
            pairs += 1
            parent, change = by_side["parent"]["value"], by_side["change"]["value"]
            wins += change > parent if better_higher else change < parent
        parent_median = statistics.median(values["parent"][name])
        change_median = statistics.median(values["change"][name])
        summary[name] = {
            "parent_median": parent_median,
            "change_median": change_median,
            "parent_iqr": quartile_range(values["parent"][name]),
            "change_iqr": quartile_range(values["change"][name]),
            "change_wins": f"{wins}/{pairs}",
            "relative": (change_median - parent_median) / parent_median if parent_median else None,
        }
    return summary


def run_series(trees: dict[str, Path], workload: str, seed: int, seconds: float, trace: int,
               pairs: int, higher: frozenset[str]) -> dict:
    """Run one series of interleaved pairs; its command, order, runs and summary."""
    args = ["bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", str(trace)]
    order = interleaved(pairs)
    runs = []
    for i, side in enumerate(order, start=1):
        proc = subprocess.run([sys.executable, *args], cwd=trees[side],
                              capture_output=True, text=True)
        try:
            result = parse_result(proc.stdout)
        except ValueError as exc:
            sys.stderr.write(proc.stderr[-4000:])
            raise SystemExit(f"{side} run {i} of {workload} (exit {proc.returncode}): {exc}")
        runs.append({"side": side, "result": result})
        print(f"[{workload} seed {seed} trace {trace}] run {i}/{len(order)} {side}: "
              f"{result['attempted']} operations, {result['failed']} failed", file=sys.stderr)
    return {"command": " ".join(["python3", *args]), "order": order, "runs": runs,
            "summary": summarize(runs, higher)}


def _commit(tree: Path) -> str | None:
    proc = subprocess.run(["git", "-C", str(tree), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def _machine() -> str:
    parts = [f"{os.cpu_count()}-core", platform.system(),
             f"{platform.python_implementation()} {platform.python_version()}"]
    if os.environ.get("PYTHONDONTWRITEBYTECODE"):
        parts.append("PYTHONDONTWRITEBYTECODE=1")
    return ", ".join(parts)


def _workload_pairs(text: str) -> tuple[str, int]:
    workload, sep, pairs = text.partition("=")
    if not sep or not pairs.isdigit() or int(pairs) < 1:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD=PAIRS, not {text!r}")
    return workload, int(pairs)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change_tree", metavar="change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--also", type=_workload_pairs, action="append", default=[],
                        metavar="WORKLOAD=PAIRS")
    parser.add_argument("--held-out-seed", type=int)
    parser.add_argument("--held-out-pairs", type=int, default=2)
    parser.add_argument("--traced-pairs", type=int, default=0)
    parser.add_argument("--change", default="", help="one line saying what the change does")
    parser.add_argument("--parent-commit", help="default: the parent tree's git HEAD")
    parser.add_argument("--out", type=Path, help="default: standard output")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change_tree.resolve()}
    for side, tree in trees.items():
        if not (tree / "bench" / "run.py").is_file():
            parser.error(f"{side} tree {tree} has no bench/run.py")
    cached = {side: any((tree / "src").rglob("__pycache__")) for side, tree in trees.items()}
    if len(set(cached.values())) > 1:
        parser.error(f"only one tree has a bytecode cache under src/ {cached}; "
                     "remove its __pycache__ directories")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    higher = higher_is_better()
    report = {
        "change": args.change,
        "parent_commit": args.parent_commit or _commit(trees["parent"]),
        "machine": _machine(),
        **run_series(trees, args.workload, args.seed, args.seconds, 0, args.pairs, higher),
        "held_out_seed": None,
        "traced": None,
        "also": {},
    }

    def write() -> None:
        # After each series, so a later series that fails loses none of the earlier ones.
        if args.out is not None:
            args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    write()
    for workload, pairs in args.also:
        report["also"][workload] = run_series(trees, workload, args.seed, args.seconds, 0,
                                              pairs, higher)
        write()
    if args.held_out_seed is not None:
        report["held_out_seed"] = run_series(trees, args.workload, args.held_out_seed,
                                             args.seconds, 0, args.held_out_pairs, higher)
        write()
    if args.traced_pairs:
        report["traced"] = run_series(trees, args.workload, args.seed, args.seconds, 1,
                                      args.traced_pairs, higher)
        write()
    if args.out is None:
        sys.stdout.write(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
