#!/usr/bin/env python3
"""threatrank benchmark: one analyst refresh after another, through the real CLI.

Usage, from the root of a checkout:

    python3 bench/run.py --workload year_deep --seed 1 --seconds 30 --trace 0

A refresh runs ``ingest``, ``build``, ``rank`` under each of the four
policies for the primary org, ``evaluate`` and ``case-study``, each as its
own ``python3`` child, one at a time (a closed loop with one client).
Refreshes repeat until ``--seconds`` is used up (at least three), each from
an empty output directory.  The corpus is generated from ``--seed`` before
timing starts and the outputs are checked against the generator's model
after it ends.

``--trace 0`` reports the end-to-end metrics (medians over refreshes);
``--trace 1`` alternates untraced and traced refreshes and reports the
per-layer metrics of the traced ones.  ``--workload all`` runs every
workload in turn.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from corpus import PRIMARY_ORG, WORKLOADS, Corpus, generate
from layers import PER_LAYER, CommandSpans, refresh_metrics, unit_of
from oracle import POLICIES, check_outputs

BENCH_DIR = Path(__file__).resolve().parent
MIN_REFRESHES = 3
MIN_TRACED_PAIRS = 2
# Seconds calibrate.py takes on the reference machine; reported times are
# scaled to that machine's speed (see Refresh.scaled).
CALIBRATION_REFERENCE_S = 0.2
STAGES = ("setup_s", "rank_s", "evaluate_s", "case_study_s")
CLI_ENTRY = "import sys; from threatrank.cli import main; sys.exit(main(sys.argv[1:]))"
END_TO_END = [
    ("setup_s", "s"), ("rank_s", "s"), ("evaluate_s", "s"), ("case_study_s", "s"),
    ("total_s", "s"), ("peak_rss_mb", "MB"), ("out_mb", "MB"),
]


@dataclass
class Refresh:
    """One full analyst refresh: per-stage wall seconds and what it left."""

    stage_s: dict = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    out_mb: float = 0.0
    failed: list = field(default_factory=list)
    graph_sha256: str = ""
    outputs_sha256: str = ""
    spans: list = field(default_factory=list)
    calibration_s: float = 0.0     # mean of the calibrations just before and after

    @property
    def total_s(self) -> float:
        return sum(self.stage_s.values())

    def scaled(self, seconds: float) -> float:
        """Wall seconds at the reference machine's speed.

        A shared host can run the same command 40% slower for minutes at a
        time.  The calibration load timed on both sides of the refresh slows
        down with it, so the ratio stays comparable across such minutes.
        """
        return seconds * CALIBRATION_REFERENCE_S / self.calibration_s


def _commands(corpus: Corpus) -> list[tuple[str, str, list[str]]]:
    """(stage, label, CLI arguments) of one refresh, in order."""
    base = ["--config", str(corpus.config)]
    read = base + corpus.read_args
    return [
        ("setup_s", "ingest", base + ["ingest"]),
        ("setup_s", "build", base + ["build"]),
        *[("rank_s", f"rank.{policy}",
           read + ["rank", "--org", PRIMARY_ORG, "--policy", policy]) for policy in POLICIES],
        ("evaluate_s", "evaluate", read + ["evaluate"]),
        ("case_study_s", "case-study", read + ["case-study", "--org", PRIMARY_ORG]),
    ]


def _tree_sha256(root: Path, name: str | None = None) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.iterdir()):
        if name is None or path.name == name:
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


class Runner:
    """Runs refreshes of one corpus from a checkout's root."""

    def __init__(self, root: Path, corpus: Corpus, work: Path):
        self.root = root
        self.corpus = corpus
        self.work = work
        self.commands = _commands(corpus)
        path = os.environ.get("PYTHONPATH")
        src = str(root / "src")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        self.log = work / "stderr.log"

    def _child(self, argv: list[str]) -> tuple[int, float, float]:
        """Run one child to completion: (exit code, wall seconds, peak RSS MB)."""
        with self.log.open("ab") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            # wait4 gives this child's own peak RSS (RUSAGE_CHILDREN keeps a
            # running maximum over every child).
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss * 1024 / 1e6

    def calibrate(self) -> float:
        code, wall, _ = self._child([sys.executable, str(BENCH_DIR / "calibrate.py")])
        if code:
            raise RuntimeError("the calibration load failed")
        return wall

    def warm_up(self) -> None:
        """Import the package once so byte-code caches exist before timing."""
        code, _, _ = self._child([sys.executable, "-c", "import threatrank.cli"])
        if code:
            raise RuntimeError(f"cannot import threatrank from {self.root / 'src'}")

    def refresh(self, index: int, traced: bool) -> Refresh:
        out_dir = self.corpus.out_dir
        shutil.rmtree(out_dir, ignore_errors=True)
        result = Refresh()
        for stage, label, args in self.commands:
            if traced:
                spans_path = self.work / "spans.json"
                prefix = [sys.executable, str(BENCH_DIR / "trace_cli.py"), str(spans_path),
                          f"{index}:{label}", "--"]
            else:
                prefix = [sys.executable, "-c", CLI_ENTRY]
            code, wall, rss = self._child(prefix + args)
            result.stage_s[stage] = result.stage_s.get(stage, 0.0) + wall
            result.peak_rss_mb = max(result.peak_rss_mb, rss)
            if code:
                result.failed.append(f"{label} exited {code}")
            elif traced:
                spans = json.loads(spans_path.read_text(encoding="utf-8"))["spans"]
                result.spans.append(CommandSpans.from_spans(spans))
        if out_dir.is_dir():
            result.out_mb = sum(p.stat().st_size for p in out_dir.iterdir()) / 1e6
            result.outputs_sha256 = _tree_sha256(out_dir)
            result.graph_sha256 = _tree_sha256(out_dir, "graph.jsonl")
        return result

    def measure(self, seconds: float, traced: bool) -> list[tuple[Refresh, Refresh | None]]:
        """Refreshes until ``seconds`` is used up; pairs (untraced, traced)."""
        runs: list[tuple[Refresh, Refresh | None]] = []
        start = time.perf_counter()
        before = self.calibrate()
        while True:
            began = time.perf_counter()
            plain = self.refresh(len(runs), traced=False)
            runs.append((plain, self.refresh(len(runs), traced=True) if traced else None))
            after = self.calibrate()
            plain.calibration_s, before = (before + after) / 2, after
            took = time.perf_counter() - began
            enough = len(runs) >= (MIN_TRACED_PAIRS if traced else MIN_REFRESHES)
            if enough and time.perf_counter() - start + took > seconds:
                return runs


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def run_workload(root: Path, workload: str, seed: int, seconds: float, traced: bool) -> dict:
    work = root / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup_start = time.perf_counter()
        corpus = generate(workload, seed, work / "corpus")
        print(f"[{workload}] seed {seed}: generated in {time.perf_counter() - setup_start:.2f}s "
              f"sizes {json.dumps(corpus.sizes)} inputs_sha256 {corpus.input_sha256}")
        runner = Runner(root, corpus, work)
        runner.warm_up()
        runs = runner.measure(seconds, traced)
        plain = [p for p, _ in runs]
        refreshes = plain + [t for _, t in runs if t is not None]
        failed_commands = [f for r in refreshes for f in r.failed]
        checks = check_outputs(corpus, corpus.out_dir) if not failed_commands else []
        graphs = {r.graph_sha256 for r in refreshes}
        outputs = {r.outputs_sha256 for r in refreshes}
        checks.append(("graph_identical", len(graphs) == 1 and "" not in graphs,
                       f"{len(graphs)} distinct graph.jsonl digests"))
        checks.append(("outputs_identical", len(outputs) == 1 and "" not in outputs,
                       f"{len(outputs)} distinct output-directory digests"))
        attempted = len(refreshes) * len(runner.commands) + len(checks)
        failed = len(failed_commands) + sum(not ok for _, ok, _ in checks)
        for name, ok, detail in checks:
            if not ok:
                print(f"[{workload}] check {name} FAILED: {detail}")
        for failure in sorted(set(failed_commands)):
            print(f"[{workload}] command {failure}; end of the commands' stderr:",
                  file=sys.stderr)
            sys.stderr.write(runner.log.read_text(encoding="utf-8", errors="replace")[-2000:])

        if traced:
            traced_runs = [t for _, t in runs]
            per_refresh = [refresh_metrics(t.spans) for t in traced_runs]
            metrics = {name: _median([m[name] for m in per_refresh])
                       for name in PER_LAYER if name != "trace_overhead_s"}
            metrics["trace_overhead_s"] = (_median([t.total_s for t in traced_runs])
                                           - _median([p.total_s for p in plain]))
            units = {name: unit_of(name) for name in PER_LAYER}
            _print_breakdown(workload, traced_runs[-1].spans)
        else:
            wall = {stage: _median([r.stage_s[stage] for r in plain]) for stage in STAGES}
            print(f"[{workload}] unscaled wall medians {json.dumps(wall)}, calibration "
                  f"{_median([r.calibration_s for r in plain]):.4f}s")
            values = {
                **{stage: [r.scaled(r.stage_s[stage]) for r in plain] for stage in STAGES},
                "total_s": [r.scaled(r.total_s) for r in plain],
                "peak_rss_mb": [r.peak_rss_mb for r in plain],
                "out_mb": [r.out_mb for r in plain],
            }
            metrics = {name: _median(values[name]) for name, _ in END_TO_END}
            units = dict(END_TO_END)
        print(f"[{workload}] {len(runs)} refreshes, {attempted} operations, {failed} failed")
        for name, value in metrics.items():
            print(f"[{workload}] {name:<36} {value:>14.6g} {units[name]}")
        return {"attempted": attempted, "failed": failed,
                "metrics": {name: {"value": value, "unit": units[name]}
                            for name, value in metrics.items()}}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _print_breakdown(workload: str, commands: list[CommandSpans]) -> None:
    """Self-time share of each layer in each command of one traced refresh."""
    for spans in commands:
        layers = sorted(spans.layer_self().items(), key=lambda kv: -kv[1])
        shares = ", ".join(f"{layer} {seconds / spans.duration:.0%}"
                           for layer, seconds in layers if seconds / spans.duration >= 0.01)
        print(f"[{workload}] {spans.command:<11} {spans.duration:7.3f}s  {shares}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "threatrank" / "cli.py").is_file():
        print(f"error: no threatrank sources under {root / 'src'}; run from a checkout's root",
              file=sys.stderr)
        return 2
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {w: run_workload(root, w, args.seed, args.seconds, bool(args.trace))
               for w in workloads}
    if len(results) == 1:
        metrics = next(iter(results.values()))["metrics"]
    else:
        metrics = {f"{w}.{name}": value for w, result in results.items()
                   for name, value in result["metrics"].items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
