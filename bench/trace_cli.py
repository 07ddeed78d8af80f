"""Run one threatrank CLI command with spans recorded at module boundaries.

Usage: python3 bench/trace_cli.py SPANS_JSON TRACE_ID -- CLI_ARGS...

The public functions each layer exposes are rebound, in the namespace the
caller looks them up in, to wrappers that record a span (name, start, end,
parent) and a few counts.  The command then runs through
``threatrank.cli.main``.  Spans stay in memory and are written to
SPANS_JSON when the command ends.  No file of the program changes, and
per-call micro-methods such as ``PropertyGraph.neighbors`` are left alone.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path

_clock = time.perf_counter
_T0 = _clock()


class Tracer:
    """Spans of one command: [id, parent id, name, start, end, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = [0]
        self._next = 1

    def wrap(self, fn, name: str, counts=None, inputs=None):
        """A stand-in for ``fn`` that records a span per call.

        ``inputs(args)`` may replace the arguments inside the span (to run a
        lazy argument there); ``counts(result, args)`` runs after the span
        ends, under a ``trace.counts`` span so ancestors exclude its cost.
        """
        def traced(*args, **kwargs):
            span_id, parent = self._next, self._stack[-1]
            self._next += 1
            self._stack.append(span_id)
            span = [span_id, parent, name, _clock(), 0.0, None]
            try:
                if inputs is not None:
                    args = inputs(args)
                result = fn(*args, **kwargs)
            finally:
                span[4] = _clock()
                self._stack.pop()
                self.spans.append(span)
            if counts is not None:
                span[5] = counts(result, args)
                self.spans.append([0, parent, "trace.counts", span[4], _clock(), None])
            return result
        return traced


def _rank_digest(ranked) -> str:
    rows = [(i.cve_id, i.score, i.rank, sorted(i.feature_bits.items())) for i in ranked.items]
    text = repr((ranked.org_id, ranked.policy.value, ranked.iso_week, rows))
    return hashlib.blake2b(text.encode(), digest_size=12).hexdigest()


def instrument(tracer: Tracer) -> None:
    """Rebind each layer's boundary functions to traced stand-ins."""
    from threatrank import cli, enrich, evaluation, feeds, kgraph, profiles, ranking

    def rebind(targets, name, counts=None, inputs=None):
        original = getattr(*targets[0])
        traced = tracer.wrap(original, name, counts, inputs)
        for module, attr in targets:
            setattr(module, attr, traced)

    parsed = lambda result, _: {"records": len(result.records), "skipped": result.skipped_count}
    for attr in ("parse_snapshot", "parse_epss_csv", "parse_kev_csv"):
        rebind([(feeds, attr)], "feeds.parse", parsed)
    rebind([(feeds, "validate_snapshot")], "feeds.validate",
           lambda report, _: {"findings": len(report.findings)})
    rebind([(cli, "load_vocabulary")], "vocab.load")
    rebind([(enrich, "load_lexicon")], "enrich.lexicon")
    # cli hands filter_us_targeting a lazy generator of attribute_group
    # calls; drawing it inside the span puts attribution in this span.
    rebind([(enrich, "filter_us_targeting")], "enrich.attribute",
           lambda kept, args: {"groups": len(args[0]), "kept": len(kept)},
           inputs=lambda args: (list(args[0]), *args[1:]))
    rebind([(profiles, "load_profile")], "profiles.load")
    rebind([(profiles, "resolve_cpes")], "profiles.resolve",
           lambda result, _: {"items": len(result[1].rows), "resolved": result[1].resolved})
    rebind([(kgraph, "build_graph")], "kgraph.build",
           lambda g, _: {"nodes": g.node_count, "edges": g.edge_count,
                         "dangling": g.stats.dangling_total})
    rebind([(kgraph, "save_graph")], "kgraph.save",
           lambda _, args: {"bytes": Path(args[1]).stat().st_size})
    rebind([(kgraph, "load_graph")], "kgraph.load")
    rebind([(ranking, "techniques_for_cve")], "kgraph.path_query")
    rebind([(ranking, "generate_candidates"), (evaluation, "generate_candidates")],
           "ranking.candidates",
           lambda cohorts, _: {"cohorts": len(cohorts),
                               "candidates": sum(len(c.cve_ids) for c in cohorts)})
    rebind([(ranking, "rank"), (evaluation, "rank")], "ranking.rank",
           lambda ranked, _: {"items": len(ranked.items), "digest": _rank_digest(ranked)})
    rebind([(evaluation, "generate_report")], "evaluation.report")
    rebind([(evaluation, "ndcg_at_k")], "evaluation.ndcg")
    rebind([(evaluation, "patch_cost")], "evaluation.cost")
    rebind([(evaluation.EvaluationReport, "write_csvs")], "evaluation.write")
    rebind([(evaluation, "paired_t_test")], "stats.ttest")


def main(argv: list[str]) -> int:
    spans_path, trace_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: trace_cli.py SPANS_JSON TRACE_ID -- CLI_ARGS...")
    from threatrank import cli

    tracer = Tracer()
    instrument(tracer)
    command = next(a for a in cli_args if a in ("ingest", "build", "rank", "evaluate",
                                                "case-study"))
    imported = _clock()
    tracer.spans.append([0, 0, "cli.import", _T0, imported, None])
    main_span = tracer.wrap(cli.main, f"cli.{command.replace('-', '_')}")
    try:
        return main_span(cli_args)
    finally:
        Path(spans_path).write_text(json.dumps({"trace_id": trace_id, "spans": tracer.spans}),
                                    encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
