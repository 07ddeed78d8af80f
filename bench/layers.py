"""Per-layer metrics of one traced refresh, from the spans of its commands.

A span is ``(id, parent id, name, start, end, counts)``.  Its self time is
its duration minus the time its child spans cover (calls are sequential,
so children never overlap).  Times and counts are summed over every
command of a refresh, so a snapshot that both ``ingest`` and ``build``
parse counts twice in ``feeds.records``.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field

CLI_COMMANDS = ("ingest", "build", "rank", "evaluate", "case_study")
READ_COMMANDS = ("rank", "evaluate", "case_study")

PER_LAYER = [
    "feeds.parse_s", "feeds.records", "feeds.skipped", "feeds.validate_s", "feeds.findings",
    "vocab.load_s",
    "enrich.lexicon_s", "enrich.attribute_s", "enrich.groups", "enrich.kept_ratio",
    "profiles.load_s", "profiles.resolve_s", "profiles.items", "profiles.resolved_ratio",
    "kgraph.build_s", "kgraph.nodes", "kgraph.edges", "kgraph.dangling_dropped",
    "kgraph.save_s", "kgraph.graph_bytes",
    "kgraph.load_s", "kgraph.load_calls",
    "kgraph.path_query_s", "kgraph.path_query_calls",
    "ranking.candidates_s", "ranking.cohorts", "ranking.candidates", "ranking.rank_s",
    "ranking.rank_calls", "ranking.items_scored", "ranking.unique_rank_ratio",
    "evaluation.ndcg_s", "evaluation.ndcg_calls", "evaluation.cost_s",
    "evaluation.report_self_s", "evaluation.write_s",
    "stats.ttest_s", "stats.ttest_calls",
    *(f"cli.{command}.self_s" for command in CLI_COMMANDS), "cli.import_s",
    "share.evaluate.ranking_evaluation", "share.setup.enrich_profiles_build",
    "share.read.load_min",
    "trace_overhead_s",
]


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bytes"):
        return "bytes"
    if metric.endswith("_ratio") or metric.startswith("share."):
        return "ratio"
    return "count"


@dataclass
class CommandSpans:
    """Self time, calls and counts per span name within one command."""

    command: str = ""
    duration: float = 0.0          # the command's own span: all of cli.main
    self_s: dict = field(default_factory=lambda: defaultdict(float))
    calls: Counter = field(default_factory=Counter)
    counts: dict = field(default_factory=lambda: defaultdict(float))
    digests: list = field(default_factory=list)

    @classmethod
    def from_spans(cls, spans) -> "CommandSpans":
        covered = defaultdict(float)
        for _id, parent, _name, start, end, _counts in spans:
            covered[parent] += end - start
        out = cls()
        for span_id, parent, name, start, end, counts in spans:
            # Id 0 marks spans that never have children.
            out.self_s[name] += (end - start) - (covered[span_id] if span_id else 0.0)
            out.calls[name] += 1
            for key, value in (counts or {}).items():
                if key == "digest":
                    out.digests.append(value)
                else:
                    out.counts[f"{name}.{key}"] += value
            if name.startswith("cli.") and parent == 0 and span_id:
                out.command, out.duration = name[4:], end - start
        return out

    def layer_self(self) -> dict[str, float]:
        """Self seconds per layer (the span name's first part)."""
        layers: dict[str, float] = defaultdict(float)
        for name, seconds in self.self_s.items():
            if name not in ("cli.import", "trace.counts"):
                layers[name.split(".")[0]] += seconds
        return dict(layers)


def refresh_metrics(commands: list[CommandSpans]) -> dict[str, float]:
    """Every per-layer metric except ``trace_overhead_s``, for one refresh."""
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    counts: dict[str, float] = defaultdict(float)
    digests: set = set()
    cli_self: dict[str, float] = defaultdict(float)
    duration: dict[str, float] = defaultdict(float)
    for spans in commands:
        for name, seconds in spans.self_s.items():
            self_s[name] += seconds
        calls.update(spans.calls)
        for key, value in spans.counts.items():
            counts[key] += value
        digests.update(spans.digests)
        cli_self[spans.command] += spans.self_s[f"cli.{spans.command}"]
        duration[spans.command] += spans.duration

    evaluate = [c for c in commands if c.command == "evaluate"]
    evaluate_share = sum(c.layer_self().get(layer, 0.0) for c in evaluate
                         for layer in ("ranking", "evaluation")) / max(
        1e-9, sum(c.duration for c in evaluate))
    setup_share = sum(self_s[n] for n in ("enrich.lexicon", "enrich.attribute",
                                          "profiles.load", "profiles.resolve",
                                          "kgraph.build")) / max(
        1e-9, duration["ingest"] + duration["build"])
    load_shares = [c.self_s["kgraph.load"] / c.duration for c in commands
                   if c.command in READ_COMMANDS and c.duration > 0]

    def ratio(part: str, whole: str) -> float:
        return counts[part] / max(1.0, counts[whole])

    return {
        "feeds.parse_s": self_s["feeds.parse"],
        "feeds.records": counts["feeds.parse.records"],
        "feeds.skipped": counts["feeds.parse.skipped"],
        "feeds.validate_s": self_s["feeds.validate"],
        "feeds.findings": counts["feeds.validate.findings"],
        "vocab.load_s": self_s["vocab.load"],
        "enrich.lexicon_s": self_s["enrich.lexicon"],
        "enrich.attribute_s": self_s["enrich.attribute"],
        "enrich.groups": counts["enrich.attribute.groups"],
        "enrich.kept_ratio": ratio("enrich.attribute.kept", "enrich.attribute.groups"),
        "profiles.load_s": self_s["profiles.load"],
        "profiles.resolve_s": self_s["profiles.resolve"],
        "profiles.items": counts["profiles.resolve.items"],
        "profiles.resolved_ratio": ratio("profiles.resolve.resolved", "profiles.resolve.items"),
        "kgraph.build_s": self_s["kgraph.build"],
        "kgraph.nodes": counts["kgraph.build.nodes"],
        "kgraph.edges": counts["kgraph.build.edges"],
        "kgraph.dangling_dropped": counts["kgraph.build.dangling"],
        "kgraph.save_s": self_s["kgraph.save"],
        "kgraph.graph_bytes": counts["kgraph.save.bytes"],
        "kgraph.load_s": self_s["kgraph.load"],
        "kgraph.load_calls": calls["kgraph.load"],
        "kgraph.path_query_s": self_s["kgraph.path_query"],
        "kgraph.path_query_calls": calls["kgraph.path_query"],
        "ranking.candidates_s": self_s["ranking.candidates"],
        "ranking.cohorts": counts["ranking.candidates.cohorts"],
        "ranking.candidates": counts["ranking.candidates.candidates"],
        "ranking.rank_s": self_s["ranking.rank"],
        "ranking.rank_calls": calls["ranking.rank"],
        "ranking.items_scored": counts["ranking.rank.items"],
        "ranking.unique_rank_ratio": len(digests) / max(1, calls["ranking.rank"]),
        "evaluation.ndcg_s": self_s["evaluation.ndcg"],
        "evaluation.ndcg_calls": calls["evaluation.ndcg"],
        "evaluation.cost_s": self_s["evaluation.cost"],
        "evaluation.report_self_s": self_s["evaluation.report"],
        "evaluation.write_s": self_s["evaluation.write"],
        "stats.ttest_s": self_s["stats.ttest"],
        "stats.ttest_calls": calls["stats.ttest"],
        **{f"cli.{command}.self_s": cli_self[command] for command in CLI_COMMANDS},
        "cli.import_s": self_s["cli.import"],
        "share.evaluate.ranking_evaluation": evaluate_share,
        "share.setup.enrich_profiles_build": setup_share,
        "share.read.load_min": min(load_shares, default=0.0),
    }
