"""Command-line orchestration: ingest -> build -> rank -> evaluate -> report.

Each stage reads and writes plain files so stages are independently
testable and cacheable: ``build`` persists the graph snapshot that
``rank``, ``evaluate``, and ``case-study`` consume.  Every command is
deterministic and idempotent; nothing in the pipeline needs a seed.

Exit codes: 0 success, 1 usage error (bad flags, missing paths, unknown
ids), 2 data error (unreadable or invalid content).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass, field, replace
from datetime import date
from pathlib import Path

from . import enrich, evaluation, feeds, kgraph, profiles, ranking
from .errors import DataError, UsageError
from .feeds import SourceKind
from .vocab import load_vocabulary

GRAPH_FILENAME = "graph.jsonl"


@dataclass
class ProjectConfig:
    """Parsed project configuration; all paths resolved against the file."""

    base_dir: Path
    snapshots: dict[SourceKind, Path]
    profile_paths: list[Path]
    date_range: tuple[date, date]
    output_dir: Path
    lexicon_countries: Path | None = None
    lexicon_sectors: Path | None = None
    vocab_countries: Path | None = None
    vocab_sectors: Path | None = None
    apt_config: ranking.PolicyConfig = field(
        default_factory=lambda: ranking.PolicyConfig(policy=ranking.Policy.APT_THREAT))
    general_config: ranking.PolicyConfig = field(
        default_factory=lambda: ranking.PolicyConfig(
            policy=ranking.Policy.GENERAL_THREAT,
            ideal_mode=ranking.IdealMode.GENERAL))


_JSON_NAMES = {dict: "object", list: "array", str: "string"}


def _expect(value, kind: type, what: str):
    """``value`` if it has the JSON type ``kind``; a DataError otherwise."""
    if not isinstance(value, kind):
        raise DataError(f"{what} must be a JSON {_JSON_NAMES[kind]}")
    return value


def _policy_config(policy: ranking.Policy, raw: dict, mode: ranking.IdealMode) -> ranking.PolicyConfig:
    _expect(raw, dict, f"policy {policy.value!r}")
    origins = raw.get("origin_countries", list(ranking.DEFAULT_ORIGIN_COUNTRIES))
    if not (isinstance(origins, list) and all(isinstance(c, str) for c in origins)):
        raise DataError(f"policy {policy.value!r}: 'origin_countries' must be "
                        f"a JSON array of strings, not {origins!r}")
    try:
        return ranking.PolicyConfig(
            policy=policy,
            origin_countries=frozenset(origins),
            skill_level=feeds.SkillLevel(raw.get("skill_level", "High")),
            epss_threshold=float(raw.get("epss_threshold", ranking.DEFAULT_EPSS_THRESHOLD)),
            risk_appetite=int(raw.get("risk_appetite", 100)),
            k=int(raw.get("k", 20)),
            ideal_mode=mode,
        )
    except (OverflowError, TypeError, ValueError) as exc:
        raise DataError(f"bad policy configuration: {exc}") from None


def load_config(path: str | Path) -> ProjectConfig:
    """Parse a project config file and check every referenced path exists."""
    path = Path(path)
    if not path.exists():
        raise UsageError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise DataError(f"{path}: not valid JSON ({exc})")
    _expect(raw, dict, f"{path}: the config")
    base = path.parent

    def section(key: str, kind: type):
        return _expect(raw.get(key) or kind(), kind, f"{path}: {key!r}")

    def resolve(rel: str) -> Path:
        _expect(rel, str, f"{path}: a configured path")
        candidate = (base / rel).resolve() if not Path(rel).is_absolute() else Path(rel)
        if not candidate.exists():
            raise UsageError(f"configured path does not exist: {candidate}")
        return candidate

    snapshots: dict[SourceKind, Path] = {}
    for kind_name, rel in section("snapshots", dict).items():
        try:
            kind = SourceKind(kind_name)
        except ValueError:
            raise DataError(f"{path}: unknown snapshot kind {kind_name!r}")
        snapshots[kind] = resolve(rel)

    profile_paths = [resolve(rel) for rel in section("profiles", list)]

    date_raw = section("date_range", dict)
    try:
        start = date.fromisoformat(date_raw["from"])
        end = date.fromisoformat(date_raw["to"])
    except (KeyError, TypeError, ValueError):
        raise DataError(f"{path}: date_range needs ISO 'from' and 'to' dates")
    if start > end:
        raise DataError(f"{path}: date_range is empty ({start} > {end})")

    out_rel = _expect(raw.get("output_dir", "out"), str, f"{path}: 'output_dir'")
    output_dir = (base / out_rel) if not Path(out_rel).is_absolute() else Path(out_rel)

    lexicons = section("lexicons", dict)
    vocab = section("vocabularies", dict)
    policies = section("policies", dict)
    return ProjectConfig(
        base_dir=base,
        snapshots=snapshots,
        profile_paths=profile_paths,
        date_range=(start, end),
        output_dir=output_dir,
        lexicon_countries=resolve(lexicons["countries"]) if "countries" in lexicons else None,
        lexicon_sectors=resolve(lexicons["sectors"]) if "sectors" in lexicons else None,
        vocab_countries=resolve(vocab["countries"]) if "countries" in vocab else None,
        vocab_sectors=resolve(vocab["sectors"]) if "sectors" in vocab else None,
        apt_config=_policy_config(ranking.Policy.APT_THREAT,
                                  policies.get("apt_threat", {}), ranking.IdealMode.APT),
        general_config=_policy_config(ranking.Policy.GENERAL_THREAT,
                                      policies.get("general_threat", {}),
                                      ranking.IdealMode.GENERAL),
    )


def load_bundle(config: ProjectConfig) -> tuple[feeds.SnapshotBundle, dict[str, feeds.ParseResult]]:
    """Parse every configured snapshot into one bundle, keeping parse stats."""
    bundle = feeds.SnapshotBundle()
    results: dict[str, feeds.ParseResult] = {}
    for kind, snapshot_path in sorted(config.snapshots.items(), key=lambda kv: kv[0].value):
        try:
            if kind is SourceKind.EPSS and snapshot_path.suffix.lower() == ".csv":
                result = feeds.parse_epss_csv(snapshot_path)
            elif kind is SourceKind.KEV and snapshot_path.suffix.lower() == ".csv":
                result = feeds.parse_kev_csv(snapshot_path)
            else:
                result = feeds.parse_snapshot(snapshot_path, kind)
        except (feeds.DataFormatError, OSError) as exc:
            raise DataError(f"cannot parse {snapshot_path}: {exc}")
        results[kind.value] = result
        getattr(bundle, feeds.SOURCES[kind].bundle_field).extend(result.records)
    return bundle, results


def prepare_inputs(config: ProjectConfig):
    """Parse snapshots, attribute groups, and resolve profile inventories."""
    vocab = load_vocabulary(config.vocab_countries, config.vocab_sectors)
    bundle, _results = load_bundle(config)
    lexicon = enrich.load_lexicon(config.lexicon_countries, config.lexicon_sectors, vocab)
    attributions = enrich.filter_us_targeting(
        enrich.attribute_group(group, lexicon) for group in bundle.groups
    )
    resolved_profiles = []
    coverage: dict[str, profiles.CoverageReport] = {}
    for profile_path in config.profile_paths:
        profile = profiles.load_profile(profile_path, vocab)
        resolved, report = profiles.resolve_cpes(profile, bundle.cpes)
        resolved_profiles.append(resolved)
        coverage[profile.org_id] = report
    return vocab, bundle, attributions, resolved_profiles, coverage


def build_pipeline(config: ProjectConfig) -> kgraph.PropertyGraph:
    """Parse, enrich, resolve, and assemble the frozen knowledge graph."""
    vocab, bundle, attributions, resolved_profiles, _coverage = prepare_inputs(config)
    graph = kgraph.build_graph(bundle, attributions, resolved_profiles, vocab)
    return graph.freeze()


def _require_graph(config: ProjectConfig) -> kgraph.PropertyGraph:
    graph_path = config.output_dir / GRAPH_FILENAME
    if not graph_path.exists():
        raise UsageError(f"graph snapshot not found: {graph_path} (run 'build' first)")
    return kgraph.load_graph(graph_path)


def _org_context(graph: kgraph.PropertyGraph, org_id: str) -> ranking.OrgContext:
    try:
        return ranking.OrgContext.from_graph(graph, org_id)
    except KeyError:
        raise UsageError(f"unknown organization id: {org_id}")


def _all_org_ids(graph: kgraph.PropertyGraph) -> list[str]:
    return sorted(n.key for n in graph.nodes_with_label(kgraph.NodeLabel.ORGANIZATION))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_ingest(config: ProjectConfig) -> int:
    """Parse and validate all configured snapshots; write a summary."""
    bundle, results = load_bundle(config)
    report = feeds.validate_snapshot(bundle)
    summary = {
        "sources": {
            kind: {
                "records": len(result.records),
                "accepted": result.accepted,
                "skipped": result.skipped_count,
                "replaced_duplicates": result.replaced,
            }
            for kind, result in sorted(results.items())
        },
        "validation": {
            "findings": len(report.findings),
            "dangling_references": len(report.by_category("dangling_reference")),
            "duplicates": len(report.by_category("duplicate")),
            "out_of_range": len(report.by_category("out_of_range")),
        },
    }
    config.output_dir.mkdir(parents=True, exist_ok=True)
    out_path = config.output_dir / "ingest_summary.json"
    out_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    for kind, info in summary["sources"].items():
        print(f"{kind}: {info['records']} records, {info['skipped']} skipped, "
              f"{info['replaced_duplicates']} duplicates replaced")
    print(f"validation findings: {summary['validation']['findings']}")
    print(f"wrote {out_path}")
    return 0


def cmd_build(config: ProjectConfig) -> int:
    """Build the knowledge graph; persist its snapshot and coverage CSVs."""
    vocab, bundle, attributions, resolved_profiles, coverage = prepare_inputs(config)
    graph = kgraph.build_graph(bundle, attributions, resolved_profiles, vocab).freeze()
    config.output_dir.mkdir(parents=True, exist_ok=True)
    for org_id, report in sorted(coverage.items()):
        report.write_csv(config.output_dir / f"coverage_{org_id}.csv")
    graph_path = config.output_dir / GRAPH_FILENAME
    kgraph.save_graph(graph, graph_path)
    dropped = {
        (key.value if isinstance(key, kgraph.EdgeType) else str(key)): count
        for key, count in graph.stats.dangling_dropped.items()
    }
    stats = {
        "nodes": graph.node_count,
        "edges": graph.edge_count,
        "dangling_dropped": dict(sorted(dropped.items())),
        "schema_rejected": graph.stats.schema_rejected,
    }
    (config.output_dir / "build_summary.json").write_text(
        json.dumps(stats, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"graph: {graph.node_count} nodes, {graph.edge_count} edges -> {graph_path}")
    return 0


def _write_ranked_csv(path: Path, ranked_lists: list[ranking.RankedList]) -> None:
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["org", "policy", "iso_week", "rank", "cve", "score", "feature_bits"])
        for ranked in ranked_lists:
            week = f"{ranked.iso_week[0]}-W{ranked.iso_week[1]:02d}"
            for item in ranked.items:
                bits = "|".join(f"{name}={bit}" for name, bit in item.feature_bits.items())
                score = f"{item.score:g}"
                writer.writerow([ranked.org_id, ranked.policy.value, week,
                                 item.rank, item.cve_id, score, bits])


def cmd_rank(config: ProjectConfig, org_id: str, policy_name: str) -> int:
    """Rank an organization's weekly cohorts under one policy."""
    graph = _require_graph(config)
    org = _org_context(graph, org_id)
    try:
        policy = ranking.Policy(policy_name)
    except ValueError:
        raise UsageError(f"unknown policy: {policy_name!r} "
                         f"(choose from {[p.value for p in ranking.Policy]})")
    base = config.general_config if policy is ranking.Policy.GENERAL_THREAT else config.apt_config
    policy_config = replace(base, policy=policy)
    cohorts = ranking.generate_candidates(org, graph, config.date_range)
    ranked_lists = [
        ranking.rank(c, policy_config, ranking.feature_table(graph, c, org, policy_config))
        for c in cohorts
    ]
    config.output_dir.mkdir(parents=True, exist_ok=True)
    out_path = config.output_dir / f"ranked_{org_id}_{policy.value}.csv"
    _write_ranked_csv(out_path, ranked_lists)
    print(f"{org_id}/{policy.value}: {len(cohorts)} weekly cohorts, "
          f"{sum(len(r.items) for r in ranked_lists)} ranked rows -> {out_path}")
    return 0


def cmd_evaluate(config: ProjectConfig) -> int:
    """Compute nDCG curves, costs, and t-tests for every organization."""
    graph = _require_graph(config)
    orgs = [_org_context(graph, org_id) for org_id in _all_org_ids(graph)]
    report = evaluation.generate_report(
        graph, orgs, config.date_range, config.apt_config, config.general_config,
    )
    config.output_dir.mkdir(parents=True, exist_ok=True)
    paths = report.write_csvs(config.output_dir)
    for name, out_path in sorted(paths.items()):
        print(f"wrote {out_path}")
    return 0


def cmd_case_study(config: ProjectConfig, org_id: str, k: int | None = None) -> int:
    """Emit a side-by-side CVSS-vs-threat ranking table per weekly cohort."""
    if k is None:
        k = config.apt_config.k
    elif k < 1:
        raise UsageError(f"--k must be at least 1, not {k}")
    graph = _require_graph(config)
    org = _org_context(graph, org_id)
    cohorts = ranking.generate_candidates(org, graph, config.date_range)
    if not cohorts:
        print(f"{org_id}: no candidate cohorts in "
              f"{config.date_range[0]}..{config.date_range[1]}")
        return 0
    config.output_dir.mkdir(parents=True, exist_ok=True)
    apt = config.apt_config
    cvss_config = replace(apt, policy=ranking.Policy.CVSS_BASE)
    printed = False
    for cohort in cohorts:
        table = ranking.feature_table(graph, cohort, org, apt)
        cvss_rank = ranking.rank(cohort, cvss_config, table).rank_of()
        threat_ranked = ranking.rank(cohort, apt, table)
        rows = [
            (item.cve_id, table[item.cve_id].cvss_base or 0.0, int(item.score),
             cvss_rank[item.cve_id], item.rank)
            for item in threat_ranked.items[:k]
        ]
        year, week = cohort.iso_week
        out_path = config.output_dir / f"case_study_{org_id}_{year}W{week:02d}.csv"
        with out_path.open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["cve", "cvss_base", "relevance",
                             "cvss_base_rank", "apt_threat_rank"])
            writer.writerows(rows)
        if not printed:
            print(f"{org_id} {year}-W{week:02d}: top {len(rows)} of "
                  f"{len(cohort.cve_ids)} candidates (threat policy order)")
            print(f"{'cve':<20}{'cvss':>6}{'rel':>5}{'cvss_rank':>11}{'threat_rank':>13}")
            for cve, cvss, relevance, cvss_rank_pos, threat_rank_pos in rows:
                print(f"{cve:<20}{cvss:>6}{relevance:>5}"
                      f"{cvss_rank_pos:>11}{threat_rank_pos:>13}")
            printed = True
        print(f"wrote {out_path}")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; this toolkit reserves 2
    # for data errors.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="threatrank",
                     description="CTI knowledge graph and vulnerability ranking toolkit")
    parser.add_argument("--config", required=True, help="project config file (JSON)")
    parser.add_argument("--out", help="override the configured output directory")
    parser.add_argument("--from", dest="date_from", help="override range start (ISO date)")
    parser.add_argument("--to", dest="date_to", help="override range end (ISO date)")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("ingest", help="parse and validate the configured snapshots")
    sub.add_parser("build", help="build and persist the knowledge graph")
    rank_parser = sub.add_parser("rank", help="rank weekly cohorts for one organization")
    rank_parser.add_argument("--org", required=True)
    rank_parser.add_argument("--policy", required=True)
    sub.add_parser("evaluate", help="emit nDCG, cost, and t-test report CSVs")
    case_parser = sub.add_parser("case-study",
                                 help="side-by-side CVSS vs threat ranking table")
    case_parser.add_argument("--org", required=True)
    case_parser.add_argument("--k", type=int)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = load_config(args.config)
        if args.out:
            config.output_dir = Path(args.out)
        if args.date_from or args.date_to:
            try:
                start = date.fromisoformat(args.date_from) if args.date_from \
                    else config.date_range[0]
                end = date.fromisoformat(args.date_to) if args.date_to \
                    else config.date_range[1]
            except ValueError as exc:
                raise UsageError(f"bad date override: {exc}")
            if start > end:
                raise UsageError(f"empty date range after --from/--to: {start} > {end}")
            config.date_range = (start, end)
        if args.command == "ingest":
            return cmd_ingest(config)
        if args.command == "build":
            return cmd_build(config)
        if args.command == "rank":
            return cmd_rank(config, args.org, args.policy)
        if args.command == "evaluate":
            return cmd_evaluate(config)
        if args.command == "case-study":
            return cmd_case_study(config, args.org, args.k)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, feeds.DataFormatError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
