"""Command-line orchestration: ingest -> build -> rank -> evaluate -> report.

Each stage reads and writes plain files so stages are independently
testable and cacheable: ``build`` persists the graph snapshot that
``rank``, ``evaluate``, and ``case-study`` consume.  Every command is
deterministic and idempotent; nothing in the pipeline needs a seed.

The read commands read the graph through one function, ``_org_rows``: an
organization's weekly cohorts and one feature table over all of them.
``rank`` and ``case-study`` rank one org from those rows, and ``evaluate``
hands each org's rows to ``evaluation.generate_report``, which reads no
graph.

Exit codes: 0 success, 1 usage error (bad flags, missing paths, unknown
ids), 2 data error (unreadable or invalid content).

A command imports only the modules it runs: ``feeds``, ``enrich``,
``profiles`` and ``evaluation`` are imported inside the commands that use
them, so a read command (``rank``, ``evaluate``, ``case-study``) loads
neither the feed parsers nor the attribution and inventory code.  Calls go
through the module attribute (``enrich.load_lexicon``), so a function
rebound on its module is the one that runs.

``main`` runs a command with the cyclic garbage collector paused, so no
collection pass re-walks the growing heap while the command builds it.
The graph holds no reference cycle, so refcounting frees it once the
command returns; but everything else the command allocated is still in
the youngest generation, and the first young-generation pass after the
collector is restored walks all of it.  When ``main`` runs the process's
own command line, the process exits next, so ``main`` freezes the heap
instead (``gc.freeze``), sparing that pass, and leaves the heap to the
OS; a frozen cycle is never finalised, so every file a command writes is
closed before it returns.  Called in-process with any other argument
list, ``main`` freezes nothing and the caller's collector runs as usual.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import re
import sys
from datetime import date
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from . import kgraph, ranking
from .errors import DataError, UsageError, output_file, reject_unknown, write_csv
from .kinds import SkillLevel, SourceKind
from .vocab import load_vocabulary

if TYPE_CHECKING:
    from . import feeds, profiles

GRAPH_FILENAME = "graph.jsonl"


class ProjectConfig(NamedTuple):
    """Parsed project configuration; all paths resolved against the file."""

    snapshots: dict[SourceKind, Path]
    profile_paths: list[Path]
    date_range: tuple[date, date]
    output_dir: Path
    apt_config: ranking.PolicyConfig
    general_config: ranking.PolicyConfig
    lexicon_countries: Path | None = None
    lexicon_sectors: Path | None = None
    vocab_countries: Path | None = None
    vocab_sectors: Path | None = None


# A bool is never accepted: JSON true/false are not numbers, though
# Python's bool is an int.
_JSON_NAMES = {dict: "object", list: "array", str: "string", int: "integer",
               (int, float): "number"}


def _expect(value, kind: type | tuple[type, ...], what: str):
    """``value`` if it has the JSON type ``kind``; a DataError otherwise."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise DataError(f"{what} must be a JSON {_JSON_NAMES[kind]}")
    return value


# Each section under "policies", and the keys its family's bits read (k is
# the t-test's cutoff, and apt_threat's k the case-study table depth).
_POLICY_KEYS = {"apt_threat": ("origin_countries", "epss_threshold", "risk_appetite", "k"),
                "general_threat": ("skill_level", "epss_threshold", "risk_appetite", "k")}


# The top-level keys of a config file, and the keys of its "lexicons" and
# "vocabularies" sections.
_CONFIG_KEYS = ("snapshots", "profiles", "date_range", "output_dir", "lexicons",
                "vocabularies", "policies")
_DATA_FILE_KEYS = ("countries", "sectors")


def _policy_config(path: Path, name: str, raw, family: ranking.Family) -> ranking.PolicyConfig:
    """The ``policies.<name>`` section of config file ``path``; every
    DataError names the file and the section."""
    what = f"{path}: policies.{name}"
    _expect(raw, dict, what)
    reject_unknown(raw, _POLICY_KEYS[name], f"{what}: unknown key")
    settings = {}
    if "origin_countries" in raw:
        origins = raw["origin_countries"]
        if not (isinstance(origins, list) and all(isinstance(c, str) for c in origins)):
            raise DataError(f"{what}.origin_countries must be "
                            f"a JSON array of strings, not {origins!r}")
        settings["origin_countries"] = frozenset(origins)
    try:
        if "skill_level" in raw:
            settings["skill_level"] = SkillLevel(raw["skill_level"])
        for key, kind in (("epss_threshold", (int, float)), ("risk_appetite", int), ("k", int)):
            if key in raw:
                settings[key] = _expect(raw[key], kind, f"{what}.{key}")
        return ranking.PolicyConfig(family=family, **settings)
    except ValueError as exc:
        raise DataError(f"{what}: {exc}") from None


def load_config(path: str | Path) -> ProjectConfig:
    """Parse a project config file and check every referenced path exists."""
    path = Path(path)
    if not path.exists():
        raise UsageError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    # JSONDecodeError or UnicodeDecodeError; RecursionError for nesting too deep to decode
    except (ValueError, RecursionError) as exc:
        raise DataError(f"{path}: not valid JSON ({exc})")
    _expect(raw, dict, f"{path}: the config")
    reject_unknown(raw, _CONFIG_KEYS, f"{path}: unknown config key")
    base = path.parent

    def section(key: str, kind: type):
        # Absent is empty; present, null included, must have the JSON type.
        return _expect(raw[key], kind, f"{path}: {key!r}") if key in raw else kind()

    def resolve(rel: str, key: str) -> Path:
        # A missing file is a usage error; "" (the config's own directory)
        # or any other path that is not a file is a data error naming the key.
        _expect(rel, str, f"{path}: {key}")
        candidate = (base / rel).resolve() if not Path(rel).is_absolute() else Path(rel)
        if not candidate.exists():
            raise UsageError(f"configured path does not exist: {candidate}")
        if not candidate.is_file():
            raise DataError(f"{path}: {key} must name a file, not {candidate}")
        return candidate

    snapshots: dict[SourceKind, Path] = {}
    for kind_name, rel in section("snapshots", dict).items():
        try:
            kind = SourceKind(kind_name)
        except ValueError:
            raise DataError(f"{path}: unknown snapshot kind {kind_name!r}")
        snapshots[kind] = resolve(rel, f"snapshots.{kind_name}")

    profile_paths = [resolve(rel, f"profiles[{i}]")
                     for i, rel in enumerate(section("profiles", list))]

    date_raw = section("date_range", dict)
    try:
        start = date.fromisoformat(date_raw["from"])
        end = date.fromisoformat(date_raw["to"])
    except (KeyError, TypeError, ValueError):
        raise DataError(f"{path}: date_range needs ISO 'from' and 'to' dates")
    if start > end:
        raise DataError(f"{path}: date_range is empty ({start} > {end})")

    out_rel = _expect(raw.get("output_dir", "out"), str, f"{path}: 'output_dir'")
    if not out_rel:  # "" would be the config's own directory
        raise DataError(f"{path}: 'output_dir' must name a directory, not ''")
    output_dir = (base / out_rel) if not Path(out_rel).is_absolute() else Path(out_rel)

    data_files = {}  # each configured lexicon or vocabulary file, by "<section>.<key>"
    for name in ("lexicons", "vocabularies"):
        table = section(name, dict)
        reject_unknown(table, _DATA_FILE_KEYS, f"{path}: unknown {name!r} key")
        data_files.update((f"{name}.{key}", resolve(rel, f"{name}.{key}"))
                          for key, rel in table.items())
    policies = section("policies", dict)
    reject_unknown(policies, _POLICY_KEYS, f"{path}: unknown policy")
    return ProjectConfig(
        snapshots=snapshots,
        profile_paths=profile_paths,
        date_range=(start, end),
        output_dir=output_dir,
        lexicon_countries=data_files.get("lexicons.countries"),
        lexicon_sectors=data_files.get("lexicons.sectors"),
        vocab_countries=data_files.get("vocabularies.countries"),
        vocab_sectors=data_files.get("vocabularies.sectors"),
        apt_config=_policy_config(path, "apt_threat", policies.get("apt_threat", {}),
                                  ranking.Family.APT),
        general_config=_policy_config(path, "general_threat", policies.get("general_threat", {}),
                                      ranking.Family.GENERAL),
    )


def load_bundle(config: ProjectConfig) -> tuple[feeds.SnapshotBundle, dict[str, feeds.ParseResult]]:
    """Parse every configured snapshot into one bundle, keeping parse stats."""
    from . import feeds

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
        except OSError as exc:  # its message would repeat the path
            raise DataError(f"cannot parse {snapshot_path}: {exc.strerror or exc}")
        results[kind.value] = result
        getattr(bundle, feeds.SOURCES[kind].bundle_field).extend(result.records)
    return bundle, results


def build_pipeline(config: ProjectConfig) -> tuple[kgraph.PropertyGraph,
                                                   dict[str, profiles.CoverageReport]]:
    """Parse, enrich, resolve, and assemble the knowledge graph, unfrozen
    since ``build`` only saves it; also return each org's CPE coverage report."""
    from . import enrich, profiles

    vocab = load_vocabulary(config.vocab_countries, config.vocab_sectors)
    bundle, _ = load_bundle(config)
    lexicon = enrich.load_lexicon(config.lexicon_countries, config.lexicon_sectors, vocab=vocab)
    attributions = enrich.filter_us_targeting(
        enrich.attribute_group(group, lexicon) for group in bundle.groups
    )
    cpe_index = profiles.cpe_index(bundle.cpes)
    resolved_profiles = []
    coverage: dict[str, profiles.CoverageReport] = {}
    path_of: dict[str, Path] = {}
    for profile_path in config.profile_paths:
        profile = profiles.load_profile(profile_path, vocab)
        # One org's coverage file, Organization node and inventory come from
        # one profile; a second profile with its id would silently merge.
        if profile.org_id in path_of:
            raise DataError(f"org_id {profile.org_id!r} is used by two profiles: "
                            f"{path_of[profile.org_id]} and {profile_path}")
        path_of[profile.org_id] = profile_path
        resolved, report = profiles.resolve_cpes(profile, cpe_index)
        resolved_profiles.append(resolved)
        coverage[profile.org_id] = report
    graph = kgraph.build_graph(bundle, attributions, resolved_profiles, vocab=vocab)
    return graph, coverage


def _require_graph(config: ProjectConfig) -> kgraph.PropertyGraph:
    graph_path = config.output_dir / GRAPH_FILENAME
    if not graph_path.exists():
        raise UsageError(f"graph snapshot not found: {graph_path} (run 'build' first)")
    return kgraph.load_graph(graph_path)


def _org_rows(graph: kgraph.PropertyGraph, org_id: str, date_range: tuple[date, date]
              ) -> tuple[list[ranking.WeeklyCohort], dict[str, ranking.FeatureRow]]:
    """An organization's weekly cohorts in the date range, and one feature
    table over all of them: everything a read command ranks the org from."""
    try:
        org = ranking.OrgContext.from_graph(graph, org_id)
    except KeyError:
        raise UsageError(f"unknown organization id: {org_id}")
    cohorts = ranking.generate_candidates(org, graph, date_range)
    return cohorts, ranking.feature_table(graph, (cve for c in cohorts for cve in c.cve_ids), org)


def _all_org_ids(graph: kgraph.PropertyGraph) -> list[str]:
    return sorted(n.key for n in graph.nodes_with_label(kgraph.NodeLabel.ORGANIZATION))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_ingest(config: ProjectConfig) -> int:
    """Parse and validate all configured snapshots; write a summary."""
    from . import feeds

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
            "dangling_references": len(report.findings),
            # Kept so the summary keeps its shape; always 0, because the
            # parsers skip an out-of-range line and keep one record per key.
            "duplicates": 0,
            "out_of_range": 0,
        },
    }
    out_path = config.output_dir / "ingest_summary.json"
    with output_file(out_path) as fh:
        fh.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    for kind, info in summary["sources"].items():
        print(f"{kind}: {info['records']} records, {info['skipped']} skipped, "
              f"{info['replaced_duplicates']} duplicates replaced")
    print(f"validation findings: {summary['validation']['findings']}")
    print(f"wrote {out_path}")
    return 0


def cmd_build(config: ProjectConfig) -> int:
    """Build the knowledge graph; persist its snapshot and coverage CSVs."""
    graph, coverage = build_pipeline(config)
    for org_id, report in sorted(coverage.items()):
        report.write_csv(config.output_dir / f"coverage_{org_id}.csv")
    graph_path = config.output_dir / GRAPH_FILENAME
    kgraph.save_graph(graph, graph_path)
    dropped = {
        (key.value if isinstance(key, kgraph.EdgeType) else str(key)): count
        for key, count in graph.stats.dangling_dropped.items()
    }
    edges = graph.edge_count
    stats = {
        "nodes": graph.node_count,
        "edges": edges,
        "dangling_dropped": dict(sorted(dropped.items())),
        # Kept so the summary keeps its shape; always 0, because link finds
        # both endpoints by the labels the edge type joins.
        "schema_rejected": 0,
    }
    with output_file(config.output_dir / "build_summary.json") as fh:
        fh.write(json.dumps(stats, indent=2, sort_keys=True) + "\n")
    print(f"graph: {graph.node_count} nodes, {edges} edges -> {graph_path}")
    return 0


# Finds a character that can make ``csv.writer`` quote a field: the
# delimiter, the quote character or a line break.
_CSV_SPECIAL = re.compile('[,"\r\n]').search


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it as one field of a longer row."""
    if _CSV_SPECIAL(text) is None:
        return text
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow([text, ""])
    return buffer.getvalue()[:-2]  # drop the empty last field and the line end


def _write_ranked_csv(path: Path, ranked_lists: list[ranking.RankedList]) -> None:
    """Write ranked rows, each line from one template, as ``csv.writer`` would.

    Only the org and CVE ids can hold text that csv quotes; the other
    fields are numbers, fixed names and ``name=bit`` pairs.  Each distinct
    ``feature_bits`` mapping is rendered once.
    """
    rendered: dict[int, str] = {}  # by id(): every mapping stays alive in ranked_lists
    with output_file(path) as fh:
        write = fh.write
        write("org,policy,iso_week,rank,cve,score,feature_bits\n")
        for ranked in ranked_lists:
            year, week = ranked.iso_week
            head = f"{_csv_field(ranked.org_id)},{ranked.policy.value},{year}-W{week:02d},"
            for item in ranked.items:
                bits = rendered.get(id(item.feature_bits))
                if bits is None:
                    bits = rendered[id(item.feature_bits)] = "|".join(
                        f"{name}={bit}" for name, bit in item.feature_bits.items())
                write(f"{head}{item.rank},{_csv_field(item.cve_id)},{item.score:g},{bits}\n")


def cmd_rank(config: ProjectConfig, org_id: str, policy_name: str) -> int:
    """Rank an organization's weekly cohorts under one policy."""
    try:
        policy = ranking.Policy(policy_name)
    except ValueError:
        raise UsageError(f"unknown policy: {policy_name!r} "
                         f"(choose from {[p.value for p in ranking.Policy]})")
    family_config = (config.general_config if policy is ranking.Policy.GENERAL_THREAT
                     else config.apt_config)
    cohorts, table = _org_rows(_require_graph(config), org_id, config.date_range)
    ranked_lists = [ranking.rank(c, policy, family_config, table) for c in cohorts]
    out_path = config.output_dir / f"ranked_{org_id}_{policy.value}.csv"
    _write_ranked_csv(out_path, ranked_lists)
    print(f"{org_id}/{policy.value}: {len(cohorts)} weekly cohorts, "
          f"{sum(len(r.items) for r in ranked_lists)} ranked rows -> {out_path}")
    return 0


def cmd_evaluate(config: ProjectConfig) -> int:
    """Compute nDCG curves, costs, and t-tests for every organization."""
    from . import evaluation

    graph = _require_graph(config)
    # A generator: each org's rows are read when the report reaches it.
    orgs = ((org_id, *_org_rows(graph, org_id, config.date_range))
            for org_id in _all_org_ids(graph))
    report = evaluation.generate_report(orgs, config.apt_config, config.general_config)
    paths = report.write_csvs(config.output_dir)
    for name, out_path in sorted(paths.items()):
        print(f"wrote {out_path}")
    return 0


def cmd_case_study(config: ProjectConfig, org_id: str) -> int:
    """Emit a side-by-side CVSS-vs-threat ranking table per weekly cohort."""
    cohorts, table = _org_rows(_require_graph(config), org_id, config.date_range)
    if not cohorts:
        print(f"{org_id}: no candidate cohorts in "
              f"{config.date_range[0]}..{config.date_range[1]}")
        return 0
    apt = config.apt_config
    printed = False
    for cohort in cohorts:
        cvss_rank = ranking.rank(cohort, ranking.Policy.CVSS_BASE, apt, table).rank_of()
        threat_ranked = ranking.rank(cohort, ranking.Policy.APT_THREAT, apt, table)
        rows = [
            (item.cve_id, table[item.cve_id].cvss_base or 0.0, int(item.score),
             cvss_rank[item.cve_id], item.rank)
            for item in threat_ranked.items[:apt.k]
        ]
        year, week = cohort.iso_week
        out_path = config.output_dir / f"case_study_{org_id}_{year}W{week:02d}.csv"
        write_csv(out_path, ["cve", "cvss_base", "relevance", "cvss_base_rank",
                             "apt_threat_rank"], rows)
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
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command with the cyclic garbage collector paused.

    The collector is restored to its previous state when the command ends,
    however it ends.  If it was on and ``argv`` is the process's own command
    line (None or ``sys.argv[1:]``), everything the command allocated is
    frozen first, so neither the next young-generation pass nor the exit
    walks a heap the OS is about to take back.  Any other ``argv`` is an
    in-process call: nothing is frozen, and the collector runs as usual.
    """
    gc_was_enabled = gc.isenabled()
    exits_next = gc_was_enabled and (argv is None or argv == sys.argv[1:])
    gc.disable()
    try:
        return _run(argv)
    finally:
        if exits_next:
            gc.freeze()
        if gc_was_enabled:
            gc.enable()


def _run(argv: list[str] | None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = load_config(args.config)
        if args.out is not None:
            if not args.out:
                raise UsageError("--out must name a directory, not ''")
            config = config._replace(output_dir=Path(args.out))
        if args.date_from is not None or args.date_to is not None:
            try:
                start = config.date_range[0] if args.date_from is None \
                    else date.fromisoformat(args.date_from)
                end = config.date_range[1] if args.date_to is None \
                    else date.fromisoformat(args.date_to)
            except ValueError as exc:
                raise UsageError(f"bad date override: {exc}")
            if start > end:
                raise UsageError(f"empty date range after --from/--to: {start} > {end}")
            config = config._replace(date_range=(start, end))
        if args.command == "ingest":
            return cmd_ingest(config)
        if args.command == "build":
            return cmd_build(config)
        if args.command == "rank":
            return cmd_rank(config, args.org, args.policy)
        if args.command == "evaluate":
            return cmd_evaluate(config)
        if args.command == "case-study":
            return cmd_case_study(config, args.org)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
