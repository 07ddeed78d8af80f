"""Check the CLI's outputs against expectations derived from the corpus model.

Every expectation comes from how ``corpus.generate`` built the inputs (which
CVE affects which inventory, which group reaches which technique and what
its description says), re-stated here from the paper's definitions.  No
threatrank code is imported.  Each check is one benchmark operation.
"""

from __future__ import annotations

import csv
import math
from collections import defaultdict
from datetime import date
from pathlib import Path

from corpus import (EPSS_THRESHOLD, FAILURE_IMPACTS, K, ORIGIN_COUNTRIES, PRIMARY_ORG,
                    SKILL_LEVEL, Corpus)

POLICIES = ("cvss_base", "apt_threat", "general_threat", "ideal")
K_MAX = 100
COST_UNITS = ((0, 0.0), (39, 0.25), (69, 1.0), (89, 1.5), (100, 3.0))


def week_label(day: date) -> str:
    year, week, _ = day.isocalendar()
    return f"{year}-W{week:02d}"


def cost_units(cvss: float) -> float:
    tenths = round(cvss * 10)
    return next(units for top, units in COST_UNITS if tenths <= top)


def dcg(gains, k: int) -> float:
    return sum((2.0 ** g - 1.0) / math.log2(i + 1) for i, g in enumerate(gains[:k], start=1))


class Model:
    """Expected feature bits, cohorts and rankings of one corpus."""

    def __init__(self, corpus: Corpus):
        self.corpus = corpus
        self.groups_by_technique = defaultdict(list)
        for group in corpus.groups:
            for technique in group.techniques:
                self.groups_by_technique[technique].append(group)

    def _capecs(self, cve):
        return {capec for cwe in cve.cwes for capec in self.corpus.cwes[cwe][1]}

    def apt_bits(self, cve, org, exploit_evidence: bool = False) -> dict[str, int]:
        techniques = {t for capec in self._capecs(cve) for t in self.corpus.capecs[capec][1]}
        reached = {g.group_id: g for t in techniques for g in self.groups_by_technique[t]}
        focused = [g for g in reached.values() if g.kept and org.sector in g.sectors]
        bits = {
            "av_network": int(cve.vector == "NETWORK"),
            "sector_focus": int(bool(focused)),
            "targets_country": int(any(org.country in g.targets for g in focused)),
            "origin_match": int(any(g.origins & ORIGIN_COUNTRIES for g in focused)),
            "epss_gate": self._epss_bit(cve),
            "affects_software": int(bool(set(cve.cpes) & org.cpes)),
        }
        if exploit_evidence:
            del bits["epss_gate"]
            bits["exploit_known"] = int(cve.kev or cve.exploitdb)
        return bits

    def general_bits(self, cve, org) -> dict[str, int]:
        capecs = self._capecs(cve)
        return {
            "av_network": int(cve.vector == "NETWORK"),
            "skill_match": int(any(self.corpus.capecs[c][0] == SKILL_LEVEL for c in capecs)),
            "technique_link": int(any(self.corpus.capecs[c][1] for c in capecs)),
            "failure_impact": int(any(self.corpus.cwes[w][0] & FAILURE_IMPACTS
                                      for w in cve.cwes)),
            "epss_gate": self._epss_bit(cve),
            "affects_software": int(bool(set(cve.cpes) & org.cpes)),
        }

    @staticmethod
    def _epss_bit(cve) -> int:
        if cve.epss is None:
            return 0
        probability, percentile = cve.epss
        return int(probability >= EPSS_THRESHOLD and percentile * 100.0 >= 0.0)

    def cohorts(self, org_id: str) -> dict[str, list[str]]:
        """ISO week label -> sorted candidate CVE ids inside the query range."""
        org = self.corpus.orgs[org_id]
        start, end = self.corpus.query
        weeks = defaultdict(list)
        for cve in self.corpus.cves.values():
            if start <= cve.modified <= end and set(cve.cpes) & org.cpes:
                weeks[week_label(cve.modified)].append(cve.cve_id)
        return {week: sorted(ids) for week, ids in sorted(weeks.items())}

    def ranking(self, org_id: str, policy: str, cve_ids) -> list[tuple[str, float, dict]]:
        """(cve, score, bits) in rank order: descending score, ascending CVE id."""
        org = self.corpus.orgs[org_id]
        rows = []
        for cve_id in cve_ids:
            cve = self.corpus.cves[cve_id]
            if policy == "cvss_base":
                rows.append((cve_id, cve.cvss, {}))
                continue
            if policy == "general_threat":
                bits = self.general_bits(cve, org)
            else:
                bits = self.apt_bits(cve, org, exploit_evidence=policy == "ideal")
            rows.append((cve_id, float(max(1, sum(bits.values()))), bits))
        return sorted(rows, key=lambda row: (-row[1], row[0]))


def _read_csv(path: Path) -> list[dict[str, str]]:
    with path.open(encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _bits(text: str) -> dict[str, int]:
    return {name: int(bit) for name, bit in (p.split("=") for p in text.split("|"))} \
        if text else {}


def _by_week(rows):
    weeks = defaultdict(list)
    for row in rows:
        weeks[row["iso_week"]].append(row)
    return weeks


class _Checks:
    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []

    def run(self, name: str, fn) -> None:
        try:
            problem = fn()
        except (OSError, KeyError, ValueError, IndexError, ZeroDivisionError) as exc:
            problem = f"{type(exc).__name__}: {exc}"
        self.results.append((name, not problem, problem or ""))


def check_outputs(corpus: Corpus, out_dir: Path) -> list[tuple[str, bool, str]]:
    """Run every output check; returns (name, passed, detail) per check."""
    model = Model(corpus)
    checks = _Checks()
    primary = model.cohorts(PRIMARY_ORG)
    ranked = {}

    def load(policy):
        if policy not in ranked:
            ranked[policy] = _read_csv(out_dir / f"ranked_{PRIMARY_ORG}_{policy}.csv")
        return ranked[policy]

    def cohorts_primary():
        for policy in POLICIES:
            found = {week: sorted(r["cve"] for r in rows)
                     for week, rows in _by_week(load(policy)).items()}
            if found != primary:
                return f"{policy}: cohorts differ from the generated applicable set"
        return ""

    def cohorts_all_orgs():
        found = {(r["org"], int(r["year"])): int(r["n_observations"])
                 for r in _read_csv(out_dir / "ndcg_by_k.csv")}
        expected = {}
        for org_id in corpus.orgs:
            for week in model.cohorts(org_id):
                key = (org_id, int(week[:4]))
                expected[key] = expected.get(key, 0) + 1
        return "" if found == expected else f"weeks per org-year {found} != {expected}"

    def score_sums(policy):
        def check():
            for row in load(policy):
                score, bits = float(row["score"]), _bits(row["feature_bits"])
                if score != max(1, sum(bits.values())) or not 1 <= score <= 6:
                    return f"{row['cve']}: score {row['score']} vs bits {row['feature_bits']}"
            return ""
        return check

    def order(policy):
        def check():
            for week, rows in _by_week(load(policy)).items():
                keys = [(-float(r["score"]), r["cve"]) for r in rows]
                if keys != sorted(keys):
                    return f"{week}: rows not in (-score, cve) order"
                if [int(r["rank"]) for r in rows] != list(range(1, len(rows) + 1)):
                    return f"{week}: ranks are not 1..n"
            return ""
        return check

    def matches_model(policy):
        def check():
            for week, rows in _by_week(load(policy)).items():
                expected = model.ranking(PRIMARY_ORG, policy, primary.get(week, ()))
                found = [(r["cve"], float(r["score"]), _bits(r["feature_bits"])) for r in rows]
                if found != expected:
                    bad = next((f for f, e in zip(found, expected) if f != e), None)
                    return (f"{week}: first differing row {bad}" if bad else
                            f"{week}: {len(found)} rows, expected {len(expected)}")
            return ""
        return check

    def ndcg(policy):
        def check():
            ideal = {(r["iso_week"], r["cve"]): float(r["score"]) for r in load("ideal")}
            per_year = defaultdict(list)
            for week, rows in _by_week(load(policy)).items():
                gains = [ideal[(week, r["cve"])] for r in rows]
                ideal_gains = sorted(gains, reverse=True)
                per_year[int(week[:4])].append([
                    (dcg(gains, k) / idcg if (idcg := dcg(ideal_gains, k)) > 0 else 1.0)
                    for k in range(1, K_MAX + 1)])
            label = f"{policy}:apt"
            reported = {(int(r["year"]), int(r["k"])): float(r["mean_ndcg"])
                        for r in _read_csv(out_dir / "ndcg_by_k.csv")
                        if r["org"] == PRIMARY_ORG and r["policy"] == label}
            expected = {(year, k): sum(w[k - 1] for w in weeks) / len(weeks)
                        for year, weeks in per_year.items() for k in range(1, K_MAX + 1)}
            if reported.keys() != expected.keys():
                return f"{label}: reported (year, k) keys differ"
            worst = max(abs(reported[key] - expected[key]) for key in expected)
            return "" if worst <= 1e-6 else f"{label}: max |error| {worst:.2e}"
        return check

    def cost():
        expected = {}
        for org_id in corpus.orgs:
            for week, ids in model.cohorts(org_id).items():
                for policy in ("cvss_base", "apt_threat", "general_threat"):
                    top = model.ranking(org_id, policy, ids)[:K]
                    key = (org_id, policy, int(week[:4]))
                    expected[key] = expected.get(key, 0.0) + sum(
                        cost_units(corpus.cves[cve].cvss) for cve, _, _ in top)
        found = {(r["org"], r["policy"], int(r["year"])): r["cost_units"]
                 for r in _read_csv(out_dir / "cost.csv")}
        expected = {key: f"{value:.2f}" for key, value in expected.items()}
        if found != expected:
            bad = sorted(k for k in found.keys() | expected.keys()
                         if found.get(k) != expected.get(k))
            return f"{len(bad)} cost rows differ, first {bad[0]}"
        return ""

    def case_study():
        files = sorted(out_dir.glob(f"case_study_{PRIMARY_ORG}_*.csv"))
        weeks = [week.replace("-", "") for week in primary]
        if [f.stem.rsplit("_", 1)[1] for f in files] != weeks:
            return "case-study files do not match the cohort weeks"
        for path, ids in zip(files, primary.values()):
            cvss_rank = {cve: i for i, (cve, _, _) in
                         enumerate(model.ranking(PRIMARY_ORG, "cvss_base", ids), start=1)}
            threat = model.ranking(PRIMARY_ORG, "apt_threat", ids)[:K]
            expected = [(cve, corpus.cves[cve].cvss, int(score), cvss_rank[cve], i)
                        for i, (cve, score, _) in enumerate(threat, start=1)]
            found = [(r["cve"], float(r["cvss_base"]), int(r["relevance"]),
                      int(r["cvss_base_rank"]), int(r["apt_threat_rank"]))
                     for r in _read_csv(path)]
            if found != expected:
                return f"{path.name}: rows differ"
        return ""

    checks.run("cohorts.primary", cohorts_primary)
    checks.run("cohorts.all_orgs", cohorts_all_orgs)
    for policy in POLICIES:
        if policy != "cvss_base":
            checks.run(f"score_sum.{policy}", score_sums(policy))
        checks.run(f"order.{policy}", order(policy))
        checks.run(f"model.{policy}", matches_model(policy))
    checks.run("ndcg.apt_threat", ndcg("apt_threat"))
    checks.run("ndcg.cvss_base", ndcg("cvss_base"))
    checks.run("cost", cost)
    checks.run("case_study", case_study)
    return checks.results
