"""Weekly candidate cohorts and the four vulnerability ranking policies.

Candidates are the intersection of CVEs affecting an organization's
resolved CPEs with a date range, grouped by the ISO week of the CVE
modification date (the date that simulates when a vulnerability presents
itself for analysis).

Each candidate has one feature record: its CVSS base score and ten binary
features, extracted together (``feature_bits``).  A threat policy is a
tuple of six of those names; its score is their sum floored at 1, so
every applicable CVE stays a candidate:

* APT threat: network attack vector; a weakness->attack-pattern->technique
  path reaching a group focused on the organization's sector; such a group
  targeting the organization's country; such a group originating from a
  configured country of interest; the EPSS gate; software affected.
* General threat: network vector; a CWE->CAPEC path whose attacker skill
  matches the configured level; such a CAPEC employing at least one
  technique; a CWE failure-class impact (code execution, privilege gain,
  data modification, protection bypass); the EPSS gate; software affected.
* Ideal: the same features as either threat policy, with the EPSS gate
  replaced by observed exploit evidence (KEV or ExploitDB); it serves as
  the nDCG ground truth.

Ranking reads a cohort's feature table and never the graph; output order
never depends on evaluation order (ties break on ascending CVE id).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from datetime import date
from enum import Enum
from typing import Iterable, Mapping

from .feeds import AttackVector, SkillLevel, TechnicalImpact
# techniques_for_cve is unused here; bench/trace_cli.py rebinds ranking's name.
from .kgraph import EdgeType, Node, NodeLabel, PropertyGraph, techniques_for_cve  # noqa: F401

log = logging.getLogger(__name__)

# CWE technical impacts treated as failure-class ("high impact") for the
# general-threat policy.
FAILURE_IMPACTS = frozenset({
    TechnicalImpact.EXECUTE_UNAUTHORIZED_CODE.value,
    TechnicalImpact.GAIN_PRIVILEGES.value,
    TechnicalImpact.MODIFY_DATA.value,
    TechnicalImpact.BYPASS_PROTECTION.value,
})

DEFAULT_ORIGIN_COUNTRIES = frozenset({"China", "Russia", "Iran"})
DEFAULT_EPSS_THRESHOLD = 0.876


class Policy(Enum):
    CVSS_BASE = "cvss_base"
    APT_THREAT = "apt_threat"
    GENERAL_THREAT = "general_threat"
    IDEAL = "ideal"


class IdealMode(Enum):
    """Which threat policy's features the ideal ranking mirrors."""

    APT = "apt"
    GENERAL = "general"


@dataclass(frozen=True)
class PolicyConfig:
    policy: Policy
    origin_countries: frozenset[str] = DEFAULT_ORIGIN_COUNTRIES
    skill_level: SkillLevel = SkillLevel.HIGH
    epss_threshold: float = DEFAULT_EPSS_THRESHOLD
    risk_appetite: int = 100
    k: int = 20
    ideal_mode: IdealMode = IdealMode.APT

    def __post_init__(self):
        if not 0.0 <= self.epss_threshold <= 1.0:
            raise ValueError(f"epss_threshold outside [0,1]: {self.epss_threshold}")
        if not 0 <= self.risk_appetite <= 100:
            raise ValueError(f"risk_appetite outside [0,100]: {self.risk_appetite}")
        if self.k < 1:
            raise ValueError(f"k must be positive: {self.k}")
        if self.skill_level not in (SkillLevel.LOW, SkillLevel.HIGH):
            raise ValueError("skill_level must be Low or High")


@dataclass(frozen=True)
class OrgContext:
    """The slice of an organization the scoring functions need."""

    org_id: str
    sector: str
    country: str
    cpe_ids: frozenset[str]

    @classmethod
    def from_graph(cls, graph: PropertyGraph, org_id: str) -> "OrgContext":
        """Reconstruct the context from Organization/Software/Cpe nodes."""
        node = graph.find(NodeLabel.ORGANIZATION, org_id)
        if node is None:
            raise KeyError(f"organization {org_id!r} not present in the graph")
        return cls(
            org_id=org_id,
            sector=node.props.get("sector", ""),
            country=node.props.get("country", ""),
            cpe_ids=frozenset(cpe.key for software in graph.neighbors(node, EdgeType.INSTALLS)
                              for cpe in graph.neighbors(software, EdgeType.HAS_VERSION)),
        )


@dataclass(frozen=True)
class WeeklyCohort:
    org_id: str
    iso_week: tuple[int, int]  # (ISO year, ISO week number)
    cve_ids: tuple[str, ...]


@dataclass(frozen=True)
class RankedItem:
    cve_id: str
    score: float
    rank: int
    feature_bits: Mapping[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class RankedList:
    org_id: str
    policy: Policy
    iso_week: tuple[int, int]
    items: tuple[RankedItem, ...]

    def score_of(self) -> dict[str, float]:
        return {item.cve_id: item.score for item in self.items}

    def rank_of(self) -> dict[str, int]:
        return {item.cve_id: item.rank for item in self.items}


def iso_week_of(day: date) -> tuple[int, int]:
    cal = day.isocalendar()
    return (cal[0], cal[1])


def generate_candidates(
    org: OrgContext,
    graph: PropertyGraph,
    date_range: tuple[date, date],
) -> list[WeeklyCohort]:
    """Weekly candidate cohorts for one organization.

    A CVE is a candidate when it affects at least one of the organization's
    resolved CPEs and its modification date falls inside the (inclusive)
    range.  Each CVE lands in the ISO week of its modification date; since
    snapshot parsing keeps the latest record per CVE id, a CVE modified
    twice appears only in the week of its latest modification.
    """
    start, end = date_range
    if start > end:
        raise ValueError(f"empty date range: {start} > {end}")
    weeks: dict[tuple[int, int], set[str]] = {}
    for cpe_id in org.cpe_ids:
        cpe = graph.find(NodeLabel.CPE, cpe_id)
        if cpe is None:
            continue
        for cve in graph.neighbors(cpe, EdgeType.AFFECTS, "in"):
            modified = date.fromisoformat(cve.props["modified"])
            if start <= modified <= end:
                weeks.setdefault(iso_week_of(modified), set()).add(cve.key)
    return [
        WeeklyCohort(org_id=org.org_id, iso_week=week, cve_ids=tuple(sorted(cve_ids)))
        for week, cve_ids in sorted(weeks.items())
    ]


# ---------------------------------------------------------------------------
# Feature bits: one extraction, policies as bit-name tuples
# ---------------------------------------------------------------------------

# Policies are sums over these names; the tuple order is the order the
# ``feature_bits`` column of the ranked CSVs prints.
APT_BITS = ("av_network", "sector_focus", "targets_country", "origin_match",
            "epss_gate", "affects_software")
GENERAL_BITS = ("av_network", "skill_match", "technique_link", "failure_impact",
                "epss_gate", "affects_software")
FAMILY_BITS = {IdealMode.APT: APT_BITS, IdealMode.GENERAL: GENERAL_BITS}
# The ideal swaps the EPSS gate for observed exploit evidence.
IDEAL_BITS = {
    mode: tuple(name for name in bits if name != "epss_gate") + ("exploit_known",)
    for mode, bits in FAMILY_BITS.items()
}


def policy_bits(config: PolicyConfig) -> tuple[str, ...]:
    """Names of the bits the configured policy sums; empty for CVSS base."""
    if config.policy is Policy.IDEAL:
        return IDEAL_BITS[config.ideal_mode]
    return {Policy.CVSS_BASE: (), Policy.APT_THREAT: APT_BITS,
            Policy.GENERAL_THREAT: GENERAL_BITS}[config.policy]


def _cve_node(graph: PropertyGraph, cve_id: str) -> Node:
    node = graph.find(NodeLabel.NVD_CVE, cve_id)
    if node is None:
        raise KeyError(f"CVE {cve_id!r} not present in the graph")
    return node


def _adjacent_keys(graph: PropertyGraph, node: Node, edge_type: EdgeType) -> set[str]:
    return {adjacent.key for adjacent in graph.neighbors(node, edge_type)}


def _epss_bit(node: Node, config: PolicyConfig) -> int:
    """EPSS gate: probability at threshold and percentile within appetite."""
    probability = node.props.get("epss_probability")
    percentile = node.props.get("epss_percentile")
    if probability is None or percentile is None:
        return 0
    passed = (probability >= config.epss_threshold
              and percentile * 100.0 >= 100.0 - config.risk_appetite)
    return int(passed)


def feature_bits(
    graph: PropertyGraph,
    cve_id: str,
    org: OrgContext,
    config: PolicyConfig,
) -> dict[str, int]:
    """All ten feature bits of one (CVE, organization) pair.

    One walk over the CVE's weakness->attack-pattern->technique->group
    paths sets the path bits.  Skill matching and the technique link are
    independent bits over the CVE's attack patterns, so changing the
    configured skill level moves a relevance by exactly the skill bit.  The
    group bits are witnessed by groups reachable through a technique; the
    country and origin bits only by groups that also satisfy the sector bit.
    """
    node = _cve_node(graph, cve_id)
    failure_impact = skill_match = technique_link = False
    techniques: set[Node] = set()
    for cwe in graph.neighbors(node, EdgeType.WEAKENED_BY):
        if FAILURE_IMPACTS.intersection(cwe.props.get("technical_impacts", ())):
            failure_impact = True
        for capec in graph.neighbors(cwe, EdgeType.KNOWN_ATTACK):
            if capec.props.get("skill_level") == config.skill_level.value:
                skill_match = True
            employed = graph.neighbors(capec, EdgeType.EMPLOYS)
            technique_link = technique_link or bool(employed)
            techniques |= employed
    groups: set[Node] = set()
    for technique in techniques:
        groups |= graph.neighbors(technique, EdgeType.ACHIEVES_GOAL, "in")
    sector_focus = targets_country = origin_match = False
    for group in groups:
        if org.sector not in _adjacent_keys(graph, group, EdgeType.FOCUS_ON):
            continue
        sector_focus = True
        if org.country in _adjacent_keys(graph, group, EdgeType.TARGETS):
            targets_country = True
        if _adjacent_keys(graph, group, EdgeType.ORIGINATES) & config.origin_countries:
            origin_match = True
    affected = _adjacent_keys(graph, node, EdgeType.AFFECTS)
    exploited = (graph.neighbors(node, EdgeType.EXPLOITS_KNOWN)
                 or graph.neighbors(node, EdgeType.REFERENCE_EXPLOIT))
    return {
        "av_network": int(node.props.get("attack_vector") == AttackVector.NETWORK.value),
        "sector_focus": int(sector_focus),
        "targets_country": int(targets_country),
        "origin_match": int(origin_match),
        "skill_match": int(skill_match),
        "technique_link": int(technique_link),
        "failure_impact": int(failure_impact),
        "epss_gate": _epss_bit(node, config),
        "exploit_known": int(bool(exploited)),
        "affects_software": int(bool(affected & org.cpe_ids)),
    }


def score_from_bits(bits: Mapping[str, int]) -> int:
    """Relevance is the bit sum floored at 1 so candidates stay relevant."""
    return max(1, sum(bits.values()))


# ---------------------------------------------------------------------------
# The per-cohort feature table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FeatureRow:
    """The feature record of one (CVE, organization) pair.

    ``cvss_base`` is None when the graph holds no score; ``bits`` holds the
    ten ``feature_bits``, or nothing for a table built for CVSS base.
    """

    cvss_base: float | None
    bits: Mapping[str, int]


def feature_table(
    graph: PropertyGraph,
    cohort: WeeklyCohort,
    org: OrgContext,
    config: PolicyConfig,
) -> dict[str, FeatureRow]:
    """Feature rows of a cohort's candidates, keyed by CVE id.

    Bits depend on the config's origin countries, skill level and EPSS
    gate, so one table serves every policy of one feature family.  A
    CVSS-only config skips the path walk.
    """
    walk = config.policy is not Policy.CVSS_BASE
    return {
        cve_id: FeatureRow(
            cvss_base=_cve_node(graph, cve_id).props.get("cvss_base"),
            bits=feature_bits(graph, cve_id, org, config) if walk else {},
        )
        for cve_id in cohort.cve_ids
    }


# ---------------------------------------------------------------------------
# Ranking
# ---------------------------------------------------------------------------


def order_scored(scored: Iterable[tuple[str, float]]) -> list[tuple[str, float, int]]:
    """Order (cve, score) pairs: descending score, ascending CVE id, ranks 1..n."""
    ordered = sorted(scored, key=lambda pair: (-pair[1], pair[0]))
    return [(cve, score, position) for position, (cve, score) in enumerate(ordered, start=1)]


def _cvss_score(cve_id: str, cvss_base: float | None) -> float:
    """CVSS base score; missing scores rank last with a warning."""
    if cvss_base is None:
        log.warning("%s has no CVSS base score; treating as 0.0", cve_id)
        return 0.0
    return float(cvss_base)


def rank(
    cohort: WeeklyCohort,
    config: PolicyConfig,
    records: Mapping[str, FeatureRow],
) -> RankedList:
    """Rank one weekly cohort under the configured policy.

    ``records`` is the cohort's ``feature_table``; CVSS-base items carry no
    feature bits.
    """
    names = policy_bits(config)
    bits_of = {cve: {name: records[cve].bits[name] for name in names}
               for cve in cohort.cve_ids}
    if config.policy is Policy.CVSS_BASE:
        scored = [(cve, _cvss_score(cve, records[cve].cvss_base)) for cve in cohort.cve_ids]
    else:
        scored = [(cve, float(score_from_bits(bits))) for cve, bits in bits_of.items()]
    items = tuple(
        RankedItem(cve_id=cve, score=score, rank=position, feature_bits=bits_of[cve])
        for cve, score, position in order_scored(scored)
    )
    return RankedList(org_id=cohort.org_id, policy=config.policy,
                      iso_week=cohort.iso_week, items=items)
