"""Weekly candidate cohorts and the four vulnerability ranking policies.

Candidates are the intersection of CVEs affecting an organization's
resolved CPEs with a date range, grouped by the ISO week of the CVE
modification date (the date that simulates when a vulnerability presents
itself for analysis).

Each candidate has one feature row holding no setting: its CVSS base
score, a mask of the seven bits no setting changes, and the facts the
settings weigh.  The path facts of a row are ORs and unions over its CWEs'
weakness->attack-pattern->technique->group paths, so an organization's
``feature_table``, one over all of its cohorts, walks each (organization,
CWE) pair once and combines the walks per row; the organization's
sector-focused groups, and those targeting its country, are read off the
groups' own ``FocusOn`` and ``Targets`` edges.
``rank`` derives all ten binary features from a row and one family's
config as one integer mask.  A threat policy is a tuple of six of those
names; its score is their sum floored at 1, so every applicable CVE stays
a candidate:

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

A ``PolicyConfig`` holds the settings of one feature ``Family``: a threat
policy and the ideal that mirrors it (``FAMILIES``).  ``rank`` takes the
policy as an argument.

Ranking reads the organization's feature table, one for every cohort and
every policy of both families, and never the graph; output order never
depends on evaluation order (ties break on ascending CVE id).
"""

from __future__ import annotations

from datetime import date
from enum import Enum
from functools import reduce
from operator import itemgetter, or_
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

from .kinds import AttackVector, SkillLevel, TechnicalImpact
# techniques_for_cve is unused here; bench/trace_cli.py rebinds ranking's name.
from .kgraph import EdgeType, Node, NodeLabel, PropertyGraph, techniques_for_cve  # noqa: F401

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


class Family(Enum):
    """A feature family; the value labels its rows in ``ndcg_by_k.csv``."""

    APT = "apt"
    GENERAL = "general"


class _PolicyFields(NamedTuple):
    family: Family
    origin_countries: frozenset[str] = DEFAULT_ORIGIN_COUNTRIES
    skill_level: SkillLevel = SkillLevel.HIGH
    epss_threshold: float = DEFAULT_EPSS_THRESHOLD
    risk_appetite: int = 100
    k: int = 20


class PolicyConfig(_PolicyFields):
    """One family's settings, as a ``policies.<threat>`` config object sets them.

    Every way of building one checks the settings: the constructor, and
    ``_make``, through which ``_replace`` builds its copy.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 0.0 <= self.epss_threshold <= 1.0:
            raise ValueError(f"epss_threshold outside [0,1]: {self.epss_threshold}")
        if not 0 <= self.risk_appetite <= 100:
            raise ValueError(f"risk_appetite outside [0,100]: {self.risk_appetite}")
        if self.k < 1:
            raise ValueError(f"k must be positive: {self.k}")
        if self.skill_level not in (SkillLevel.LOW, SkillLevel.HIGH):
            raise ValueError("skill_level must be Low or High")
        return self

    @classmethod
    def _make(cls, iterable) -> "PolicyConfig":
        return cls(*iterable)


class OrgContext(NamedTuple):
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
            cpe_ids=frozenset(cpe.key for software in node.outgoing.get(EdgeType.INSTALLS, ())
                              for cpe in software.outgoing.get(EdgeType.HAS_VERSION, ())),
        )


class WeeklyCohort(NamedTuple):
    org_id: str
    iso_week: tuple[int, int]  # (ISO year, ISO week number)
    cve_ids: tuple[str, ...]


class RankedItem(NamedTuple):
    cve_id: str
    score: float
    rank: int
    feature_bits: Mapping[str, int] = MappingProxyType({})  # read-only: the default is shared


class RankedList(NamedTuple):
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
    twice appears only in the week of its latest modification.  A CVE that
    affects several of the CPEs is collected once, and each distinct
    modification date is parsed once per call.
    """
    start, end = date_range
    if start > end:
        raise ValueError(f"empty date range: {start} > {end}")
    cpes = {graph.find(NodeLabel.CPE, cpe_id) for cpe_id in org.cpe_ids} - {None}
    candidates = [cve for cve in graph.nodes_with_label(NodeLabel.NVD_CVE)
                  if not cpes.isdisjoint(cve.outgoing.get(EdgeType.AFFECTS, ()))]
    week_of: dict[str, tuple[int, int] | None] = {}  # None: outside the range
    weeks: dict[tuple[int, int], list[str]] = {}
    for cve in candidates:
        modified = cve.props["modified"]
        if modified not in week_of:
            day = date.fromisoformat(modified)
            week_of[modified] = iso_week_of(day) if start <= day <= end else None
        week = week_of[modified]
        if week is not None:
            weeks.setdefault(week, []).append(cve.key)
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
# Each family's threat policy and the bits it sums.
FAMILIES = {Family.APT: (Policy.APT_THREAT, APT_BITS),
            Family.GENERAL: (Policy.GENERAL_THREAT, GENERAL_BITS)}


def policy_bits(policy: Policy, family: Family) -> tuple[str, ...]:
    """Names of the bits a policy sums in a family; empty for CVSS base.

    The ideal sums the family's threat bits with the EPSS gate swapped for
    observed exploit evidence.  A threat policy belongs to one family only.
    """
    threat, bits = FAMILIES[family]
    if policy is Policy.IDEAL:
        return tuple(name for name in bits if name != "epss_gate") + ("exploit_known",)
    if policy is Policy.CVSS_BASE:
        return ()
    if policy is not threat:
        raise ValueError(f"{policy.value} is not the {family.value} family's threat policy")
    return bits


# The seven bits no setting changes, in mask order: bit i of a row's
# ``fixed_mask`` is ``FIXED_BITS[i]``.  The three bits a config decides
# follow them, so bit i of a row's mask under a config is ``BIT_NAMES[i]``.
FIXED_BITS = ("av_network", "sector_focus", "targets_country", "technique_link",
              "failure_impact", "exploit_known", "affects_software")
BIT_NAMES = FIXED_BITS + ("origin_match", "skill_match", "epss_gate")
_BIT = {name: 1 << i for i, name in enumerate(BIT_NAMES)}


class FeatureRow(NamedTuple):
    """The config-free facts of one (CVE, organization) pair.

    ``cvss_base`` is None when the graph holds no score.  ``fixed_mask``
    holds the seven bits no setting changes, bit i being ``FIXED_BITS[i]``;
    the skill levels of the CAPECs reached, the origin countries of the
    sector-focused groups reached and the EPSS (probability, percentile)
    pair, or None, are what ``rank`` weighs against a config.
    """

    cvss_base: float | None
    fixed_mask: int
    skill_levels: frozenset[str]
    origin_countries: frozenset[str]
    epss: tuple[float, float] | None


# The facts of one weakness's paths, or of the union of several weaknesses'
# paths: the mask of their failure_impact, technique_link, sector_focus and
# targets_country bits, the skill levels and the origin countries.  Each is
# an OR or a union over the paths, so a CVE's facts combine its CWEs' facts.
_PathFacts = tuple[int, frozenset, frozenset]
_NO_PATHS: _PathFacts = (0, frozenset(), frozenset())
_NETWORK = AttackVector.NETWORK.value


def _row_reader(graph: PropertyGraph, org: OrgContext):
    """A function that reads one CVE's ``FeatureRow`` for ``org``.

    The reader walks each weakness's CWE->CAPEC->technique->group paths the
    first time a CVE reaches it and keeps their facts, and combines each
    distinct set of CWEs once; it lives for one ``feature_table`` call.
    The sector-focused groups are those whose own FOCUS_ON edges hold the
    org's sector node, and the reader maps each technique to the focused
    groups that achieve it; of those, the groups whose TARGETS edges hold
    the org's country node target it.  A sector or country with no node
    (None) is in no edge set.  Software is affected when an AFFECTS edge
    ends at one of the org's CPE nodes.
    """
    sector = graph.find(NodeLabel.DHS_SECTOR, org.sector)
    country = graph.find(NodeLabel.COUNTRY, org.country)
    achievers: dict[Node, list[Node]] = {}  # technique -> the focused groups achieving it
    targeting: set[Node] = set()
    for group in graph.nodes_with_label(NodeLabel.ATTACK_GROUP):
        if sector in group.outgoing.get(EdgeType.FOCUS_ON, ()):
            if country in group.outgoing.get(EdgeType.TARGETS, ()):
                targeting.add(group)
            for technique in group.outgoing.get(EdgeType.ACHIEVES_GOAL, ()):
                achievers.setdefault(technique, []).append(group)
    cpes = {graph.find(NodeLabel.CPE, cpe_id) for cpe_id in org.cpe_ids} - {None}
    by_cwe: dict[Node, _PathFacts] = {}
    by_cwes: dict[frozenset, _PathFacts] = {frozenset(): _NO_PATHS}

    def weakness_facts(cwe: Node) -> _PathFacts:
        skill_levels: set[str] = set()
        techniques: set[Node] = set()
        for capec in cwe.outgoing.get(EdgeType.KNOWN_ATTACK, ()):
            level = capec.props.get("skill_level")
            if isinstance(level, str):  # only a string matches a configured level
                skill_levels.add(level)
            techniques.update(capec.outgoing.get(EdgeType.EMPLOYS, ()))
        reached: set[Node] = set()
        for technique in techniques:
            reached.update(achievers.get(technique, ()))
        mask = 0
        if not FAILURE_IMPACTS.isdisjoint(cwe.props.get("technical_impacts", ())):
            mask |= _BIT["failure_impact"]
        if techniques:
            mask |= _BIT["technique_link"]
        if reached:
            mask |= _BIT["sector_focus"]
        if not targeting.isdisjoint(reached):
            mask |= _BIT["targets_country"]
        facts = by_cwe[cwe] = (
            mask,
            frozenset(skill_levels),
            frozenset(origin.key for group in reached
                      for origin in group.outgoing.get(EdgeType.ORIGINATES, ())),
        )
        return facts

    def cwes_facts(cwes: frozenset) -> _PathFacts:
        masks, skills, origins = zip(*(by_cwe.get(cwe) or weakness_facts(cwe) for cwe in cwes))
        facts = by_cwes[cwes] = (reduce(or_, masks), frozenset().union(*skills),
                                 frozenset().union(*origins))
        return facts

    def read(cve_id: str) -> FeatureRow:
        node = graph.find(NodeLabel.NVD_CVE, cve_id)
        if node is None:
            raise KeyError(f"CVE {cve_id!r} not present in the graph")
        outgoing, props = node.outgoing, node.props
        cwes = frozenset(outgoing.get(EdgeType.WEAKENED_BY, ()))
        mask, skills, origins = by_cwes.get(cwes) or cwes_facts(cwes)
        if props.get("attack_vector") == _NETWORK:
            mask |= _BIT["av_network"]
        if EdgeType.EXPLOITS_KNOWN in outgoing or EdgeType.REFERENCE_EXPLOIT in outgoing:
            mask |= _BIT["exploit_known"]
        if not cpes.isdisjoint(outgoing.get(EdgeType.AFFECTS, ())):
            mask |= _BIT["affects_software"]
        probability, percentile = props.get("epss_probability"), props.get("epss_percentile")
        return FeatureRow(
            props.get("cvss_base"), mask, skills, origins,
            None if probability is None or percentile is None else (probability, percentile))

    return read


def _row_masks(config: PolicyConfig):
    """A function from a row to its ten-bit mask under one family's settings.

    Bit i of the mask is ``BIT_NAMES[i]``.  The config decides three: a
    reached CAPEC at the configured skill level, a sector-focused group
    from a configured origin country, and the EPSS gate (probability at
    threshold, percentile within appetite).  The settings are read once,
    when the function is made.
    """
    origins, skill = config.origin_countries, config.skill_level.value
    threshold, floor = config.epss_threshold, 100.0 - config.risk_appetite
    origin_match, skill_match, epss_gate = (
        _BIT["origin_match"], _BIT["skill_match"], _BIT["epss_gate"])

    def mask_of(row: FeatureRow) -> int:
        mask = row.fixed_mask
        if not row.origin_countries.isdisjoint(origins):
            mask |= origin_match
        if skill in row.skill_levels:
            mask |= skill_match
        epss = row.epss
        if epss is not None and epss[0] >= threshold and epss[1] * 100.0 >= floor:
            mask |= epss_gate
        return mask

    return mask_of


def score_from_bits(bits: Mapping[str, int]) -> int:
    """Relevance is the bit sum floored at 1 so candidates stay relevant."""
    return max(1, sum(bits.values()))


def feature_table(graph: PropertyGraph, cve_ids: Iterable[str],
                  org: OrgContext) -> dict[str, FeatureRow]:
    """Feature rows of an organization's candidates, keyed by CVE id.

    A row is one candidate's facts from its weakness->attack-pattern->
    technique->group paths.  Skill levels and the technique link are
    independent facts of the CVE's attack patterns, so changing the
    configured skill level moves a relevance by exactly the skill bit.  The
    group facts are witnessed by groups reachable through a technique; the
    country facts only by groups that also focus on the organization's
    sector.  The rows hold no setting, so one table, over all of the
    organization's cohorts, serves every cohort and every policy of both
    feature families; one reader serves the whole table, so each CWE the
    candidates reach is walked once.
    """
    read = _row_reader(graph, org)
    return {cve_id: read(cve_id) for cve_id in cve_ids}


# ---------------------------------------------------------------------------
# Ranking
# ---------------------------------------------------------------------------


_CVE, _SCORE = itemgetter(0), itemgetter(1)


def order_scored(scored: Iterable[tuple[str, float]]) -> list[tuple[str, float, int]]:
    """Order (cve, score) pairs: descending score, ascending CVE id, ranks 1..n.

    Two stable sorts: by CVE id, then by score with ``reverse=True``, which
    keeps pairs of equal score in the order the first sort left them.
    """
    ordered = sorted(scored, key=_CVE)
    ordered.sort(key=_SCORE, reverse=True)
    return [(cve, score, position) for position, (cve, score) in enumerate(ordered, start=1)]


def _cvss_score(cve_id: str, cvss_base: float | None) -> float:
    """CVSS base score; missing scores rank last with a warning."""
    if cvss_base is None:
        # Imported only here: a read command otherwise never loads logging.
        import logging

        logging.getLogger(__name__).warning("%s has no CVSS base score; treating as 0.0", cve_id)
        return 0.0
    return float(cvss_base)


def rank(
    cohort: WeeklyCohort,
    policy: Policy,
    config: PolicyConfig,
    records: Mapping[str, FeatureRow],
) -> RankedList:
    """Rank one weekly cohort under a policy of the config's family.

    ``records`` holds a row for each of the cohort's candidates, as the
    organization's ``feature_table`` does.  The config turns the cohort's
    rows into bit masks, once per row; a row's pattern is its mask's
    policy bits.  The rows of one pattern share its read-only bits mapping
    and its score, each built once.  CVSS-base items carry the default
    empty bits, and their rows' masks are never derived.
    """
    names = policy_bits(policy, config.family)
    if names:
        mask_of = _row_masks(config)
        wanted = reduce(or_, (_BIT[name] for name in names))
        patterns: dict[int, tuple[Mapping[str, int], float]] = {}
        bits_of: dict[str, Mapping[str, int]] = {}
        scored = []
        for cve in cohort.cve_ids:
            pattern = mask_of(records[cve]) & wanted
            shared = patterns.get(pattern)
            if shared is None:
                bits = MappingProxyType({name: int(pattern & _BIT[name] != 0) for name in names})
                shared = patterns[pattern] = (bits, float(score_from_bits(bits)))
            bits_of[cve], score = shared
            scored.append((cve, score))
        items = tuple([RankedItem(cve, score, position, bits_of[cve])
                       for cve, score, position in order_scored(scored)])
    else:
        scored = [(cve, _cvss_score(cve, records[cve].cvss_base)) for cve in cohort.cve_ids]
        items = tuple([RankedItem(cve, score, position)
                       for cve, score, position in order_scored(scored)])
    return RankedList(cohort.org_id, policy, cohort.iso_week, items)
