from __future__ import annotations

import json
from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threatrank.feeds import (
    AttackTactic,
    AttackTechnique,
    AttackVector,
    CapecEntry,
    CpeEntry,
    CveRecord,
    CweEntry,
    EpssScore,
    ExploitRef,
    KevEntry,
    SkillLevel,
    SourceKind,
    TechnicalImpact,
    parse_snapshot,
)
from threatrank.enrich import GroupAttribution
from threatrank.feeds import AttackGroupRaw
from threatrank import ranking
from threatrank.kgraph import EdgeType, NodeLabel, PropertyGraph, build_graph
from threatrank.ranking import (
    APT_BITS,
    FAILURE_IMPACTS,
    FAMILIES,
    GENERAL_BITS,
    Family,
    OrgContext,
    Policy,
    PolicyConfig,
    RankedItem,
    WeeklyCohort,
    feature_table,
    generate_candidates,
    order_scored,
    policy_bits,
    rank,
    score_from_bits,
)
from threatrank.vocab import Vocabulary
from tests.conftest import (
    EXPECTED_CVSS_RANKS,
    EXPECTED_RELEVANCE,
    EXPECTED_THREAT_RANKS,
    feature_bits,
)

APT = PolicyConfig(family=Family.APT)
GENERAL = PolicyConfig(family=Family.GENERAL)

TINY_VOCAB = Vocabulary(countries=("United States", "China"), sectors=("Education",))
CPE_A = "cpe:2.3:a:v:a:-:*:*:*:*:*:*:*"


def _mini_bundle(
    vector=AttackVector.NETWORK,
    cwe_chain=True,
    skill=SkillLevel.HIGH,
    impacts=(TechnicalImpact.EXECUTE_UNAUTHORIZED_CODE,),
    epss=0.95,
    in_kev=False,
    in_exploitdb=False,
    technique=True,
) -> dict[SourceKind, list]:
    """One CVE with every threat-path ingredient toggleable."""
    cve = CveRecord(
        cve_id="CVE-2021-10000", description="d", published=date(2021, 1, 1),
        modified=date(2021, 2, 1), cvss_base=8.0, attack_vector=vector,
        cwe_ids=("CWE-79",) if cwe_chain else (),
        affected_cpes=(CPE_A,),
    )
    bundle = {
        SourceKind.CVE: [cve],
        SourceKind.CPE: [CpeEntry(cpe_id=CPE_A, vendor="v", product="a")],
        SourceKind.TECHNIQUE: [AttackTechnique("T1059", "t", ("TA0002",))],
        SourceKind.TACTIC: [AttackTactic("TA0002", "execution")],
        SourceKind.GROUP: [AttackGroupRaw("G0001", "g", "d", date(2018, 1, 1), ("T1059",))],
    }
    if cwe_chain:
        bundle[SourceKind.CWE] = [CweEntry("CWE-79", "w", tuple(impacts), ("CAPEC-63",))]
        bundle[SourceKind.CAPEC] = [CapecEntry("CAPEC-63", "c", skill,
                                               ("T1059",) if technique else ())]
    if epss is not None:
        bundle[SourceKind.EPSS] = [EpssScore("CVE-2021-10000", epss, 0.95)]
    if in_kev:
        bundle[SourceKind.KEV] = [KevEntry("CVE-2021-10000", "v", "p", "n", date(2021, 1, 5),
                                           "s", "a", date(2021, 1, 19))]
    if in_exploitdb:
        bundle[SourceKind.EXPLOIT] = [ExploitRef(50000, ("CVE-2021-10000",))]
    return bundle


def _mini_graph(attributed=True, **kwargs):
    bundle = _mini_bundle(**kwargs)
    attributions = []
    if attributed:
        attributions = [GroupAttribution(
            group_id="G0001", origin_countries=("China",), origin_year=2012,
            targeted_countries=("United States",), targeted_sectors=("Education",),
            evidence=())]
    return build_graph(bundle, attributions, vocab=TINY_VOCAB).freeze()


MINI_ORG = OrgContext(org_id="X", sector="Education", country="United States",
                      cpe_ids=frozenset({CPE_A}))


def _row(graph, cve_id, org):
    """One candidate's feature row, from a one-row table."""
    return feature_table(graph, [cve_id], org)[cve_id]


def _item(graph, cve_id, org, config, policy=None):
    """One candidate's ranked item through rank(), under ``policy`` or else
    the config family's threat policy."""
    cohort = WeeklyCohort(org_id=org.org_id, iso_week=(2021, 1), cve_ids=(cve_id,))
    policy = policy or FAMILIES[config.family][0]
    return rank(cohort, policy, config, feature_table(graph, cohort.cve_ids, org)).items[0]


# ---------------------------------------------------------------------------
# Candidate generation
# ---------------------------------------------------------------------------


def test_case_study_cohort(case_graph, case_org, case_config):
    cohorts = generate_candidates(case_org, case_graph, case_config.date_range)
    assert len(cohorts) == 1
    assert cohorts[0].iso_week == (2021, 47)
    assert len(cohorts[0].cve_ids) == 39


def test_org_without_cpes_has_no_cohorts(case_graph):
    org = OrgContext(org_id="none", sector="Education", country="United States",
                     cpe_ids=frozenset())
    assert generate_candidates(org, case_graph, (date(2021, 1, 1), date(2021, 12, 31)))  == []


def test_remodified_cve_lands_in_latest_week_only(tmp_path):
    # two snapshot lines for one CVE; last-wins parsing leaves only the
    # later modification date, so the cohort of its earlier week is empty
    rows = [
        {"kind": "cve", "cve_id": "CVE-2021-10000", "description": "d",
         "published": "2021-01-01", "modified": "2021-11-02", "cvss_base": 5.0,
         "attack_vector": "NETWORK", "affected_cpes": [CPE_A]},
        {"kind": "cve", "cve_id": "CVE-2021-10000", "description": "d",
         "published": "2021-01-01", "modified": "2021-11-23", "cvss_base": 5.0,
         "attack_vector": "NETWORK", "affected_cpes": [CPE_A]},
    ]
    path = tmp_path / "cve.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    records = parse_snapshot(path, SourceKind.CVE).records
    bundle = {SourceKind.CVE: records,
              SourceKind.CPE: [CpeEntry(cpe_id=CPE_A, vendor="v", product="a")]}
    graph = build_graph(bundle, vocab=TINY_VOCAB).freeze()
    cohorts = generate_candidates(MINI_ORG, graph, (date(2021, 11, 1), date(2021, 11, 30)))
    assert [c.iso_week for c in cohorts] == [(2021, 47)]


def test_week_straddling_year_boundary():
    # 2021-01-01 belongs to ISO week 2020-W53
    cve = CveRecord(cve_id="CVE-2021-10000", description="d",
                    published=date(2020, 12, 1), modified=date(2021, 1, 1),
                    cvss_base=5.0, attack_vector=AttackVector.NETWORK,
                    affected_cpes=(CPE_A,))
    bundle = {SourceKind.CVE: [cve],
              SourceKind.CPE: [CpeEntry(cpe_id=CPE_A, vendor="v", product="a")]}
    graph = build_graph(bundle, vocab=TINY_VOCAB).freeze()
    cohorts = generate_candidates(MINI_ORG, graph, (date(2020, 12, 28), date(2021, 1, 3)))
    assert [c.iso_week for c in cohorts] == [(2020, 53)]


def test_candidates_reject_empty_range(case_graph, case_org):
    with pytest.raises(ValueError):
        generate_candidates(case_org, case_graph, (date(2021, 2, 1), date(2021, 1, 1)))


# ---------------------------------------------------------------------------
# Policy scores
# ---------------------------------------------------------------------------


def test_cvss_base_scores(case_graph, case_org):
    cvss = Policy.CVSS_BASE
    assert _item(case_graph, "CVE-2021-34423", case_org, APT, cvss).score == 9.8
    assert _item(case_graph, "CVE-2021-37966", case_org, APT, cvss).score == 4.3


def test_cvss_base_missing_score_warns(caplog):
    graph = build_graph({}, vocab=TINY_VOCAB)
    graph.upsert_node(NodeLabel.NVD_CVE, "CVE-2021-10000", {})
    with caplog.at_level("WARNING"):
        assert _item(graph.freeze(), "CVE-2021-10000", MINI_ORG, APT,
                     Policy.CVSS_BASE).score == 0.0
    assert "no CVSS base score" in caplog.text


def test_apt_relevance_on_case_fixture(case_graph, case_org):
    assert _item(case_graph, "CVE-2021-38000", case_org, APT).score == 6
    assert _item(case_graph, "CVE-2021-30632", case_org, APT).score == 2


def test_apt_relevance_floor(case_graph, case_org):
    # local vector, no threat path, EPSS far below the threshold
    assert _item(case_graph, "CVE-2021-43777", case_org, APT).score == 1


def test_apt_bits_composition(case_graph, case_org):
    bits = _item(case_graph, "CVE-2021-38000", case_org, APT).feature_bits
    assert bits == {"av_network": 1, "sector_focus": 1, "targets_country": 1,
                    "origin_match": 1, "epss_gate": 1, "affects_software": 1}
    assert tuple(bits) == APT_BITS


def test_apt_origin_filter_respects_config(case_graph, case_org):
    config = APT._replace(origin_countries=frozenset({"Iran"}))
    bits = feature_bits(_row(case_graph, "CVE-2021-38000", case_org), config)
    assert bits["origin_match"] == 0
    assert bits["sector_focus"] == 1


def test_epss_gate_threshold_is_inclusive(case_graph, case_org):
    bits = feature_bits(_row(case_graph, "CVE-2021-38000", case_org), APT)
    assert bits["epss_gate"] == 1  # probability exactly 0.876


def test_risk_appetite_gates_percentile(case_graph, case_org):
    # percentile 0.94 fails a 5-point appetite (needs >= 95th percentile)
    row = _row(case_graph, "CVE-2021-38000", case_org)
    assert feature_bits(row, APT._replace(risk_appetite=5))["epss_gate"] == 0
    assert feature_bits(row, APT._replace(risk_appetite=6))["epss_gate"] == 1


def test_general_threat_full_house():
    graph = _mini_graph()
    assert _item(graph, "CVE-2021-10000", MINI_ORG, GENERAL).score == 6


def test_general_threat_floor():
    graph = _mini_graph(vector=AttackVector.LOCAL, cwe_chain=False, epss=0.01)
    assert _item(graph, "CVE-2021-10000", MINI_ORG, GENERAL).score == 1


def test_general_threat_skill_flip_changes_exactly_one_bit():
    graph = _mini_graph(skill=SkillLevel.HIGH)
    high = _item(graph, "CVE-2021-10000", MINI_ORG, GENERAL)
    low = _item(graph, "CVE-2021-10000", MINI_ORG,
                GENERAL._replace(skill_level=SkillLevel.LOW))
    assert high.feature_bits["skill_match"] == 1 and low.feature_bits["skill_match"] == 0
    changed = {name for name in high.feature_bits
               if high.feature_bits[name] != low.feature_bits[name]}
    assert changed == {"skill_match"}
    assert high.score - low.score == 1


def test_general_threat_failure_impact_bit():
    graph = _mini_graph(impacts=(TechnicalImpact.READ_DATA,))
    bits = feature_bits(_row(graph, "CVE-2021-10000", MINI_ORG), GENERAL)
    assert bits["failure_impact"] == 0
    graph = _mini_graph(impacts=(TechnicalImpact.GAIN_PRIVILEGES,))
    bits = feature_bits(_row(graph, "CVE-2021-10000", MINI_ORG), GENERAL)
    assert bits["failure_impact"] == 1


def test_ideal_exploit_bit_variants(case_graph, case_org):
    bits = feature_bits(_row(case_graph, "CVE-2021-38000", case_org), APT)
    assert bits["exploit_known"] == 1  # KEV entry
    bits = feature_bits(_row(case_graph, "CVE-2021-37966", case_org), APT)
    assert bits["exploit_known"] == 0  # in neither catalog


def test_ideal_exploitdb_only_counts():
    graph = _mini_graph(in_exploitdb=True, in_kev=False)
    bits = feature_bits(_row(graph, "CVE-2021-10000", MINI_ORG), APT)
    assert bits["exploit_known"] == 1


def test_ideal_equals_threat_policy_when_bits_agree():
    # exploit evidence present and EPSS above threshold: bit values match,
    # so the two policies coincide on the whole cohort
    ideal = Policy.IDEAL
    graph = _mini_graph(in_kev=True, epss=0.95)
    assert _item(graph, "CVE-2021-10000", MINI_ORG, APT).score == \
        _item(graph, "CVE-2021-10000", MINI_ORG, APT, ideal).score
    graph = _mini_graph(in_kev=False, epss=0.01)
    assert _item(graph, "CVE-2021-10000", MINI_ORG, APT).score == \
        _item(graph, "CVE-2021-10000", MINI_ORG, APT, ideal).score


def test_policy_bit_tuples():
    # the ideal drops the EPSS gate and appends exploit evidence last
    assert policy_bits(Policy.CVSS_BASE, Family.APT) == ()
    assert policy_bits(Policy.APT_THREAT, Family.APT) == APT_BITS
    assert policy_bits(Policy.GENERAL_THREAT, Family.GENERAL) == GENERAL_BITS
    assert policy_bits(Policy.IDEAL, Family.APT) == (
        "av_network", "sector_focus", "targets_country", "origin_match",
        "affects_software", "exploit_known")
    assert policy_bits(Policy.IDEAL, Family.GENERAL) == (
        "av_network", "skill_match", "technique_link", "failure_impact",
        "affects_software", "exploit_known")


def test_threat_policy_ranks_only_in_its_family():
    # a threat policy judged against the other family's ideal would mix
    # one family's settings with the other's bits
    assert {threat for threat, _bits in FAMILIES.values()} == {
        Policy.APT_THREAT, Policy.GENERAL_THREAT}
    with pytest.raises(ValueError, match="general family"):
        policy_bits(Policy.APT_THREAT, Family.GENERAL)
    with pytest.raises(ValueError, match="apt family"):
        _item(_mini_graph(), "CVE-2021-10000", MINI_ORG, APT, Policy.GENERAL_THREAT)


# ---------------------------------------------------------------------------
# Ranking
# ---------------------------------------------------------------------------


def _case_rankings(case_graph, case_org, case_config):
    cohort = generate_candidates(case_org, case_graph, case_config.date_range)[0]
    apt = case_config.policies[Family.APT]
    table = feature_table(case_graph, cohort.cve_ids, case_org)
    threat = rank(cohort, Policy.APT_THREAT, apt, table)
    cvss = rank(cohort, Policy.CVSS_BASE, apt, table)
    return cohort, cvss, threat


def test_case_study_threat_ranking(case_graph, case_org, case_config):
    _, _, threat = _case_rankings(case_graph, case_org, case_config)
    ranks = threat.rank_of()
    for cve, expected in EXPECTED_THREAT_RANKS.items():
        assert ranks[cve] == expected, cve
    scores = threat.score_of()
    for cve, expected in EXPECTED_RELEVANCE.items():
        assert scores[cve] == expected, cve


def test_case_study_cvss_ranking(case_graph, case_org, case_config):
    _, cvss, _ = _case_rankings(case_graph, case_org, case_config)
    ranks = cvss.rank_of()
    for cve, expected in EXPECTED_CVSS_RANKS.items():
        assert ranks[cve] == expected, cve


def test_ranks_are_gap_free_permutation(case_graph, case_org, case_config):
    cohort, cvss, threat = _case_rankings(case_graph, case_org, case_config)
    for ranked in (cvss, threat):
        assert sorted(i.rank for i in ranked.items) == list(range(1, len(cohort.cve_ids) + 1))
        assert {i.cve_id for i in ranked.items} == set(cohort.cve_ids)


def test_rank_singleton_cohort():
    graph = _mini_graph()
    cohort = WeeklyCohort(org_id="X", iso_week=(2021, 5), cve_ids=("CVE-2021-10000",))
    for config in (APT, GENERAL):
        table = feature_table(graph, cohort.cve_ids, MINI_ORG)
        for policy in (Policy.CVSS_BASE, FAMILIES[config.family][0], Policy.IDEAL):
            assert [i.rank for i in rank(cohort, policy, config, table).items] == [1]


def test_cvss_ranking_carries_no_bits(case_graph, case_org, case_config, monkeypatch):
    cohort = generate_candidates(case_org, case_graph, case_config.date_range)[0]
    table = feature_table(case_graph, cohort.cve_ids, case_org)
    derived = []
    row_masks = ranking._row_masks

    def counting_row_masks(config):
        mask_of = row_masks(config)
        return lambda row: derived.append(row) or mask_of(row)

    monkeypatch.setattr(ranking, "_row_masks", counting_row_masks)
    cvss = rank(cohort, Policy.CVSS_BASE, case_config.policies[Family.APT], table)
    default = RankedItem._field_defaults["feature_bits"]
    assert all(item.feature_bits is default for item in cvss.items)
    assert derived == []  # a policy that sums no bits derives none
    rank(cohort, Policy.APT_THREAT, case_config.policies[Family.APT], table)
    assert len(derived) == len(cohort.cve_ids)  # a threat policy derives each row once


def test_ranked_feature_bits_are_read_only(case_graph, case_org, case_config):
    cohort = generate_candidates(case_org, case_graph, case_config.date_range)[0]
    table = feature_table(case_graph, cohort.cve_ids, case_org)
    for policy in (Policy.CVSS_BASE, Policy.APT_THREAT, Policy.IDEAL):
        ranked = rank(cohort, policy, case_config.policies[Family.APT], table)
        before = [dict(item.feature_bits) for item in ranked.items]
        for item in ranked.items:
            with pytest.raises(TypeError):
                item.feature_bits["av_network"] = 0
        assert [dict(item.feature_bits) for item in ranked.items] == before


def test_rank_deterministic(case_graph, case_org, case_config):
    _, first, _ = _case_rankings(case_graph, case_org, case_config)
    _, second, _ = _case_rankings(case_graph, case_org, case_config)
    assert first == second


@given(st.lists(st.floats(0, 10, allow_nan=False), min_size=1, max_size=40))
@settings(max_examples=150)
def test_order_scored_is_gap_free_and_sorted(scores):
    scored = [(f"CVE-2020-{10000 + i}", s) for i, s in enumerate(scores)]
    ordered = order_scored(scored)
    assert [position for _c, _s, position in ordered] == list(range(1, len(scored) + 1))
    for (_, s1, _), (c2_id, s2, _) in zip(ordered, ordered[1:]):
        assert s1 >= s2
    # ties break on ascending id
    for (c1, s1, _), (c2, s2, _) in zip(ordered, ordered[1:]):
        if s1 == s2:
            assert c1 < c2


# A power-of-two factor scales every float exactly, so it keeps each
# pair's strict order and ties; an arbitrary factor can round two close
# scores (9.999999999999998 and 10.0 times 819.4220127764424) to one
# float, and the tie then reorders them by CVE id.
@given(st.lists(st.floats(0.1, 10, allow_nan=False), min_size=1, max_size=30),
       st.integers(-10, 10))
@settings(max_examples=100)
def test_positive_scaling_preserves_order(scores, exponent):
    base = [(f"CVE-2020-{10000 + i}", s) for i, s in enumerate(scores)]
    scaled = [(cve, s * 2.0 ** exponent) for cve, s in base]
    assert [c for c, _s, _r in order_scored(base)] == [c for c, _s, _r in order_scored(scaled)]


BIT_NAMES = ["av_network", "sector_focus", "targets_country", "origin_match",
             "epss_gate", "affects_software"]


@given(st.lists(st.integers(0, 1), min_size=6, max_size=6), st.integers(0, 5))
@settings(max_examples=200)
def test_single_bit_flip_never_lowers_relevance(bits, which):
    original = dict(zip(BIT_NAMES, bits))
    flipped = dict(original)
    flipped[BIT_NAMES[which]] = 1
    assert score_from_bits(flipped) >= score_from_bits(original)
    assert 1 <= score_from_bits(original) <= 6
    assert 1 <= score_from_bits(flipped) <= 6


@given(st.lists(st.integers(1, 6), min_size=2, max_size=30), st.data())
@settings(max_examples=150)
def test_raising_one_score_never_lowers_rank(scores, data):
    items = [(f"CVE-2020-{10000 + i}", float(s)) for i, s in enumerate(scores)]
    index = data.draw(st.integers(0, len(items) - 1))
    bumped = list(items)
    bumped[index] = (items[index][0], items[index][1] + 1.0)
    before = {c: r for c, _s, r in order_scored(items)}
    after = {c: r for c, _s, r in order_scored(bumped)}
    assert after[items[index][0]] <= before[items[index][0]]


# ---------------------------------------------------------------------------
# Feature records
# ---------------------------------------------------------------------------


def test_feature_record_population(case_graph, case_org, case_config):
    cohort = generate_candidates(case_org, case_graph, case_config.date_range)[0]
    row = feature_table(case_graph, cohort.cve_ids, case_org)["CVE-2021-38000"]
    assert row.cvss_base == 6.1
    # CWE-601 -> CAPEC-194 (Medium skill) -> T1566 (Phishing) -> G0901, a
    # China-origin group focused on Education and targeting the US.  G0903
    # also employs T1566; it carries no sector or country edges, so it is
    # reached without contributing bits.  KEV and ExploitDB both list it.
    assert row.skill_levels == {"Medium"}
    # The countries G0901 targets, South Korea and the US, are not origins
    assert row.origin_countries == {"China"}
    assert row.epss == (0.876, 0.94)
    assert feature_bits(row, case_config.policies[Family.APT]) == {
        "av_network": 1, "sector_focus": 1, "targets_country": 1, "origin_match": 1,
        "skill_match": 0, "technique_link": 1, "failure_impact": 1,
        "epss_gate": 1, "exploit_known": 1, "affects_software": 1,
    }


def test_feature_row_ignores_a_skill_level_that_is_not_a_string():
    # graph.jsonl is outside input: a Capec whose skill_level is a list or a
    # number matches no configured level and must not end a read in a
    # traceback; one whose skill_level is an object does not freeze
    for level in (["High"], 3, {"level": "High"}):
        graph = build_graph({}, vocab=TINY_VOCAB)
        graph.upsert_node(NodeLabel.NVD_CVE, "CVE-2021-10000", {})
        graph.upsert_node(NodeLabel.CWE, "CWE-79")
        graph.upsert_node(NodeLabel.CAPEC, "CAPEC-63", {"skill_level": level})
        assert graph.link(EdgeType.WEAKENED_BY, "CVE-2021-10000", "CWE-79")
        assert graph.link(EdgeType.KNOWN_ATTACK, "CWE-79", "CAPEC-63")
        if type(level) is dict:
            with pytest.raises(ValueError, match="Capec 'CAPEC-63': prop 'skill_level'"):
                graph.freeze()
            continue
        row = _row(graph.freeze(), "CVE-2021-10000", MINI_ORG)
        assert row.skill_levels == frozenset()
        assert feature_bits(row, GENERAL)["skill_match"] == 0


def test_feature_record_marks_absent_fields():
    graph = _mini_graph(cwe_chain=False, epss=None)
    bits = feature_bits(_row(graph, "CVE-2021-10000", MINI_ORG), APT)
    # no weakness chain: no path bits; no EPSS row: the gate stays shut
    assert bits == {
        "av_network": 1, "sector_focus": 0, "targets_country": 0, "origin_match": 0,
        "skill_match": 0, "technique_link": 0, "failure_impact": 0,
        "epss_gate": 0, "exploit_known": 0, "affects_software": 1,
    }


# ---------------------------------------------------------------------------
# The config-free row against the one-walk-per-config extraction it replaced
# ---------------------------------------------------------------------------


def _reverse_index(graph):
    """(target node, edge type) -> its source nodes, read off ``graph.edges()``.

    The oracles below walk edges backwards through this index, so they do
    not depend on how the graph answers a reverse read.
    """
    index = {}
    for src, edge_type, dst in graph.edges():
        index.setdefault((dst, edge_type), set()).add(src)
    return index


def _reference_feature_bits(graph, cve_id, org, config, incoming):
    """The ten bits from one walk that weighs the config as it goes.

    This is how the bits were extracted before the walk and the config were
    split; it reads the same adjacency, and ``incoming`` (``_reverse_index``)
    for the edges it walks backwards.
    """
    def adjacent(node, edge_type, direction="out"):
        if direction == "in":
            return incoming.get((node, edge_type), frozenset())
        return node.outgoing.get(edge_type, frozenset())

    def adjacent_keys(node, edge_type):
        return {other.key for other in adjacent(node, edge_type)}

    node = graph.find(NodeLabel.NVD_CVE, cve_id)
    failure_impact = skill_match = technique_link = False
    techniques = set()
    for cwe in adjacent(node, EdgeType.WEAKENED_BY):
        if FAILURE_IMPACTS.intersection(cwe.props.get("technical_impacts", ())):
            failure_impact = True
        for capec in adjacent(cwe, EdgeType.KNOWN_ATTACK):
            if capec.props.get("skill_level") == config.skill_level.value:
                skill_match = True
            employed = adjacent(capec, EdgeType.EMPLOYS)
            technique_link = technique_link or bool(employed)
            techniques |= employed
    groups = set()
    for technique in techniques:
        groups |= adjacent(technique, EdgeType.ACHIEVES_GOAL, "in")
    sector_focus = targets_country = origin_match = False
    for group in groups:
        if org.sector not in adjacent_keys(group, EdgeType.FOCUS_ON):
            continue
        sector_focus = True
        if org.country in adjacent_keys(group, EdgeType.TARGETS):
            targets_country = True
        if adjacent_keys(group, EdgeType.ORIGINATES) & config.origin_countries:
            origin_match = True
    probability = node.props.get("epss_probability")
    percentile = node.props.get("epss_percentile")
    epss_gate = (probability is not None and percentile is not None
                 and probability >= config.epss_threshold
                 and percentile * 100.0 >= 100.0 - config.risk_appetite)
    exploited = (adjacent(node, EdgeType.EXPLOITS_KNOWN)
                 or adjacent(node, EdgeType.REFERENCE_EXPLOIT))
    return {
        "av_network": int(node.props.get("attack_vector") == AttackVector.NETWORK.value),
        "sector_focus": int(sector_focus),
        "targets_country": int(targets_country),
        "origin_match": int(origin_match),
        "skill_match": int(skill_match),
        "technique_link": int(technique_link),
        "failure_impact": int(failure_impact),
        "epss_gate": int(epss_gate),
        "exploit_known": int(bool(exploited)),
        "affects_software": int(bool(adjacent_keys(node, EdgeType.AFFECTS) & org.cpe_ids)),
    }


@pytest.fixture(scope="module")
def fixture_candidates(case_graph, synth_graph):
    """(graph, org, CVE id, row) of every candidate of every org on both fixtures,
    with the country vocabulary and the EPSS probabilities they hold."""
    candidates, countries, probabilities = [], set(), set()
    for graph in (case_graph, synth_graph):
        countries.update(n.key for n in graph.nodes_with_label(NodeLabel.COUNTRY))
        for org_node in graph.nodes_with_label(NodeLabel.ORGANIZATION):
            org = OrgContext.from_graph(graph, org_node.key)
            for cohort in generate_candidates(org, graph, (date.min, date.max)):
                for cve_id in cohort.cve_ids:
                    row = _row(graph, cve_id, org)
                    candidates.append((graph, org, cve_id, row))
                    if row.epss is not None:
                        probabilities.add(row.epss[0])
    return candidates, sorted(countries), sorted(probabilities)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_feature_bits_of_a_row_equal_the_config_walk(fixture_candidates, data):
    candidates, countries, probabilities = fixture_candidates
    assert len(candidates) == 39 + 1399 and probabilities
    config = PolicyConfig(
        family=data.draw(st.sampled_from(Family)),
        origin_countries=data.draw(st.frozensets(st.sampled_from(countries))
                                   | st.frozensets(st.sampled_from(["China", "Iran", "Russia"]))),
        skill_level=data.draw(st.sampled_from([SkillLevel.LOW, SkillLevel.HIGH])),
        epss_threshold=data.draw(st.floats(0.0, 1.0) | st.sampled_from(probabilities)),
        risk_appetite=data.draw(st.integers(0, 100)),
    )
    incoming = {graph: _reverse_index(graph) for graph in {each[0] for each in candidates}}
    for graph, org, cve_id, row in candidates:
        assert feature_bits(row, config) == \
            _reference_feature_bits(graph, cve_id, org, config, incoming[graph]), cve_id


# ---------------------------------------------------------------------------
# The per-(org, CWE) reader against a walk per candidate
# ---------------------------------------------------------------------------


def _reference_feature_row(graph, cve_id, org, incoming):
    """One candidate's row from its own walk of every path.

    This is how ``feature_row`` read a row before the walk of each CWE was
    shared across a call's candidates; ``incoming`` is ``_reverse_index``.
    """
    node = graph.find(NodeLabel.NVD_CVE, cve_id)
    failure_impact = technique_link = False
    skill_levels = set()
    techniques = set()
    for cwe in node.outgoing.get(EdgeType.WEAKENED_BY, ()):
        if FAILURE_IMPACTS.intersection(cwe.props.get("technical_impacts", ())):
            failure_impact = True
        for capec in cwe.outgoing.get(EdgeType.KNOWN_ATTACK, ()):
            level = capec.props.get("skill_level")
            if isinstance(level, str):
                skill_levels.add(level)
            employed = capec.outgoing.get(EdgeType.EMPLOYS, ())
            technique_link = technique_link or bool(employed)
            techniques.update(employed)
    groups = set()
    for technique in techniques:
        groups.update(incoming.get((technique, EdgeType.ACHIEVES_GOAL), ()))
    sector_focus = targets_country = False
    origin_countries = set()
    for group in groups:
        if org.sector not in {sector.key for sector in group.outgoing.get(EdgeType.FOCUS_ON, ())}:
            continue
        sector_focus = True
        if org.country in {country.key for country in group.outgoing.get(EdgeType.TARGETS, ())}:
            targets_country = True
        origin_countries.update(country.key
                                for country in group.outgoing.get(EdgeType.ORIGINATES, ()))
    props = node.props
    probability, percentile = props.get("epss_probability"), props.get("epss_percentile")
    affected = {cpe.key for cpe in node.outgoing.get(EdgeType.AFFECTS, ())}
    exploited = (EdgeType.EXPLOITS_KNOWN in node.outgoing
                 or EdgeType.REFERENCE_EXPLOIT in node.outgoing)
    fixed_bits = {
        "av_network": int(props.get("attack_vector") == AttackVector.NETWORK.value),
        "sector_focus": int(sector_focus),
        "targets_country": int(targets_country),
        "technique_link": int(technique_link),
        "failure_impact": int(failure_impact),
        "exploit_known": int(exploited),
        "affects_software": int(bool(affected & org.cpe_ids)),
    }
    return ranking.FeatureRow(
        cvss_base=props.get("cvss_base"),
        fixed_mask=sum(fixed_bits[name] << i for i, name in enumerate(ranking.FIXED_BITS)),
        skill_levels=frozenset(skill_levels),
        origin_countries=frozenset(origin_countries),
        epss=None if probability is None or percentile is None else (probability, percentile),
    )


# Sector and country names an org may name; only some of them get a node.
_SECTORS = ("Education", "Energy", "Healthcare")
_COUNTRIES = ("United States", "China", "Iran")
# CAPEC skill levels as graph.jsonl may hold them: strings, null and values
# that are not strings (a list prop is frozen into a tuple, and an object
# does not freeze).
_SKILLS = st.sampled_from(["Low", "Medium", "High", None, {"level": "High"}, ["High"], 3])


@st.composite
def _meshes(draw):
    """A random CVE->CWE->CAPEC->technique<-group mesh, and an org over it.

    Small pools make shared CAPECs, techniques and groups, and so diamond
    paths, the common case.  The CVEs are modified in one of three ISO
    weeks, so the org's candidates fall into up to three cohorts.  The
    graph is not frozen yet.
    """
    def subset(pool, max_size=None):
        return draw(st.lists(st.sampled_from(pool), unique=True,
                             max_size=len(pool) if max_size is None else max_size)) \
            if pool else []

    graph = PropertyGraph()
    sectors = subset(_SECTORS)  # the sectors and countries that have a node
    countries = subset(_COUNTRIES)
    for sector in sectors:
        graph.upsert_node(NodeLabel.DHS_SECTOR, sector)
    for country in countries:
        graph.upsert_node(NodeLabel.COUNTRY, country)
    techniques = [f"T{i}" for i in range(draw(st.integers(0, 4)))]
    for technique in techniques:
        graph.upsert_node(NodeLabel.ATTACK_ENTERPRISE_TECHNIQUE, technique)
    capecs = [f"CAPEC-{i}" for i in range(draw(st.integers(0, 5)))]
    for capec in capecs:
        level = draw(_SKILLS)
        graph.upsert_node(NodeLabel.CAPEC, capec, {} if level is None else {"skill_level": level})
        for technique in subset(techniques):
            graph.link(EdgeType.EMPLOYS, capec, technique)
    cwes = [f"CWE-{i}" for i in range(draw(st.integers(0, 5)))]
    impacts = [impact.value for impact in TechnicalImpact]
    for cwe in cwes:
        graph.upsert_node(NodeLabel.CWE, cwe, {"technical_impacts": subset(impacts, 2)})
        for capec in subset(capecs):
            graph.link(EdgeType.KNOWN_ATTACK, cwe, capec)
    for i in range(draw(st.integers(0, 5))):
        group = f"G{i}"
        graph.upsert_node(NodeLabel.ATTACK_GROUP, group)
        for technique in subset(techniques):
            graph.link(EdgeType.ACHIEVES_GOAL, group, technique)
        for sector in subset(sectors):
            graph.link(EdgeType.FOCUS_ON, group, sector)
        for country in subset(countries):
            graph.link(EdgeType.TARGETS, group, country)
        for country in subset(countries):
            graph.link(EdgeType.ORIGINATES, group, country)
    cpes = ["cpe:a", "cpe:b", "cpe:c"]
    for cpe in cpes:
        graph.upsert_node(NodeLabel.CPE, cpe)
    cve_ids = [f"CVE-2021-{10000 + i}" for i in range(draw(st.integers(1, 8)))]
    for cve_id in cve_ids:
        props = {"modified": draw(st.sampled_from(["2021-01-04", "2021-01-13", "2021-01-24"])),
                 "attack_vector": draw(st.sampled_from([v.value for v in AttackVector]))}
        if draw(st.booleans()):
            props["cvss_base"] = draw(st.floats(0, 10))
        if draw(st.booleans()):
            props["epss_probability"], props["epss_percentile"] = draw(st.floats(0, 1)), 0.5
        graph.upsert_node(NodeLabel.NVD_CVE, cve_id, props)
        for cwe in subset(cwes):
            graph.link(EdgeType.WEAKENED_BY, cve_id, cwe)
        for cpe in subset(cpes):
            graph.link(EdgeType.AFFECTS, cve_id, cpe)
        if draw(st.booleans()):
            graph.upsert_node(NodeLabel.CISA_EXPLOIT_CATALOG, cve_id)
            graph.link(EdgeType.EXPLOITS_KNOWN, cve_id, cve_id)
    org = OrgContext(org_id="X", sector=draw(st.sampled_from(_SECTORS)),
                     country=draw(st.sampled_from(_COUNTRIES)),
                     cpe_ids=frozenset(subset(cpes)))
    return graph, org, tuple(cve_ids)


@given(_meshes())
@settings(max_examples=300, deadline=None)
def test_feature_table_and_row_equal_a_walk_per_candidate(mesh):
    graph, org, cve_ids = mesh
    if any(type(capec.props.get("skill_level")) is dict
           for capec in graph.nodes_with_label(NodeLabel.CAPEC)):
        with pytest.raises(ValueError, match="prop 'skill_level'"):
            graph.freeze()
        return
    graph.freeze()
    incoming = _reverse_index(graph)
    expected = {cve_id: _reference_feature_row(graph, cve_id, org, incoming)
                for cve_id in cve_ids}
    # One table over every cohort's candidates, as the read commands build it
    cohorts = generate_candidates(org, graph, (date.min, date.max))
    candidates = [cve_id for cohort in cohorts for cve_id in cohort.cve_ids]
    assert feature_table(graph, candidates, org) == {cve: expected[cve] for cve in candidates}
    # ... one over every CVE of the mesh, and one row at a time
    assert feature_table(graph, cve_ids, org) == expected
    for cve_id in cve_ids:
        assert _row(graph, cve_id, org) == expected[cve_id], cve_id
