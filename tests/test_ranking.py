from __future__ import annotations

import json
from dataclasses import replace
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
    SnapshotBundle,
    SourceKind,
    TechnicalImpact,
    parse_snapshot,
)
from threatrank.enrich import GroupAttribution
from threatrank.feeds import AttackGroupRaw
from threatrank.kgraph import build_graph
from threatrank.ranking import (
    APT_BITS,
    GENERAL_BITS,
    IdealMode,
    OrgContext,
    Policy,
    PolicyConfig,
    WeeklyCohort,
    feature_bits,
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
)

APT = PolicyConfig(policy=Policy.APT_THREAT)
GENERAL = PolicyConfig(policy=Policy.GENERAL_THREAT, ideal_mode=IdealMode.GENERAL)

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
) -> SnapshotBundle:
    """One CVE with every threat-path ingredient toggleable."""
    cve = CveRecord(
        cve_id="CVE-2021-10000", description="d", published=date(2021, 1, 1),
        modified=date(2021, 2, 1), cvss_base=8.0, attack_vector=vector,
        cwe_ids=("CWE-79",) if cwe_chain else (),
        affected_cpes=(CPE_A,),
    )
    bundle = SnapshotBundle(
        cves=[cve],
        cpes=[CpeEntry(cpe_id=CPE_A, vendor="v", product="a")],
        techniques=[AttackTechnique("T1059", "t", ("TA0002",))],
        tactics=[AttackTactic("TA0002", "execution")],
        groups=[AttackGroupRaw("G0001", "g", "d", date(2018, 1, 1), ("T1059",))],
    )
    if cwe_chain:
        bundle.cwes = [CweEntry("CWE-79", "w", tuple(impacts), ("CAPEC-63",))]
        bundle.capecs = [CapecEntry("CAPEC-63", "c", skill,
                                    ("T1059",) if technique else ())]
    if epss is not None:
        bundle.epss = [EpssScore("CVE-2021-10000", epss, 0.95)]
    if in_kev:
        bundle.kev = [KevEntry("CVE-2021-10000", "v", "p", "n", date(2021, 1, 5),
                               "s", "a", date(2021, 1, 19))]
    if in_exploitdb:
        bundle.exploits = [ExploitRef(50000, ("CVE-2021-10000",))]
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


def _item(graph, cve_id, org, config):
    """One candidate's ranked item under the config's policy, through rank()."""
    cohort = WeeklyCohort(org_id=org.org_id, iso_week=(2021, 1), cve_ids=(cve_id,))
    return rank(cohort, config, feature_table(graph, cohort, org, config)).items[0]


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
    bundle = SnapshotBundle(cves=records,
                            cpes=[CpeEntry(cpe_id=CPE_A, vendor="v", product="a")])
    graph = build_graph(bundle, vocab=TINY_VOCAB).freeze()
    cohorts = generate_candidates(MINI_ORG, graph, (date(2021, 11, 1), date(2021, 11, 30)))
    assert [c.iso_week for c in cohorts] == [(2021, 47)]


def test_week_straddling_year_boundary():
    # 2021-01-01 belongs to ISO week 2020-W53
    cve = CveRecord(cve_id="CVE-2021-10000", description="d",
                    published=date(2020, 12, 1), modified=date(2021, 1, 1),
                    cvss_base=5.0, attack_vector=AttackVector.NETWORK,
                    affected_cpes=(CPE_A,))
    bundle = SnapshotBundle(cves=[cve],
                            cpes=[CpeEntry(cpe_id=CPE_A, vendor="v", product="a")])
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
    cvss = replace(APT, policy=Policy.CVSS_BASE)
    assert _item(case_graph, "CVE-2021-34423", case_org, cvss).score == 9.8
    assert _item(case_graph, "CVE-2021-37966", case_org, cvss).score == 4.3


def test_cvss_base_missing_score_warns(caplog):
    from threatrank.kgraph import NodeLabel

    graph = build_graph(SnapshotBundle(), vocab=TINY_VOCAB)
    graph.upsert_node(NodeLabel.NVD_CVE, "CVE-2021-10000", {})
    cvss = replace(APT, policy=Policy.CVSS_BASE)
    with caplog.at_level("WARNING"):
        assert _item(graph.freeze(), "CVE-2021-10000", MINI_ORG, cvss).score == 0.0
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
    config = replace(APT, origin_countries=frozenset({"Iran"}))
    bits = feature_bits(case_graph, "CVE-2021-38000", case_org, config)
    assert bits["origin_match"] == 0
    assert bits["sector_focus"] == 1


def test_epss_gate_threshold_is_inclusive(case_graph, case_org):
    bits = feature_bits(case_graph, "CVE-2021-38000", case_org, APT)
    assert bits["epss_gate"] == 1  # probability exactly 0.876


def test_risk_appetite_gates_percentile(case_graph, case_org):
    # percentile 0.94 fails a 5-point appetite (needs >= 95th percentile)
    strict = replace(APT, risk_appetite=5)
    assert feature_bits(case_graph, "CVE-2021-38000", case_org, strict)["epss_gate"] == 0
    lenient = replace(APT, risk_appetite=6)
    assert feature_bits(case_graph, "CVE-2021-38000", case_org, lenient)["epss_gate"] == 1


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
                replace(GENERAL, skill_level=SkillLevel.LOW))
    assert high.feature_bits["skill_match"] == 1 and low.feature_bits["skill_match"] == 0
    changed = {name for name in high.feature_bits
               if high.feature_bits[name] != low.feature_bits[name]}
    assert changed == {"skill_match"}
    assert high.score - low.score == 1


def test_general_threat_failure_impact_bit():
    graph = _mini_graph(impacts=(TechnicalImpact.READ_DATA,))
    bits = feature_bits(graph, "CVE-2021-10000", MINI_ORG, GENERAL)
    assert bits["failure_impact"] == 0
    graph = _mini_graph(impacts=(TechnicalImpact.GAIN_PRIVILEGES,))
    bits = feature_bits(graph, "CVE-2021-10000", MINI_ORG, GENERAL)
    assert bits["failure_impact"] == 1


def test_ideal_exploit_bit_variants(case_graph, case_org):
    bits = feature_bits(case_graph, "CVE-2021-38000", case_org, APT)
    assert bits["exploit_known"] == 1  # KEV entry
    bits = feature_bits(case_graph, "CVE-2021-37966", case_org, APT)
    assert bits["exploit_known"] == 0  # in neither catalog


def test_ideal_exploitdb_only_counts():
    graph = _mini_graph(in_exploitdb=True, in_kev=False)
    bits = feature_bits(graph, "CVE-2021-10000", MINI_ORG, APT)
    assert bits["exploit_known"] == 1


def test_ideal_equals_threat_policy_when_bits_agree():
    # exploit evidence present and EPSS above threshold: bit values match,
    # so the two policies coincide on the whole cohort
    ideal = replace(APT, policy=Policy.IDEAL, ideal_mode=IdealMode.APT)
    graph = _mini_graph(in_kev=True, epss=0.95)
    assert _item(graph, "CVE-2021-10000", MINI_ORG, APT).score == \
        _item(graph, "CVE-2021-10000", MINI_ORG, ideal).score
    graph = _mini_graph(in_kev=False, epss=0.01)
    assert _item(graph, "CVE-2021-10000", MINI_ORG, APT).score == \
        _item(graph, "CVE-2021-10000", MINI_ORG, ideal).score


def test_policy_bit_tuples():
    # the ideal drops the EPSS gate and appends exploit evidence last
    assert policy_bits(replace(APT, policy=Policy.CVSS_BASE)) == ()
    assert policy_bits(APT) == APT_BITS
    assert policy_bits(GENERAL) == GENERAL_BITS
    assert policy_bits(replace(APT, policy=Policy.IDEAL, ideal_mode=IdealMode.APT)) == (
        "av_network", "sector_focus", "targets_country", "origin_match",
        "affects_software", "exploit_known")
    assert policy_bits(replace(GENERAL, policy=Policy.IDEAL)) == (
        "av_network", "skill_match", "technique_link", "failure_impact",
        "affects_software", "exploit_known")


# ---------------------------------------------------------------------------
# Ranking
# ---------------------------------------------------------------------------


def _case_rankings(case_graph, case_org, case_config):
    cohort = generate_candidates(case_org, case_graph, case_config.date_range)[0]
    apt = case_config.apt_config
    table = feature_table(case_graph, cohort, case_org, apt)
    threat = rank(cohort, apt, table)
    cvss = rank(cohort, replace(apt, policy=Policy.CVSS_BASE), table)
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
    for policy in Policy:
        config = replace(APT, policy=policy)
        ranked = rank(cohort, config, feature_table(graph, cohort, MINI_ORG, config))
        assert [i.rank for i in ranked.items] == [1]


def test_cvss_ranking_carries_no_bits_and_skips_the_walk(case_graph, case_org, case_config):
    cohort = generate_candidates(case_org, case_graph, case_config.date_range)[0]
    cvss = replace(case_config.apt_config, policy=Policy.CVSS_BASE)
    table = feature_table(case_graph, cohort, case_org, cvss)
    assert all(row.bits == {} for row in table.values())
    assert all(item.feature_bits == {} for item in rank(cohort, cvss, table).items)


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


@given(st.lists(st.floats(0.1, 10, allow_nan=False), min_size=1, max_size=30),
       st.floats(0.001, 1000, allow_nan=False))
@settings(max_examples=100)
def test_positive_scaling_preserves_order(scores, factor):
    base = [(f"CVE-2020-{10000 + i}", s) for i, s in enumerate(scores)]
    scaled = [(cve, s * factor) for cve, s in base]
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
    row = feature_table(case_graph, cohort, case_org, case_config.apt_config)["CVE-2021-38000"]
    assert row.cvss_base == 6.1
    # CWE-601 -> CAPEC-194 (Medium skill) -> T1566 (Phishing) -> G0901, a
    # China-origin group focused on Education and targeting the US.  G0903
    # also employs T1566; it carries no sector or country edges, so it is
    # reached without contributing bits.  KEV and ExploitDB both list it.
    assert row.bits == {
        "av_network": 1, "sector_focus": 1, "targets_country": 1, "origin_match": 1,
        "skill_match": 0, "technique_link": 1, "failure_impact": 1,
        "epss_gate": 1, "exploit_known": 1, "affects_software": 1,
    }


def test_feature_record_marks_absent_fields():
    graph = _mini_graph(cwe_chain=False, epss=None)
    bits = feature_bits(graph, "CVE-2021-10000", MINI_ORG, APT)
    # no weakness chain: no path bits; no EPSS row: the gate stays shut
    assert bits == {
        "av_network": 1, "sector_focus": 0, "targets_country": 0, "origin_match": 0,
        "skill_match": 0, "technique_link": 0, "failure_impact": 0,
        "epss_gate": 0, "exploit_known": 0, "affects_software": 1,
    }
