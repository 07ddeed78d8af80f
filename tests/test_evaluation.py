from __future__ import annotations

import itertools
import math
from statistics import fmean

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import gain_rankings, org_rows
from threatrank.evaluation import (
    PATCH_UNITS,
    Severity,
    annualized_cost,
    generate_report,
    ndcg_at_k,
    patch_cost,
    severity_band,
)
from threatrank.ranking import Family, Policy, RankedItem, RankedList

# Frozen by an independent high-precision evaluation of the gain formula.
DCG_3_2_AT_2 = 8.892789260714373
# Frozen by brute force over all six permutations of the gains [6, 2, 1];
# the ascending presentation is the permutation minimum.
NDCG_ASCENDING_126 = 0.5259416160334413


def _ranked(policy, week, scored):
    items = tuple(RankedItem(cve_id=c, score=s, rank=i + 1)
                  for i, (c, s) in enumerate(scored))
    return RankedList(org_id="X", policy=policy, iso_week=week, items=items)


def _per_cutoff_ndcg(gains, j):
    """nDCG@j of ``gains`` in the given order, summed afresh for this cutoff."""
    def dcg(seq):
        return sum((2.0 ** g - 1.0) / math.log2(i + 2) for i, g in enumerate(seq[:j]))

    idcg = dcg(sorted(gains, reverse=True))
    return dcg(gains) / idcg if idcg > 0 else 1.0


# ---------------------------------------------------------------------------
# The nDCG@1..k curve
# ---------------------------------------------------------------------------


def test_dcg_examples():
    # Gains 2 then 3 against the ideal 3 then 2: (2**2 - 1) / (2**3 - 1) at
    # the first cutoff; at the second the ideal DCG is DCG_3_2_AT_2.
    curve = ndcg_at_k(*gain_rankings([2, 3]), 2)
    assert curve[0] == pytest.approx(3.0 / 7.0, abs=1e-12)
    assert curve[1] == pytest.approx((3.0 + 7.0 / math.log2(3)) / DCG_3_2_AT_2, abs=1e-12)


def test_dcg_truncates_at_k_and_length():
    assert ndcg_at_k(*gain_rankings([2, 3]), 1) == [pytest.approx(3.0 / 7.0, abs=1e-12)]
    assert ndcg_at_k(*gain_rankings([3]), 10) == [1.0] * 10
    curve = ndcg_at_k(*gain_rankings([2, 3]), 5)
    assert curve[2:] == [curve[1]] * 3  # cutoffs past the cohort repeat its full value


def test_dcg_rejects_nonpositive_k():
    with pytest.raises(ValueError):
        ndcg_at_k(*gain_rankings([1, 2]), 0)


def test_ndcg_identical_order_is_one():
    ideal = _ranked(Policy.IDEAL, (2021, 1), [("a", 6), ("b", 2), ("c", 1)])
    policy = _ranked(Policy.APT_THREAT, (2021, 1), [("a", 6), ("b", 2), ("c", 1)])
    assert ndcg_at_k(policy, ideal, 3) == pytest.approx([1.0] * 3, abs=1e-15)


def test_ndcg_ascending_example():
    ideal = _ranked(Policy.IDEAL, (2021, 1), [("c", 6), ("b", 2), ("a", 1)])
    policy = _ranked(Policy.CVSS_BASE, (2021, 1), [("a", 9.8), ("b", 5.0), ("c", 0.1)])
    curve = ndcg_at_k(policy, ideal, 3)
    assert curve[2] == pytest.approx(NDCG_ASCENDING_126, abs=1e-12)
    assert curve[2] < 1.0


def test_ndcg_empty_cohort_is_one_by_convention():
    ideal = _ranked(Policy.IDEAL, (2021, 1), [])
    policy = _ranked(Policy.CVSS_BASE, (2021, 1), [])
    assert ndcg_at_k(policy, ideal, 20) == [1.0] * 20


def test_ndcg_all_zero_gains_is_one():
    ideal = _ranked(Policy.IDEAL, (2021, 1), [("a", 0), ("b", 0)])
    policy = _ranked(Policy.CVSS_BASE, (2021, 1), [("b", 1.0), ("a", 0.5)])
    assert ndcg_at_k(policy, ideal, 2) == [1.0, 1.0]


def test_ndcg_rejects_mismatched_cohorts():
    ideal = _ranked(Policy.IDEAL, (2021, 1), [("a", 6)])
    policy = _ranked(Policy.CVSS_BASE, (2021, 1), [("b", 5.0)])
    with pytest.raises(ValueError):
        ndcg_at_k(policy, ideal, 1)


@given(st.lists(st.integers(0, 6), min_size=1, max_size=12),
       st.integers(1, 12))
@settings(max_examples=200)
def test_ndcg_bounds_and_ideal_order(gains, k):
    value = ndcg_at_k(*gain_rankings(gains), k)[k - 1]
    assert 0.0 <= value <= 1.0 + 1e-12
    descending = sorted(gains, reverse=True)
    assert ndcg_at_k(*gain_rankings(descending), k)[k - 1] == pytest.approx(1.0, abs=1e-12)


@given(st.lists(st.integers(0, 6), min_size=1, max_size=6))
@settings(max_examples=100)
def test_descending_order_is_permutation_maximal(gains):
    # brute force over every permutation; the sorted order attains the max
    n = len(gains)
    best = max(ndcg_at_k(*gain_rankings(list(p)), n)[-1]
               for p in itertools.permutations(gains))
    assert ndcg_at_k(*gain_rankings(sorted(gains, reverse=True)), n)[-1] == \
        pytest.approx(best, abs=1e-12)


@given(st.lists(st.integers(0, 6), min_size=1, max_size=10), st.integers(1, 12))
@settings(max_examples=150)
def test_dcg_monotone_in_gains(gains, k):
    # Raising the gain of the policy's top item adds 2**g to its DCG and at
    # most that to the iDCG, so no nDCG@j can drop.
    raised = [gains[0] + 1, *gains[1:]]
    before = ndcg_at_k(*gain_rankings(gains), k)
    after = ndcg_at_k(*gain_rankings(raised), k)
    assert all(a >= b - 1e-12 for a, b in zip(after, before)), (before, after)


@given(st.lists(st.integers(0, 6), max_size=12), st.integers(1, 20))
@settings(max_examples=200)
def test_ndcg_curve_matches_per_cutoff_formula(gains, k):
    curve = ndcg_at_k(*gain_rankings(gains), k)
    assert len(curve) == k
    for j, value in enumerate(curve, start=1):
        assert abs(value - _per_cutoff_ndcg(gains, j)) <= 1e-12, (j, value)


# ---------------------------------------------------------------------------
# Severity bands and patch cost
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("cvss,severity,units", [
    (0.0, Severity.NONE, 0.0),
    (0.1, Severity.LOW, 0.25),
    (3.9, Severity.LOW, 0.25),
    (4.0, Severity.MEDIUM, 1.0),
    (6.1, Severity.MEDIUM, 1.0),
    (6.9, Severity.MEDIUM, 1.0),
    (7.0, Severity.HIGH, 1.5),
    (8.9, Severity.HIGH, 1.5),
    (9.0, Severity.CRITICAL, 3.0),
    (9.8, Severity.CRITICAL, 3.0),
    (10.0, Severity.CRITICAL, 3.0),
])
def test_severity_bands(cvss, severity, units):
    assert severity_band(cvss) is severity
    assert PATCH_UNITS[severity] == units


def test_severity_band_rejects_out_of_range():
    with pytest.raises(ValueError):
        severity_band(10.1)
    with pytest.raises(ValueError):
        severity_band(-0.1)


def test_patch_cost_twenty_highs():
    scored = [(f"CVE-2021-{30000 + i}", 2.0) for i in range(20)]
    ranked = _ranked(Policy.APT_THREAT, (2021, 1), scored)
    cvss_of = {cve: 8.8 for cve, _s in scored}
    assert patch_cost(ranked, 20, cvss_of) == pytest.approx(30.0, abs=1e-12)


def test_patch_cost_truncates_to_cohort():
    scored = [("CVE-2021-30001", 2.0), ("CVE-2021-30002", 1.0)]
    ranked = _ranked(Policy.APT_THREAT, (2021, 1), scored)
    cvss_of = {"CVE-2021-30001": 9.8, "CVE-2021-30002": 6.1}
    assert patch_cost(ranked, 20, cvss_of) == pytest.approx(4.0, abs=1e-12)


@given(st.lists(st.floats(0, 10, allow_nan=False), min_size=1, max_size=30),
       st.integers(1, 30), st.integers(1, 30))
@settings(max_examples=100)
def test_patch_cost_monotone_in_k(cvss_values, k1, k2):
    scored = [(f"CVE-2021-{30000 + i}", 1.0) for i in range(len(cvss_values))]
    ranked = _ranked(Policy.APT_THREAT, (2021, 1), scored)
    cvss_of = {cve: round(v, 1) for (cve, _s), v in zip(scored, cvss_values)}
    lo, hi = sorted((k1, k2))
    assert patch_cost(ranked, lo, cvss_of) <= patch_cost(ranked, hi, cvss_of) + 1e-12


def test_annualized_cost():
    weekly = {(2021, 46): 30.0, (2021, 47): 30.0, (2022, 1): 12.0}
    assert annualized_cost(weekly, 2021) == 60.0
    assert annualized_cost(weekly, 2019) == 0.0
    assert annualized_cost({}, 2021) == 0.0


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------


def test_report_from_hand_built_rows():
    # No graph: three cohorts over two ISO years.  A row's EPSS gate is set
    # exactly when an exploit is known, so each threat policy orders its
    # cohorts as its family's ideal does, while CVSS base puts the
    # low-relevance 9.8 first.
    from threatrank.evaluation import K_MAX
    from threatrank.ranking import FIXED_BITS, FeatureRow, PolicyConfig, WeeklyCohort

    bit = {name: 1 << i for i, name in enumerate(FIXED_BITS)}
    exploited = (bit["av_network"] | bit["sector_focus"] | bit["targets_country"]
                 | bit["technique_link"] | bit["failure_impact"] | bit["exploit_known"]
                 | bit["affects_software"])

    def row(cvss, mask, known):
        return FeatureRow(cvss, mask, frozenset({"High"}), frozenset({"China"}),
                          (0.99, 0.99) if known else None)

    table = {"CVE-2020-1": row(9.8, bit["av_network"], False),
             "CVE-2020-2": row(7.5, exploited, True),
             "CVE-2020-3": row(5.0, bit["affects_software"], False),
             "CVE-2021-1": row(3.9, exploited, True),
             "CVE-2021-2": row(10.0, 0, False),
             "CVE-2021-3": row(6.1, bit["technique_link"], False)}
    cohorts = [WeeklyCohort("X", (2020, 53), ("CVE-2020-1", "CVE-2020-2", "CVE-2020-3")),
               WeeklyCohort("X", (2021, 1), ("CVE-2021-1", "CVE-2021-2")),
               WeeklyCohort("X", (2021, 2), ("CVE-2021-3",))]
    report = generate_report([("X", cohorts, table)],
                             {family: PolicyConfig(family=family) for family in Family})

    for label in ("apt_threat:apt", "general_threat:general"):
        rows = [row for row in report.ndcg_rows if row[1] == label]
        assert [(row[2], row[3]) for row in rows] == \
            [(year, k) for year in (2020, 2021) for k in range(1, K_MAX + 1)]
        assert all(row[4] == 1.0 for row in rows), label
    assert any(row[4] < 1.0 for row in report.ndcg_rows if row[1].startswith("cvss_base"))
    # Every cohort is shorter than COST_K, so each costed policy pays for all
    # of a year's CVEs: 2020 is Critical + High + Medium = 3 + 1.5 + 1, and
    # 2021 Low + Critical + Medium = 0.25 + 3 + 1.
    assert report.cost_rows == [("X", policy, year, cost)
                                for policy in ("cvss_base", "apt_threat", "general_threat")
                                for year, cost in ((2020, 5.5), (2021, 4.25))]


def test_report_row_counts_on_case_fixture(case_graph, case_org, case_config):
    report = generate_report([org_rows(case_graph, case_org, case_config.date_range)],
                             case_config.policies)
    # four evaluated (policy, ideal-mode) pairs x one year x K in 1..100
    assert len(report.ndcg_rows) == 4 * 100
    labels = {row[1] for row in report.ndcg_rows}
    assert labels == {"cvss_base:apt", "apt_threat:apt",
                      "cvss_base:general", "general_threat:general"}
    assert len(report.cost_rows) == 3
    # a single week cannot support a paired t-test; rows are omitted
    assert report.ttest_rows == []


def test_report_rows_match_direct_ndcg(case_graph, case_org, case_config):
    from threatrank.ranking import feature_table, generate_candidates, rank

    report = generate_report([org_rows(case_graph, case_org, case_config.date_range)],
                             case_config.policies)
    by_key = {(row[1], row[3]): row[4] for row in report.ndcg_rows}

    cohort = generate_candidates(case_org, case_graph, case_config.date_range)[0]
    apt = case_config.policies[Family.APT]
    table = feature_table(case_graph, cohort.cve_ids, case_org)
    ideal = rank(cohort, Policy.IDEAL, apt, table)
    threat = rank(cohort, Policy.APT_THREAT, apt, table)
    cvss = rank(cohort, Policy.CVSS_BASE, apt, table)
    threat_curve, cvss_curve = (ndcg_at_k(ranked, ideal, 100) for ranked in (threat, cvss))
    for k in (1, 5, 20, 100):
        assert by_key[("apt_threat:apt", k)] == pytest.approx(threat_curve[k - 1], abs=1e-9)
        assert by_key[("cvss_base:apt", k)] == pytest.approx(cvss_curve[k - 1], abs=1e-9)
    assert by_key[("cvss_base:apt", 20)] < by_key[("apt_threat:apt", 20)]


def test_report_empty_when_no_cohorts(case_graph, case_org, case_config):
    from datetime import date

    report = generate_report([org_rows(case_graph, case_org,
                                       (date(1999, 1, 1), date(1999, 12, 31)))],
                             case_config.policies)
    assert report.ndcg_rows == [] and report.cost_rows == [] and report.ttest_rows == []


def test_report_csvs_are_deterministic(tmp_path, case_graph, case_org, case_config):
    report = generate_report([org_rows(case_graph, case_org, case_config.date_range)],
                             case_config.policies)
    first = tmp_path / "a"
    second = tmp_path / "b"
    paths_a = report.write_csvs(first)
    paths_b = report.write_csvs(second)
    for name in paths_a:
        assert paths_a[name].read_bytes() == paths_b[name].read_bytes()
    header = (first / "ndcg_by_k.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header == "org,policy,year,k,mean_ndcg,n_observations"
    assert (first / "cost.csv").read_text(encoding="utf-8").splitlines()[0] == \
        "org,policy,year,cost_units"
    assert (first / "ttest.csv").read_text(encoding="utf-8").splitlines()[0] == \
        "org,policy_a,policy_b,n,t,df,p_one,p_two"


def test_report_cost_rows_match_direct_computation(case_graph, case_org, case_config):
    from threatrank.kgraph import NodeLabel
    from threatrank.ranking import feature_table, generate_candidates, rank

    report = generate_report([org_rows(case_graph, case_org, case_config.date_range)],
                             case_config.policies)
    cohort = generate_candidates(case_org, case_graph, case_config.date_range)[0]
    ranked = rank(cohort, Policy.CVSS_BASE, case_config.policies[Family.APT],
                  feature_table(case_graph, cohort.cve_ids, case_org))
    cvss_of = {n.key: n.props["cvss_base"]
               for n in case_graph.nodes_with_label(NodeLabel.NVD_CVE)}
    expected = patch_cost(ranked, 20, cvss_of)
    row = next(r for r in report.cost_rows if r[1] == "cvss_base")
    assert row[3] == pytest.approx(expected, abs=1e-12)


def test_report_ranks_and_costs_cvss_base_once_per_cohort(case_graph, case_org, case_config,
                                                          monkeypatch):
    from collections import Counter

    from threatrank import evaluation, ranking
    from threatrank.ranking import generate_candidates

    ranks, costs = Counter(), Counter()

    def counted_rank(cohort, policy, config, records):
        ranks[policy, config.family] += 1
        return ranking.rank(cohort, policy, config, records)

    def counted_patch_cost(ranked, k, cvss_of):
        costs[ranked.policy] += 1
        return patch_cost(ranked, k, cvss_of)

    monkeypatch.setattr(evaluation, "rank", counted_rank)
    monkeypatch.setattr(evaluation, "patch_cost", counted_patch_cost)
    generate_report([org_rows(case_graph, case_org, case_config.date_range)],
                    case_config.policies)
    cohorts = len(generate_candidates(case_org, case_graph, case_config.date_range))
    assert ranks == {(Policy.CVSS_BASE, Family.APT): cohorts,
                     (Policy.IDEAL, Family.APT): cohorts,
                     (Policy.APT_THREAT, Family.APT): cohorts,
                     (Policy.IDEAL, Family.GENERAL): cohorts,
                     (Policy.GENERAL_THREAT, Family.GENERAL): cohorts}
    assert costs == {Policy.CVSS_BASE: cohorts, Policy.APT_THREAT: cohorts,
                     Policy.GENERAL_THREAT: cohorts}


def test_report_ttests_on_synthetic_corpus(synth_graph, synth_config, monkeypatch):
    from threatrank import evaluation
    from threatrank.ranking import OrgContext

    monkeypatch.setattr(evaluation, "K_MAX", 20)
    org = OrgContext.from_graph(synth_graph, "SYNTHU")
    report = generate_report([org_rows(synth_graph, org, synth_config.date_range)],
                             synth_config.policies)
    assert len(report.ttest_rows) == 2
    for _org, policy_a, policy_b, result in report.ttest_rows:
        assert policy_a.startswith("cvss_base")
        assert result.p_two_sided < 1e-6
        assert result.mean_diff < 0  # threat policies dominate the baseline


def test_ttests_do_not_depend_on_k_max(synth_graph, synth_config, monkeypatch):
    # The policies' k (20) lies past K_MAX=5; the t-test still reads nDCG@20.
    from threatrank import evaluation
    from threatrank.ranking import OrgContext

    org = OrgContext.from_graph(synth_graph, "SYNTHU")
    args = ([org_rows(synth_graph, org, synth_config.date_range)],
            synth_config.policies)
    full = generate_report(*args)
    monkeypatch.setattr(evaluation, "K_MAX", 5)
    short = generate_report(*args)
    assert len(short.ttest_rows) == 2
    assert short.ttest_rows == full.ttest_rows
    assert short.ndcg_rows == [row for row in full.ndcg_rows if row[3] <= 5]


def test_weekly_average(synth_graph, synth_config, monkeypatch):
    # Each nDCG row is the plain mean of that year's weekly curve entries,
    # summed in cohort order.
    from threatrank import evaluation
    from threatrank.ranking import OrgContext, feature_table, generate_candidates, rank

    monkeypatch.setattr(evaluation, "K_MAX", 20)
    org = OrgContext.from_graph(synth_graph, "SYNTHU")
    report = generate_report([org_rows(synth_graph, org, synth_config.date_range)],
                             synth_config.policies)
    rows = {(row[1], row[2], row[3]): (row[4], row[5]) for row in report.ndcg_rows}
    apt = synth_config.policies[Family.APT]
    weekly: dict[int, list[list[float]]] = {}
    for cohort in generate_candidates(org, synth_graph, synth_config.date_range):
        table = feature_table(synth_graph, cohort.cve_ids, org)
        ideal = rank(cohort, Policy.IDEAL, apt, table)
        weekly.setdefault(cohort.iso_week[0], []).append(
            ndcg_at_k(rank(cohort, Policy.APT_THREAT, apt, table), ideal, 20))
    assert sum(len(curves) for curves in weekly.values()) == 52
    for year, curves in weekly.items():
        for k in (1, 10, 20):
            values = [curve[k - 1] for curve in curves]
            assert rows[("apt_threat:apt", year, k)] == (sum(values) / len(values), len(values))
            assert rows[("apt_threat:apt", year, k)][0] == pytest.approx(fmean(values), abs=1e-12)
