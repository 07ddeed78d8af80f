from __future__ import annotations

import itertools
from dataclasses import replace
from statistics import fmean

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threatrank.evaluation import (
    DEFAULT_COST_MODEL,
    Severity,
    annualized_cost,
    dcg_at_k,
    generate_report,
    ndcg_at_k,
    ndcg_from_gains,
    patch_cost,
    severity_band,
    weekly_average_ndcg,
)
from threatrank.ranking import Policy, RankedItem, RankedList

# Frozen by an independent high-precision evaluation of the gain formula.
DCG_3_2_AT_2 = 8.892789260714373
# Frozen by brute force over all six permutations of the gains [6, 2, 1];
# the ascending presentation is the permutation minimum.
NDCG_ASCENDING_126 = 0.5259416160334413


def _ranked(policy, week, scored):
    items = tuple(RankedItem(cve_id=c, score=s, rank=i + 1)
                  for i, (c, s) in enumerate(scored))
    return RankedList(org_id="X", policy=policy, iso_week=week, items=items)


# ---------------------------------------------------------------------------
# DCG / nDCG
# ---------------------------------------------------------------------------


def test_dcg_examples():
    assert dcg_at_k([3], 1) == pytest.approx(7.0, abs=1e-12)
    assert dcg_at_k([3, 2], 2) == pytest.approx(DCG_3_2_AT_2, abs=1e-12)
    assert dcg_at_k([0, 0, 0], 5) == 0.0


def test_dcg_truncates_at_k_and_length():
    assert dcg_at_k([3, 2], 1) == pytest.approx(7.0, abs=1e-12)
    assert dcg_at_k([3], 10) == pytest.approx(7.0, abs=1e-12)


def test_dcg_rejects_nonpositive_k():
    with pytest.raises(ValueError):
        dcg_at_k([1, 2], 0)


def test_ndcg_identical_order_is_one():
    ideal = _ranked(Policy.IDEAL, (2021, 1), [("a", 6), ("b", 2), ("c", 1)])
    policy = _ranked(Policy.APT_THREAT, (2021, 1), [("a", 6), ("b", 2), ("c", 1)])
    assert ndcg_at_k(policy, ideal, 3).ndcg == pytest.approx(1.0, abs=1e-15)


def test_ndcg_ascending_example():
    ideal = _ranked(Policy.IDEAL, (2021, 1), [("c", 6), ("b", 2), ("a", 1)])
    policy = _ranked(Policy.CVSS_BASE, (2021, 1), [("a", 9.8), ("b", 5.0), ("c", 0.1)])
    result = ndcg_at_k(policy, ideal, 3)
    assert result.ndcg == pytest.approx(NDCG_ASCENDING_126, abs=1e-12)
    assert result.idcg > result.dcg


def test_ndcg_empty_cohort_is_one_by_convention():
    ideal = _ranked(Policy.IDEAL, (2021, 1), [])
    policy = _ranked(Policy.CVSS_BASE, (2021, 1), [])
    assert ndcg_at_k(policy, ideal, 20).ndcg == 1.0


def test_ndcg_all_zero_gains_is_one():
    ideal = _ranked(Policy.IDEAL, (2021, 1), [("a", 0), ("b", 0)])
    policy = _ranked(Policy.CVSS_BASE, (2021, 1), [("b", 1.0), ("a", 0.5)])
    assert ndcg_at_k(policy, ideal, 2).ndcg == 1.0


def test_ndcg_rejects_mismatched_cohorts():
    ideal = _ranked(Policy.IDEAL, (2021, 1), [("a", 6)])
    policy = _ranked(Policy.CVSS_BASE, (2021, 1), [("b", 5.0)])
    with pytest.raises(ValueError):
        ndcg_at_k(policy, ideal, 1)


@given(st.lists(st.integers(0, 6), min_size=1, max_size=12),
       st.integers(1, 12))
@settings(max_examples=200)
def test_ndcg_bounds_and_ideal_order(gains, k):
    value = ndcg_from_gains(gains, k)
    assert 0.0 <= value <= 1.0 + 1e-12
    assert ndcg_from_gains(sorted(gains, reverse=True), k) == pytest.approx(1.0, abs=1e-12)


@given(st.lists(st.integers(0, 6), min_size=1, max_size=6))
@settings(max_examples=100)
def test_descending_order_is_permutation_maximal(gains):
    # brute force over every permutation; the sorted order attains the max
    best = max(dcg_at_k(list(p), len(gains))
               for p in itertools.permutations(gains))
    assert dcg_at_k(sorted(gains, reverse=True), len(gains)) == \
        pytest.approx(best, abs=1e-12)


@given(st.lists(st.integers(0, 6), min_size=1, max_size=10), st.data())
@settings(max_examples=150)
def test_dcg_monotone_in_gains(gains, data):
    index = data.draw(st.integers(0, len(gains) - 1))
    raised = list(gains)
    raised[index] += 1
    assert dcg_at_k(raised, len(gains)) >= dcg_at_k(gains, len(gains))


def test_weekly_average():
    assert weekly_average_ndcg([1.0, 1.0]) == 1.0
    assert weekly_average_ndcg([0.8, 1.0]) == pytest.approx(0.9, abs=1e-15)
    weeks = [0.4, 0.55, 0.62, 0.71, 0.78, 0.81, 0.86, 0.9, 0.95, 1.0]
    assert weekly_average_ndcg(weeks) == pytest.approx(fmean(weeks), abs=1e-12)
    with pytest.raises(ValueError):
        weekly_average_ndcg([])


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
    assert DEFAULT_COST_MODEL.units[severity] == units


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


def test_report_row_counts_on_case_fixture(case_graph, case_org, case_config):
    report = generate_report(case_graph, [case_org], case_config.date_range,
                             case_config.apt_config, case_config.general_config)
    # four evaluated (policy, ideal-mode) pairs x one year x K in 1..100
    assert len(report.ndcg_rows) == 4 * 100
    labels = {row[1] for row in report.ndcg_rows}
    assert labels == {"cvss_base:apt", "apt_threat:apt",
                      "cvss_base:general", "general_threat:general"}
    assert len(report.cost_rows) == 3
    # a single week cannot support a paired t-test; rows are omitted
    assert report.ttest_rows == []


def test_report_rows_match_direct_ndcg(case_graph, case_org, case_config):
    from threatrank.ranking import IdealMode, feature_table, generate_candidates, rank

    report = generate_report(case_graph, [case_org], case_config.date_range,
                             case_config.apt_config, case_config.general_config)
    by_key = {(row[1], row[3]): row[4] for row in report.ndcg_rows}

    cohort = generate_candidates(case_org, case_graph, case_config.date_range)[0]
    apt = case_config.apt_config
    table = feature_table(case_graph, cohort, case_org, apt)
    ideal = rank(cohort, replace(apt, policy=Policy.IDEAL, ideal_mode=IdealMode.APT), table)
    threat = rank(cohort, apt, table)
    cvss = rank(cohort, replace(apt, policy=Policy.CVSS_BASE), table)
    for k in (1, 5, 20, 100):
        assert by_key[("apt_threat:apt", k)] == \
            pytest.approx(ndcg_at_k(threat, ideal, k).ndcg, abs=1e-9)
        assert by_key[("cvss_base:apt", k)] == \
            pytest.approx(ndcg_at_k(cvss, ideal, k).ndcg, abs=1e-9)
    assert by_key[("cvss_base:apt", 20)] < by_key[("apt_threat:apt", 20)]


def test_report_empty_when_no_cohorts(case_graph, case_org, case_config):
    from datetime import date

    report = generate_report(case_graph, [case_org], (date(1999, 1, 1), date(1999, 12, 31)),
                             case_config.apt_config, case_config.general_config)
    assert report.ndcg_rows == [] and report.cost_rows == [] and report.ttest_rows == []


def test_report_csvs_are_deterministic(tmp_path, case_graph, case_org, case_config):
    report = generate_report(case_graph, [case_org], case_config.date_range,
                             case_config.apt_config, case_config.general_config)
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

    report = generate_report(case_graph, [case_org], case_config.date_range,
                             case_config.apt_config, case_config.general_config)
    cohort = generate_candidates(case_org, case_graph, case_config.date_range)[0]
    cvss = replace(case_config.apt_config, policy=Policy.CVSS_BASE)
    ranked = rank(cohort, cvss, feature_table(case_graph, cohort, case_org, cvss))
    cvss_of = {n.key: n.props["cvss_base"]
               for n in case_graph.nodes_with_label(NodeLabel.NVD_CVE)}
    expected = patch_cost(ranked, 20, cvss_of)
    row = next(r for r in report.cost_rows if r[1] == "cvss_base")
    assert row[3] == pytest.approx(expected, abs=1e-12)


def test_report_ttests_on_synthetic_corpus(synth_graph, synth_config):
    from threatrank.ranking import OrgContext

    org = OrgContext.from_graph(synth_graph, "SYNTHU")
    report = generate_report(synth_graph, [org], synth_config.date_range,
                             synth_config.apt_config, synth_config.general_config,
                             k_max=20)
    assert len(report.ttest_rows) == 2
    for _org, policy_a, policy_b, result in report.ttest_rows:
        assert policy_a.startswith("cvss_base")
        assert result.p_two_sided < 1e-6
        assert result.mean_diff < 0  # threat policies dominate the baseline
