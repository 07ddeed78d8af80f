"""Ranking evaluation: nDCG against the ideal policy, patch costs, t-tests.

Gains are the ideal-policy relevance scores: a policy's DCG discounts
those gains in the policy's own order, and iDCG discounts them in
descending order, which is exactly the ideal ranking's order.  The ideal
ranking therefore always evaluates to 1.0.

Patch effort uses the established non-monetary units per severity band
(Low 0.25, Medium 1, High 1.5, Critical 3) summed over the top-k items.

The report is computed from each organization's weekly cohorts and
feature table, which the caller reads from the graph; this module reads no
graph.  All computations are pure; report emission iterates in a fixed
order so regenerated CSVs are byte-identical.
"""

from __future__ import annotations

import math
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import write_csv
from .ranking import (FAMILIES, Family, FeatureRow, Policy, PolicyConfig, RankedList,
                      WeeklyCohort, rank)
from .stats import TTestResult, paired_t_test


class Severity(Enum):
    NONE = "None"
    LOW = "Low"
    MEDIUM = "Medium"
    HIGH = "High"
    CRITICAL = "Critical"


# Units of patching effort per severity band.  Bands follow the CVSS v3.x
# qualitative scale: Low [0.1, 3.9], Medium [4.0, 6.9], High [7.0, 8.9],
# Critical [9.0, 10.0].
PATCH_UNITS = {
    Severity.NONE: 0.0,
    Severity.LOW: 0.25,
    Severity.MEDIUM: 1.0,
    Severity.HIGH: 1.5,
    Severity.CRITICAL: 3.0,
}
# Patch costs sum the top COST_K items of each weekly ranking.
COST_K = 20
K_MAX = 100  # nDCG@K curves run for K in 1..K_MAX


def severity_band(cvss: float) -> Severity:
    """Qualitative severity of a CVSS base score (one-decimal granularity)."""
    if not 0.0 <= cvss <= 10.0:
        raise ValueError(f"CVSS score outside [0,10]: {cvss}")
    tenths = round(cvss * 10)
    if tenths == 0:
        return Severity.NONE
    if tenths <= 39:
        return Severity.LOW
    if tenths <= 69:
        return Severity.MEDIUM
    if tenths <= 89:
        return Severity.HIGH
    return Severity.CRITICAL


def patch_cost(ranked: RankedList, k: int, cvss_of: Mapping[str, float]) -> float:
    """Patching effort for the top min(k, n) items of a ranking."""
    if k < 1:
        raise ValueError(f"k must be positive: {k}")
    total = 0.0
    for item in ranked.items[:k]:
        total += PATCH_UNITS[severity_band(cvss_of[item.cve_id])]
    return total


def annualized_cost(weekly_costs: Mapping[tuple[int, int], float], year: int) -> float:
    """Sum of weekly patch costs whose ISO year matches; 0.0 for empty years."""
    return sum(cost for (iso_year, _week), cost in weekly_costs.items() if iso_year == year)


# ---------------------------------------------------------------------------
# nDCG
# ---------------------------------------------------------------------------


def ndcg_at_k(policy_list: RankedList, ideal_list: RankedList, k: int) -> list[float]:
    """nDCG@1..k of a policy's ordering, judged by ideal-policy relevance.

    Entry ``j - 1`` is nDCG@j.  Both rankings must cover the same cohort.
    Each item's gain is its relevance under the ideal policy; iDCG
    discounts those gains in the ideal ranking's own (descending) order.
    One pass keeps running DCG and iDCG prefixes (the cumulative-gain form
    of Järvelin & Kekäläinen, 2002).  A zero iDCG (empty cohort or all-zero
    gains: no ordering can do better) scores 1.0, and cutoffs past the
    cohort repeat the full-length value.
    """
    if k < 1:
        raise ValueError(f"k must be positive: {k}")
    ideal_relevance = ideal_list.score_of()
    if {item.cve_id for item in policy_list.items} != ideal_relevance.keys():
        raise ValueError("policy and ideal rankings cover different cohorts")
    curve: list[float] = []
    dcg = idcg = 0.0
    for i, (item, ideal) in enumerate(zip(policy_list.items[:k], ideal_list.items), start=1):
        discount = math.log2(i + 1)
        dcg += (2.0 ** ideal_relevance[item.cve_id] - 1.0) / discount
        idcg += (2.0 ** ideal.score - 1.0) / discount
        curve.append(dcg / idcg if idcg > 0 else 1.0)
    return curve + [curve[-1] if curve else 1.0] * (k - len(curve))


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------


class EvaluationReport(NamedTuple):
    """Aggregated evaluation rows, ready for CSV emission."""

    # (org, policy label, year, k) -> (mean ndcg, observation count)
    ndcg_rows: list[tuple[str, str, int, int, float, int]]
    # (org, policy, year, cost units)
    cost_rows: list[tuple[str, str, int, float]]
    # (org, policy_a, policy_b, result)
    ttest_rows: list[tuple[str, str, str, TTestResult]]

    def write_csvs(self, out_dir: str | Path) -> dict[str, Path]:
        tables = (
            ("ndcg_by_k", ["org", "policy", "year", "k", "mean_ndcg", "n_observations"],
             ([org, policy, year, k, f"{mean_ndcg:.6f}", n]
              for org, policy, year, k, mean_ndcg, n in self.ndcg_rows)),
            ("cost", ["org", "policy", "year", "cost_units"],
             ([org, policy, year, f"{cost:.2f}"] for org, policy, year, cost in self.cost_rows)),
            ("ttest", ["org", "policy_a", "policy_b", "n", "t", "df", "p_one", "p_two"],
             ([org, policy_a, policy_b, result.n, repr(result.t), result.df,
               repr(result.p_one_sided), repr(result.p_two_sided)]
              for org, policy_a, policy_b, result in self.ttest_rows)),
        )
        paths = {}
        for name, header, rows in tables:
            paths[name] = Path(out_dir, f"{name}.csv")
            write_csv(paths[name], header, rows)
        return paths


def generate_report(
    orgs: Iterable[tuple[str, Sequence[WeeklyCohort], Mapping[str, FeatureRow]]],
    policies: Mapping[Family, PolicyConfig],
) -> EvaluationReport:
    """Evaluate every organization from its ``(org_id, cohorts, table)`` rows.

    ``cohorts`` are the org's weekly cohorts in week order, and ``table``
    holds a feature row for each of their candidates, as the org's
    ``feature_table`` does; no graph is read.

    Emits per-policy nDCG@K curves for K in 1..K_MAX (cohorts shorter than
    K contribute their truncated nDCG), annualized top-``COST_K`` patch
    costs, and a paired t-test of each threat policy against the CVSS-base
    ranking on the weekly nDCG@k series.  Degenerate series (fewer than two
    weeks or zero variance) emit no t-test row.

    One feature table per organization ranks its cohorts into one list per
    policy, in cohort order, and a costed policy's weekly costs are taken
    as its list is made.  A policy is judged against the ideal list of its
    own feature family, labelled ``policy:family``, in ``policies`` order,
    so CVSS base, ranked and costed once per cohort under the APT family's
    settings, gets one curve per family.
    """
    ndcg_rows, cost_rows, ttest_rows = [], [], []
    for org_id, cohorts, table in orgs:
        if not cohorts:
            continue
        years = sorted({cohort.iso_week[0] for cohort in cohorts})
        cvss_of = {cve: row.cvss_base or 0.0 for cve, row in table.items()}

        def ranked(policy: Policy, config: PolicyConfig) -> list[RankedList]:
            """One list per cohort; a costed policy adds its annualized costs."""
            lists = [rank(cohort, policy, config, table) for cohort in cohorts]
            if policy is not Policy.IDEAL:
                weekly = {week.iso_week: patch_cost(week, COST_K, cvss_of) for week in lists}
                cost_rows.extend((org_id, policy.value, year, annualized_cost(weekly, year))
                                 for year in years)
            return lists

        cvss = ranked(Policy.CVSS_BASE, policies[Family.APT])
        for config in policies.values():
            threat = FAMILIES[config.family][0]
            ideal = ranked(Policy.IDEAL, config)
            # (policy:family label, one nDCG curve per cohort), CVSS base first.
            # A curve runs to K_MAX, or on to k but not past its cohort: every
            # entry past the cohort would repeat its full-length value.
            labelled = [(f"{policy.value}:{config.family.value}",
                         [ndcg_at_k(week, best, max(K_MAX, min(config.k, len(week.items))))
                          for week, best in zip(lists, ideal)])
                        for policy, lists in ((Policy.CVSS_BASE, cvss),
                                              (threat, ranked(threat, config)))]
            # nDCG@K curves, averaged per ISO year in cohort order.
            for label, curves in labelled:
                for year in years:
                    year_curves = [curve for curve, cohort in zip(curves, cohorts)
                                   if cohort.iso_week[0] == year]
                    for k in range(1, K_MAX + 1):
                        values = [curve[k - 1] for curve in year_curves]
                        ndcg_rows.append((org_id, label, year, k,
                                          sum(values) / len(values), len(values)))

            # Paired t-test on the weekly nDCG@k series over the whole range;
            # a curve shorter than k ends at its cohort's full-length value.
            try:
                result = paired_t_test(*[[curve[min(config.k, len(curve)) - 1]
                                          for curve in curves]
                                         for _label, curves in labelled])
            except ValueError:
                continue
            ttest_rows.append((org_id, labelled[0][0], labelled[1][0], result))
    return EvaluationReport(ndcg_rows, cost_rows, ttest_rows)
