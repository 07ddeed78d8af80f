"""Ranking evaluation: nDCG against the ideal policy, patch costs, t-tests.

Gains are the ideal-policy relevance scores: a policy's DCG discounts
those gains in the policy's own order, and iDCG discounts them in
descending order, which is exactly the ideal ranking's order.  The ideal
ranking therefore always evaluates to 1.0.

Patch effort uses the established non-monetary units per severity band
(Low 0.25, Medium 1, High 1.5, Critical 3) summed over the top-k items.

All computations are pure; report emission iterates in a fixed order so
regenerated CSVs are byte-identical.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from datetime import date
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping

from .kgraph import PropertyGraph
from .ranking import (
    IdealMode,
    OrgContext,
    Policy,
    PolicyConfig,
    RankedList,
    feature_table,
    generate_candidates,
    rank,
)
from .stats import TTestResult, paired_t_test


class Severity(Enum):
    NONE = "None"
    LOW = "Low"
    MEDIUM = "Medium"
    HIGH = "High"
    CRITICAL = "Critical"


@dataclass(frozen=True)
class CostModel:
    """Units of patching effort per severity band.

    Bands follow the CVSS v3.x qualitative scale: Low [0.1, 3.9],
    Medium [4.0, 6.9], High [7.0, 8.9], Critical [9.0, 10.0].
    """

    units: Mapping[Severity, float] = field(default_factory=lambda: {
        Severity.NONE: 0.0,
        Severity.LOW: 0.25,
        Severity.MEDIUM: 1.0,
        Severity.HIGH: 1.5,
        Severity.CRITICAL: 3.0,
    })


DEFAULT_COST_MODEL = CostModel()


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


def patch_cost(
    ranked: RankedList,
    k: int,
    cvss_of: Mapping[str, float],
    model: CostModel = DEFAULT_COST_MODEL,
) -> float:
    """Patching effort for the top min(k, n) items of a ranking."""
    if k < 1:
        raise ValueError(f"k must be positive: {k}")
    total = 0.0
    for item in ranked.items[:k]:
        total += model.units[severity_band(cvss_of[item.cve_id])]
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


def policy_label(policy: Policy, mode: IdealMode) -> str:
    return f"{policy.value}:{mode.value}"


@dataclass
class EvaluationReport:
    """Aggregated evaluation rows, ready for CSV emission."""

    # (org, policy label, year, k) -> (mean ndcg, observation count)
    ndcg_rows: list[tuple[str, str, int, int, float, int]] = field(default_factory=list)
    # (org, policy, year, cost units)
    cost_rows: list[tuple[str, str, int, float]] = field(default_factory=list)
    # (org, policy_a, policy_b, result)
    ttest_rows: list[tuple[str, str, str, TTestResult]] = field(default_factory=list)

    def write_csvs(self, out_dir: str | Path) -> dict[str, Path]:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        paths = {
            "ndcg_by_k": out_dir / "ndcg_by_k.csv",
            "cost": out_dir / "cost.csv",
            "ttest": out_dir / "ttest.csv",
        }
        with paths["ndcg_by_k"].open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["org", "policy", "year", "k", "mean_ndcg", "n_observations"])
            for org, policy, year, k, mean_ndcg, n in self.ndcg_rows:
                writer.writerow([org, policy, year, k, f"{mean_ndcg:.6f}", n])
        with paths["cost"].open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["org", "policy", "year", "cost_units"])
            for org, policy, year, cost in self.cost_rows:
                writer.writerow([org, policy, year, f"{cost:.2f}"])
        with paths["ttest"].open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["org", "policy_a", "policy_b", "n", "t", "df", "p_one", "p_two"])
            for org, policy_a, policy_b, result in self.ttest_rows:
                writer.writerow([
                    org, policy_a, policy_b, result.n,
                    repr(result.t), result.df,
                    repr(result.p_one_sided), repr(result.p_two_sided),
                ])
        return paths


def generate_report(
    graph: PropertyGraph,
    orgs: Iterable[OrgContext],
    date_range: tuple[date, date],
    apt_config: PolicyConfig,
    general_config: PolicyConfig,
    k_max: int = 100,
    cost_k: int = 20,
) -> EvaluationReport:
    """Evaluate every organization over the date range.

    Emits per-policy nDCG@K curves for K in 1..k_max (cohorts shorter than
    K contribute their truncated nDCG), annualized top-``cost_k`` patch
    costs, and a paired t-test of each threat policy against the CVSS-base
    ranking on the weekly nDCG@k series.  Degenerate series (fewer than two
    weeks or zero variance) emit no t-test row.

    A policy is judged against the ideal ranking of its own feature family,
    so CVSS base, ranked and costed once per cohort, gets one curve per
    family; one feature table per (cohort, family) ranks its ideal and its
    threat policy.
    """
    report = EvaluationReport()
    cvss_config = replace(apt_config, policy=Policy.CVSS_BASE)
    families = ((apt_config, Policy.APT_THREAT, IdealMode.APT),
                (general_config, Policy.GENERAL_THREAT, IdealMode.GENERAL))
    for org in orgs:
        cohorts = generate_candidates(org, graph, date_range)
        if not cohorts:
            continue
        years = sorted({cohort.iso_week[0] for cohort in cohorts})
        # (family, policy) -> one nDCG curve per cohort; policy -> ISO week -> cost.
        curves: dict[tuple[IdealMode, Policy], list[list[float]]] = {
            (mode, policy): [] for _, threat, mode in families
            for policy in (Policy.CVSS_BASE, threat)}
        weekly_costs: dict[Policy, dict[tuple[int, int], float]] = {
            policy: {} for policy in (Policy.CVSS_BASE, Policy.APT_THREAT, Policy.GENERAL_THREAT)}
        for cohort in cohorts:
            table = feature_table(graph, cohort, org, cvss_config)  # CVSS only: no path walk
            cvss = rank(cohort, cvss_config, table)
            cvss_of = {cve: row.cvss_base or 0.0 for cve, row in table.items()}
            weekly_costs[Policy.CVSS_BASE][cohort.iso_week] = patch_cost(cvss, cost_k, cvss_of)
            for base, threat, mode in families:
                ideal_config = replace(base, policy=Policy.IDEAL, ideal_mode=mode)
                table = feature_table(graph, cohort, org, ideal_config)
                ideal = rank(cohort, ideal_config, table)
                ranked = rank(cohort, replace(ideal_config, policy=threat), table)
                depth = max(k_max, base.k)
                curves[mode, Policy.CVSS_BASE].append(ndcg_at_k(cvss, ideal, depth))
                curves[mode, threat].append(ndcg_at_k(ranked, ideal, depth))
                weekly_costs[threat][cohort.iso_week] = patch_cost(ranked, cost_k, cvss_of)

        for base, threat, mode in families:
            # nDCG@K curves, averaged per ISO year in cohort order.
            for policy in (Policy.CVSS_BASE, threat):
                label = policy_label(policy, mode)
                for year in years:
                    year_curves = [curve for curve, cohort in zip(curves[mode, policy], cohorts)
                                   if cohort.iso_week[0] == year]
                    for k in range(1, k_max + 1):
                        values = [curve[k - 1] for curve in year_curves]
                        report.ndcg_rows.append(
                            (org.org_id, label, year, k, sum(values) / len(values), len(values)))

            # Paired t-test on the weekly nDCG@k series over the whole range.
            try:
                result = paired_t_test(
                    [curve[base.k - 1] for curve in curves[mode, Policy.CVSS_BASE]],
                    [curve[base.k - 1] for curve in curves[mode, threat]])
            except ValueError:
                continue
            report.ttest_rows.append((org.org_id, policy_label(Policy.CVSS_BASE, mode),
                                      policy_label(threat, mode), result))

        # Annualized patch costs of the top cost_k items.
        for policy, weekly in weekly_costs.items():
            for year in years:
                report.cost_rows.append(
                    (org.org_id, policy.value, year, annualized_cost(weekly, year)))
    return report
