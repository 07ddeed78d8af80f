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
from typing import Iterable, Mapping, Sequence

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


def dcg_at_k(gains: Sequence[float], k: int) -> float:
    """Discounted cumulative gain over the first min(k, len) positions."""
    if k < 1:
        raise ValueError(f"k must be positive: {k}")
    total = 0.0
    for i, gain in enumerate(gains[:k], start=1):
        total += (2.0 ** gain - 1.0) / math.log2(i + 1)
    return total


def ndcg_from_gains(gains: Sequence[float], k: int) -> float:
    """nDCG of a gain sequence against its own descending-order ideal.

    Defined as 1.0 when the ideal DCG is zero (empty cohort or all-zero
    gains: no ordering can do better).
    """
    dcg = dcg_at_k(gains, k)
    idcg = dcg_at_k(sorted(gains, reverse=True), k)
    return dcg / idcg if idcg > 0 else 1.0


@dataclass(frozen=True)
class NdcgResult:
    k: int
    dcg: float
    idcg: float
    ndcg: float


def ndcg_at_k(policy_list: RankedList, ideal_list: RankedList, k: int) -> NdcgResult:
    """nDCG of a policy's ordering, judged by ideal-policy relevance.

    Both rankings must cover the same cohort.  Each item's gain is its
    relevance under the ideal policy; iDCG discounts those gains in the
    ideal ranking's own (descending) order.
    """
    ideal_relevance = ideal_list.score_of()
    policy_cves = [item.cve_id for item in policy_list.items]
    if set(policy_cves) != set(ideal_relevance):
        raise ValueError("policy and ideal rankings cover different cohorts")
    gains = [ideal_relevance[cve] for cve in policy_cves]
    ideal_gains = [item.score for item in ideal_list.items]
    dcg = dcg_at_k(gains, k)
    idcg = dcg_at_k(ideal_gains, k)
    return NdcgResult(k=k, dcg=dcg, idcg=idcg, ndcg=dcg / idcg if idcg > 0 else 1.0)


def weekly_average_ndcg(values: Sequence[float]) -> float:
    """Arithmetic mean of weekly nDCG values; empty input is an error."""
    if not values:
        raise ValueError("no weekly nDCG values to average")
    return sum(values) / len(values)


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------

# A policy is always evaluated against the ideal ranking that shares its
# feature family, so CVSS-base appears once per ideal mode.
EVALUATED_PAIRS: tuple[tuple[Policy, IdealMode], ...] = (
    (Policy.CVSS_BASE, IdealMode.APT),
    (Policy.APT_THREAT, IdealMode.APT),
    (Policy.CVSS_BASE, IdealMode.GENERAL),
    (Policy.GENERAL_THREAT, IdealMode.GENERAL),
)

COST_POLICIES: tuple[Policy, ...] = (
    Policy.CVSS_BASE, Policy.APT_THREAT, Policy.GENERAL_THREAT,
)


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


def _config_for(base: PolicyConfig, policy: Policy, mode: IdealMode) -> PolicyConfig:
    return replace(base, policy=policy, ideal_mode=mode)


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
    """
    report = EvaluationReport()
    base_by_mode = {IdealMode.APT: apt_config, IdealMode.GENERAL: general_config}
    threat_by_mode = {IdealMode.APT: Policy.APT_THREAT, IdealMode.GENERAL: Policy.GENERAL_THREAT}
    ideal_configs = {mode: _config_for(base, Policy.IDEAL, mode)
                     for mode, base in base_by_mode.items()}
    threat_configs = {mode: _config_for(base_by_mode[mode], policy, mode)
                      for mode, policy in threat_by_mode.items()}
    cvss_config = _config_for(apt_config, Policy.CVSS_BASE, IdealMode.APT)
    for org in orgs:
        cohorts = generate_candidates(org, graph, date_range)
        if not cohorts:
            continue
        rankings: dict[tuple[Policy, IdealMode], list[RankedList]] = {
            pair: [] for pair in EVALUATED_PAIRS}
        ideals: dict[IdealMode, list[RankedList]] = {mode: [] for mode in IdealMode}
        cvss_of: dict[str, float] = {}
        for cohort in cohorts:
            # One feature table per family ranks the threat policy and its
            # ideal.  The CVSS ranking reads only scores, which every table
            # carries, and is the same under both ideal modes.
            for mode in IdealMode:
                table = feature_table(graph, cohort, org, ideal_configs[mode])
                ideals[mode].append(rank(cohort, ideal_configs[mode], table))
                rankings[(threat_by_mode[mode], mode)].append(
                    rank(cohort, threat_configs[mode], table))
            cvss_ranked = rank(cohort, cvss_config, table)
            for mode in IdealMode:
                rankings[(Policy.CVSS_BASE, mode)].append(cvss_ranked)
            cvss_of.update((cve, row.cvss_base or 0.0) for cve, row in table.items())

        # nDCG@K curves, averaged per ISO year.
        years = sorted({week.iso_week[0] for week in cohorts})
        for policy, mode in EVALUATED_PAIRS:
            label = policy_label(policy, mode)
            for year in years:
                indices = [i for i, c in enumerate(cohorts) if c.iso_week[0] == year]
                for k in range(1, k_max + 1):
                    values = [
                        ndcg_at_k(rankings[(policy, mode)][i], ideals[mode][i], k).ndcg
                        for i in indices
                    ]
                    report.ndcg_rows.append(
                        (org.org_id, label, year, k, weekly_average_ndcg(values), len(values))
                    )

        # Annualized patch costs of the top cost_k items.
        for policy in COST_POLICIES:
            mode = IdealMode.GENERAL if policy is Policy.GENERAL_THREAT else IdealMode.APT
            weekly = {
                cohorts[i].iso_week: patch_cost(ranked, cost_k, cvss_of)
                for i, ranked in enumerate(rankings[(policy, mode)])
            }
            for year in years:
                report.cost_rows.append(
                    (org.org_id, policy.value, year, annualized_cost(weekly, year))
                )

        # Paired t-tests on the weekly nDCG@k series over the whole range.
        for threat_policy, mode in ((Policy.APT_THREAT, IdealMode.APT),
                                    (Policy.GENERAL_THREAT, IdealMode.GENERAL)):
            k = base_by_mode[mode].k
            base_series = [
                ndcg_at_k(rankings[(Policy.CVSS_BASE, mode)][i], ideals[mode][i], k).ndcg
                for i in range(len(cohorts))
            ]
            threat_series = [
                ndcg_at_k(rankings[(threat_policy, mode)][i], ideals[mode][i], k).ndcg
                for i in range(len(cohorts))
            ]
            try:
                result = paired_t_test(base_series, threat_series)
            except ValueError:
                continue
            report.ttest_rows.append((
                org.org_id,
                policy_label(Policy.CVSS_BASE, mode),
                policy_label(threat_policy, mode),
                result,
            ))
    return report
