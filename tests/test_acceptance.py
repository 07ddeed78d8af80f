"""End-to-end acceptance checks.

Each test covers one acceptance criterion at its stated tolerance and
prints one pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).
Expected values marked as oracle constants were computed by independent
implementations (permutation brute force, numerical integration, a
standalone re-implementation of the scoring pipeline) before being frozen
here.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import time
from contextlib import contextmanager
from statistics import fmean

import pytest

from threatrank.cli import build_pipeline, load_config
from threatrank.enrich import (
    GroupAttribution,
    attribute_group,
    filter_us_targeting,
    load_lexicon,
)
from threatrank.evaluation import (
    ndcg_at_k,
    patch_cost,
    severity_band,
    Severity,
    PATCH_UNITS,
)
from threatrank.kgraph import build_graph
from threatrank.ranking import (
    FAMILIES,
    Family,
    OrgContext,
    Policy,
    PolicyConfig,
    RankedItem,
    RankedList,
    WeeklyCohort,
    feature_table,
    generate_candidates,
    order_scored,
    rank,
    score_from_bits,
)
from threatrank.stats import paired_t_test, student_t_cdf
from threatrank.feeds import AttackGroupRaw, SkillLevel, SourceKind
from tests.conftest import (
    CASE_STUDY,
    EXPECTED_CVSS_RANKS,
    EXPECTED_RELEVANCE,
    EXPECTED_THREAT_RANKS,
    SYNTHETIC,
    VOCAB,
    audit_edge_conformance,
    gain_rankings,
    org_rows,
)
from tests.randdata import random_attributions, random_bundle

# Oracle constants, frozen from pre-build runs of the independent oracles.
ORACLE_TTEST_T = -2.449489742783178
ORACLE_TTEST_P_TWO = 0.07048399691021993
ORACLE_SYNTH_CVSS_MEAN = 0.1038669200234036
ORACLE_SYNTH_THREAT_MEAN = 1.0


@contextmanager
def criterion(name: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS ({time.perf_counter() - started:.2f}s)")


# ---------------------------------------------------------------------------
# 1. Case-study week reproduction
# ---------------------------------------------------------------------------


def test_c1_case_study_reproduction():
    with criterion("criterion 1: case-study ranking reproduction"):
        started = time.perf_counter()
        config = load_config(CASE_STUDY / "config.json")
        graph, _coverage = build_pipeline(config)
        org = OrgContext.from_graph(graph, "ODU")
        cohorts = generate_candidates(org, graph, config.date_range)
        assert len(cohorts) == 1 and len(cohorts[0].cve_ids) == 39

        apt = config.policies[Family.APT]
        table = feature_table(graph, cohorts[0].cve_ids, org)
        threat = rank(cohorts[0], Policy.APT_THREAT, apt, table)
        cvss = rank(cohorts[0], Policy.CVSS_BASE, apt, table)

        threat_ranks = threat.rank_of()
        for cve, expected in EXPECTED_THREAT_RANKS.items():
            assert threat_ranks[cve] == expected, (cve, threat_ranks[cve], expected)
        scores = threat.score_of()
        for cve, expected in EXPECTED_RELEVANCE.items():
            assert scores[cve] == expected, cve

        # every pairwise severity constraint, including lexicographic ties
        cvss_ranks = cvss.rank_of()
        for cve, expected in EXPECTED_CVSS_RANKS.items():
            assert cvss_ranks[cve] == expected, (cve, cvss_ranks[cve], expected)
        listed = sorted(EXPECTED_CVSS_RANKS, key=EXPECTED_CVSS_RANKS.get)
        for earlier, later in itertools.combinations(listed, 2):
            assert cvss_ranks[earlier] < cvss_ranks[later]

        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"case-study run took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 2. nDCG against a permutation brute-force oracle
# ---------------------------------------------------------------------------


def _oracle_ndcg(gains: list[int], k: int) -> float:
    def dcg(seq):
        return sum((2.0 ** g - 1.0) / math.log2(i + 2) for i, g in enumerate(seq[:k]))

    best = max(dcg(list(p)) for p in itertools.permutations(gains))
    realized = dcg(gains)
    return realized / best if best > 0 else 1.0


def test_c2_ndcg_oracle_equivalence():
    with criterion("criterion 2: nDCG permutation-oracle equivalence"):
        started = time.perf_counter()
        rng = random.Random(271828)
        for _ in range(1000):
            gains = [rng.randint(0, 6) for _ in range(rng.randint(1, 6))]
            k = rng.randint(1, 6)
            curve = ndcg_at_k(*gain_rankings(gains), k)
            assert abs(curve[k - 1] - _oracle_ndcg(gains, k)) < 1e-12
            descending = sorted(gains, reverse=True)
            assert ndcg_at_k(*gain_rankings(descending), k)[k - 1] == \
                pytest.approx(1.0, abs=1e-12)
        # the frozen ascending example sits at the permutation minimum
        assert ndcg_at_k(*gain_rankings([1, 2, 6]), 3)[2] == \
            pytest.approx(0.5259416160334413, abs=1e-12)
        assert min(_oracle_ndcg(list(p), 3) for p in itertools.permutations([6, 2, 1])) \
            == pytest.approx(0.5259416160334413, abs=1e-12)
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"oracle comparison took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 3. Relevance range and monotonicity under fuzz
# ---------------------------------------------------------------------------


def test_c3_relevance_range_and_monotonicity():
    with criterion("criterion 3: relevance range + single-bit monotonicity"):
        started = time.perf_counter()
        bundle = random_bundle(seed=424242)
        graph = build_graph(bundle, random_attributions(17, bundle), vocab=VOCAB).freeze()
        cve_ids = [c.cve_id for c in bundle[SourceKind.CVE]]
        cpe_ids = [c.cpe_id for c in bundle[SourceKind.CPE]]
        rng = random.Random(99)

        for _ in range(10_000):
            cve_id = rng.choice(cve_ids)
            org = OrgContext(
                org_id="fuzz",
                sector=rng.choice(VOCAB.sectors),
                country=rng.choice(VOCAB.countries),
                cpe_ids=frozenset(rng.sample(cpe_ids, k=rng.randint(0, 8))),
            )
            config = PolicyConfig(
                family=Family.APT,
                origin_countries=frozenset(rng.sample(VOCAB.countries,
                                                      k=rng.randint(0, 3))),
                skill_level=rng.choice([SkillLevel.LOW, SkillLevel.HIGH]),
                epss_threshold=round(rng.random(), 3),
                risk_appetite=rng.randint(0, 100),
            )
            cohort = WeeklyCohort(org_id="fuzz", iso_week=(2021, 1), cve_ids=(cve_id,))
            table = feature_table(graph, cohort.cve_ids, org)
            for family, (threat, _bits) in FAMILIES.items():
                family_config = config._replace(family=family)
                for policy in (threat, Policy.IDEAL):
                    score = rank(cohort, policy, family_config, table).items[0].score
                    assert 1 <= score <= 6, (cve_id, score)

        # single-bit monotonicity: relevance and rank position
        names = ["b1", "b2", "b3", "b4", "b5", "b6"]
        for _ in range(1000):
            bits = {n: rng.randint(0, 1) for n in names}
            flipped = dict(bits)
            flipped[rng.choice(names)] = 1
            assert score_from_bits(flipped) >= score_from_bits(bits)

            scores = [rng.randint(1, 6) for _ in range(rng.randint(2, 25))]
            items = [(f"CVE-2020-{10000 + i}", float(s)) for i, s in enumerate(scores)]
            index = rng.randrange(len(items))
            bumped = list(items)
            bumped[index] = (items[index][0], items[index][1] + 1.0)
            before = {c: r for c, _s, r in order_scored(items)}
            after = {c: r for c, _s, r in order_scored(bumped)}
            assert after[items[index][0]] <= before[items[index][0]]

        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"fuzz took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 4. Cost model exactness
# ---------------------------------------------------------------------------


def test_c4_cost_model_exactness():
    with criterion("criterion 4: cost model exactness"):
        assert severity_band(6.1) is Severity.MEDIUM
        assert PATCH_UNITS[severity_band(6.1)] == 1.0
        assert severity_band(9.8) is Severity.CRITICAL
        assert PATCH_UNITS[severity_band(9.8)] == 3.0

        def ranked_of(cvss_values):
            items = tuple(RankedItem(cve_id=f"CVE-2021-{30000 + i}", score=1.0, rank=i + 1)
                          for i in range(len(cvss_values)))
            cvss_of = {item.cve_id: v for item, v in zip(items, cvss_values)}
            return RankedList(org_id="X", policy=Policy.APT_THREAT,
                              iso_week=(2021, 1), items=items), cvss_of

        twenty_highs, cvss_of = ranked_of([8.8] * 20)
        assert patch_cost(twenty_highs, 20, cvss_of) == 30.0

        mixed, cvss_of = ranked_of([9.8, 9.0, 8.8, 7.0, 6.9, 6.1, 4.0, 3.9, 0.1, 0.0])
        # hand sum: 3 + 3 + 1.5 + 1.5 + 1 + 1 + 1 + 0.25 + 0.25 + 0
        assert patch_cost(mixed, 10, cvss_of) == 12.5
        assert patch_cost(mixed, 3, cvss_of) == 7.5


# ---------------------------------------------------------------------------
# 5. Paired t-test and t CDF numerics
# ---------------------------------------------------------------------------


def test_c5_t_test_numerics():
    with criterion("criterion 5: t-test oracle + CDF integration check"):
        result = paired_t_test([1, 2, 3, 4, 5], [2, 2, 4, 4, 6])
        assert abs(result.t - ORACLE_TTEST_T) < 1e-6
        assert abs(result.p_two_sided - ORACLE_TTEST_P_TWO) < 1e-6
        assert result.df == 4

        from scipy import integrate

        def pdf(u, df):
            c = math.exp(math.lgamma((df + 1) / 2) - math.lgamma(df / 2)) \
                / math.sqrt(df * math.pi)
            return c * (1 + u * u / df) ** (-(df + 1) / 2)

        t_grid = [-10.0, -5.5, -2.5, -1.0, -0.3, 0.0, 0.3, 1.0, 2.5, 5.5, 10.0]
        for df in range(1, 201):
            for t in t_grid:
                area, _ = integrate.quad(pdf, 0, abs(t), args=(df,), limit=200)
                expected = 0.5 + area if t >= 0 else 0.5 - area
                assert abs(student_t_cdf(t, df) - expected) < 1e-9, (df, t)


# ---------------------------------------------------------------------------
# 6. Synthetic-corpus improvement
# ---------------------------------------------------------------------------


def test_c6_synthetic_corpus_improvement():
    with criterion("criterion 6: synthetic-corpus nDCG improvement"):
        started = time.perf_counter()
        config = load_config(SYNTHETIC / "config.json")
        graph, _coverage = build_pipeline(config)
        org = OrgContext.from_graph(graph, "SYNTHU")
        cohorts = generate_candidates(org, graph, config.date_range)
        assert len(cohorts) == 52

        apt = config.policies[Family.APT]
        cvss_series, threat_series = [], []
        for cohort in cohorts:
            table = feature_table(graph, cohort.cve_ids, org)
            ideal = rank(cohort, Policy.IDEAL, apt, table)
            cvss = rank(cohort, Policy.CVSS_BASE, apt, table)
            threat = rank(cohort, Policy.APT_THREAT, apt, table)
            cvss_series.append(ndcg_at_k(cvss, ideal, 20)[19])
            threat_series.append(ndcg_at_k(threat, ideal, 20)[19])

        cvss_mean, threat_mean = fmean(cvss_series), fmean(threat_series)
        assert cvss_mean == pytest.approx(ORACLE_SYNTH_CVSS_MEAN, abs=1e-9)
        assert threat_mean == pytest.approx(ORACLE_SYNTH_THREAT_MEAN, abs=1e-9)
        assert threat_mean - cvss_mean >= 0.3

        result = paired_t_test(cvss_series, threat_series)
        assert result.p_two_sided < 0.01
        assert result.mean_diff < 0  # threat ranking dominates severity ranking

        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"synthetic corpus run took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 7. Graph schema conformance under fuzz
# ---------------------------------------------------------------------------


def test_c7_graph_schema_conformance():
    with criterion("criterion 7: fuzz-built graph schema conformance"):
        for seed in (1, 31337):
            bundle = random_bundle(seed=seed)
            assert sum(map(len, bundle.values())) == 10_000
            graph = build_graph(bundle, random_attributions(seed + 1, bundle), vocab=VOCAB)
            assert audit_edge_conformance(graph) == []


# ---------------------------------------------------------------------------
# 8. Enrichment extraction
# ---------------------------------------------------------------------------


def test_c8_enrichment_extraction():
    with criterion("criterion 8: enrichment snippets + filter idempotence"):
        from datetime import date

        lexicon = load_lexicon(vocab=VOCAB)

        def attributed(description):
            group = AttackGroupRaw(group_id="G0001", name="g", description=description,
                                   created=date(2017, 5, 31), technique_ids=())
            return attribute_group(group, lexicon)

        assert attributed("North Korean state-sponsored threat group").origin_countries == \
            ("North Korea",)
        assert attributed("has been active since at least 2009").origin_year == 2009

        rng = random.Random(8)
        pool = ["United States", "China", "Russia", "Germany", "Japan", "Brazil"]
        for _ in range(500):
            attributions = [
                GroupAttribution(
                    group_id=f"G{i:04d}", origin_countries=(), origin_year=2000,
                    targeted_countries=tuple(rng.sample(pool, k=rng.randint(0, 3))),
                    targeted_sectors=(), evidence=())
                for i in range(rng.randint(0, 12))
            ]
            once = filter_us_targeting(attributions)
            assert filter_us_targeting(once) == once
            assert all(a in attributions for a in once)


# ---------------------------------------------------------------------------
# 9. Optional corpus-scale targets
# ---------------------------------------------------------------------------


@pytest.mark.skipif(
    "THREATRANK_CORPUS_CONFIG" not in os.environ,
    reason="corpus-scale snapshots not supplied; set THREATRANK_CORPUS_CONFIG "
           "to a project config covering the full 2019-2021 feeds",
)
def test_c9_corpus_scale_targets():
    with criterion("criterion 9: corpus-scale reproduction"):
        from threatrank.evaluation import generate_report
        from threatrank.kgraph import EdgeType, NodeLabel

        config = load_config(os.environ["THREATRANK_CORPUS_CONFIG"])
        graph, _coverage = build_pipeline(config)

        sector_node = graph.find(NodeLabel.DHS_SECTOR, "Government Facilities")
        assert sector_node is not None
        focused = [group for group in graph.nodes_with_label(NodeLabel.ATTACK_GROUP)
                   if sector_node in group.outgoing.get(EdgeType.FOCUS_ON, ())]
        assert abs(len(focused) - 50) <= 5

        org = OrgContext.from_graph(graph, "ODU")
        report = generate_report([org_rows(graph, org, config.date_range)],
                                 config.policies)
        ndcg = {(row[1], row[2], row[3]): row[4] for row in report.ndcg_rows}
        assert ndcg[("cvss_base:apt", 2020, 20)] == pytest.approx(0.557, abs=0.02)
        assert ndcg[("apt_threat:apt", 2020, 20)] == pytest.approx(0.998, abs=0.02)
        cost = {(row[1], row[2]): row[3] for row in report.cost_rows}
        assert cost[("cvss_base", 2019)] == pytest.approx(631.50, abs=1.0)
        assert cost[("apt_threat", 2019)] == pytest.approx(449.25, abs=1.0)
