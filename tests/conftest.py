from __future__ import annotations

from pathlib import Path

import pytest

from threatrank import ranking
from threatrank.cli import build_pipeline, load_config
from threatrank.kgraph import EDGE_ENDPOINTS, PropertyGraph
from threatrank.ranking import (
    BIT_NAMES,
    OrgContext,
    Policy,
    RankedItem,
    RankedList,
    feature_table,
    generate_candidates,
    order_scored,
)
from threatrank.vocab import load_vocabulary

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "fixtures"
CASE_STUDY = FIXTURES / "case_study"
SYNTHETIC = FIXTURES / "synthetic52"

# The packaged country and sector vocabularies.
VOCAB = load_vocabulary()

# The pinned case-study outcomes: threat-policy ranks of the 20 listed
# CVEs, and the CVSS-policy ranks they land on inside the 39-CVE cohort.
EXPECTED_THREAT_RANKS = {
    "CVE-2021-37966": 1, "CVE-2021-37999": 2, "CVE-2021-38000": 3,
    "CVE-2021-30542": 4, "CVE-2021-30543": 5, "CVE-2021-30626": 6,
    "CVE-2021-30627": 7, "CVE-2021-30628": 8, "CVE-2021-30629": 9,
    "CVE-2021-30630": 10, "CVE-2021-30632": 11, "CVE-2021-30633": 12,
    "CVE-2021-34423": 13, "CVE-2021-34424": 14, "CVE-2021-37956": 15,
    "CVE-2021-37957": 16, "CVE-2021-37958": 17, "CVE-2021-37959": 18,
    "CVE-2021-37961": 19, "CVE-2021-37962": 20,
}
EXPECTED_CVSS_RANKS = {
    "CVE-2021-34423": 1, "CVE-2021-30633": 2, "CVE-2021-30542": 5,
    "CVE-2021-30543": 6, "CVE-2021-30626": 7, "CVE-2021-30627": 8,
    "CVE-2021-30628": 9, "CVE-2021-30629": 10, "CVE-2021-30632": 11,
    "CVE-2021-37956": 12, "CVE-2021-37957": 13, "CVE-2021-37959": 14,
    "CVE-2021-37961": 15, "CVE-2021-37962": 16, "CVE-2021-34424": 26,
    "CVE-2021-37999": 28, "CVE-2021-38000": 29, "CVE-2021-37958": 30,
    "CVE-2021-30630": 31, "CVE-2021-37966": 34,
}
EXPECTED_RELEVANCE = {cve: 6 if rank <= 3 else 2
                      for cve, rank in EXPECTED_THREAT_RANKS.items()}


def gain_rankings(gains) -> tuple[RankedList, RankedList]:
    """(policy, ideal) rankings of one cohort whose ideal relevances are ``gains``.

    The policy presents the gains in the given order; the ideal in
    descending order, as ``rank`` orders it.
    """
    cves = [f"CVE-2021-{10000 + i}" for i in range(len(gains))]
    policy = tuple(RankedItem(cve_id=cve, score=float(len(cves) - i), rank=i + 1)
                   for i, cve in enumerate(cves))
    ideal = tuple(RankedItem(cve_id=cve, score=score, rank=position)
                  for cve, score, position in order_scored(zip(cves, map(float, gains))))
    return (RankedList(org_id="X", policy=Policy.CVSS_BASE, iso_week=(2021, 1), items=policy),
            RankedList(org_id="X", policy=Policy.IDEAL, iso_week=(2021, 1), items=ideal))


def feature_bits(row, config) -> dict[str, int]:
    """All ten feature bits of a row under one family's settings, in
    ``BIT_NAMES`` order: the mask ``rank`` derives, one name per bit."""
    mask = ranking._row_masks(config)(row)
    return {name: mask >> i & 1 for i, name in enumerate(BIT_NAMES)}


def org_rows(graph, org, date_range):
    """``(org id, weekly cohorts, feature table)`` of one organization, the
    rows ``generate_report`` evaluates, read with the public calls."""
    cohorts = generate_candidates(org, graph, date_range)
    table = feature_table(graph, (cve for c in cohorts for cve in c.cve_ids), org)
    return org.org_id, cohorts, table


def audit_edge_conformance(graph: PropertyGraph) -> list[tuple[str, str, str]]:
    """Full post-hoc scan; returns (src label, type, dst label) violations."""
    return [(src.label.value, edge_type.value, dst.label.value)
            for src, edge_type, dst in graph.edges()
            if (src.label, dst.label) != EDGE_ENDPOINTS[edge_type]]


@pytest.fixture(scope="session")
def case_config():
    return load_config(CASE_STUDY / "config.json")


@pytest.fixture(scope="session")
def case_graph(case_config):
    # Every test shares this graph, so none may mutate it: frozen, a write raises.
    return build_pipeline(case_config)[0].freeze()


@pytest.fixture(scope="session")
def case_org(case_graph):
    return OrgContext.from_graph(case_graph, "ODU")


@pytest.fixture(scope="session")
def synth_config():
    return load_config(SYNTHETIC / "config.json")


@pytest.fixture(scope="session")
def synth_graph(synth_config):
    # Every test shares this graph, so none may mutate it: frozen, a write raises.
    return build_pipeline(synth_config)[0].freeze()
