from __future__ import annotations

import json
from dataclasses import FrozenInstanceError
from datetime import date

import pytest

from threatrank.enrich import GroupAttribution
from threatrank.feeds import (
    AttackGroupRaw,
    AttackTactic,
    AttackTechnique,
    AttackVector,
    CapecEntry,
    CpeEntry,
    CveRecord,
    CweEntry,
    SkillLevel,
    SnapshotBundle,
)
from threatrank.kgraph import (
    EDGE_ENDPOINTS,
    EdgeType,
    GraphFrozenError,
    NodeLabel,
    PropertyGraph,
    build_graph,
    load_graph,
    save_graph,
    techniques_for_cve,
)
from threatrank.ranking import (
    OrgContext,
    Policy,
    PolicyConfig,
    feature_bits,
    generate_candidates,
)
from threatrank.vocab import Vocabulary
from tests.conftest import audit_edge_conformance
from tests.randdata import random_attributions, random_bundle


def graph_signature(graph: PropertyGraph):
    """(label, key, props) and (src, type, dst) multisets for isomorphism checks."""
    nodes = sorted(
        (n.label.value, n.key, json.dumps(dict(n.props), sort_keys=True)) for n in graph.nodes()
    )
    edges = sorted((s.key, t.value, d.key) for s, t, d in graph.edges())
    return nodes, edges


TINY_VOCAB = Vocabulary(countries=("United States", "China"),
                        sectors=("Education",))


def _cve(cve_id="CVE-2021-38000", cwe_ids=(), cpes=()):
    return CveRecord(cve_id=cve_id, description="d", published=date(2021, 1, 1),
                     modified=date(2021, 2, 1), cvss_base=6.1,
                     attack_vector=AttackVector.NETWORK,
                     cwe_ids=tuple(cwe_ids), affected_cpes=tuple(cpes))


def test_minimal_build_one_affects_edge():
    cpe_id = "cpe:2.3:a:google:chrome:-:*:*:*:*:*:*:*"
    bundle = SnapshotBundle(
        cves=[_cve(cpes=[cpe_id])],
        cpes=[CpeEntry(cpe_id=cpe_id, vendor="google", product="chrome")],
    )
    graph = build_graph(bundle, vocab=TINY_VOCAB)
    record_nodes = [n for n in graph.nodes()
                    if n.label in (NodeLabel.NVD_CVE, NodeLabel.CPE)]
    assert len(record_nodes) == 2
    affects = [e for e in graph.edges() if e[1] is EdgeType.AFFECTS]
    assert len(affects) == 1
    assert graph.edge_count == 1


def test_upsert_is_idempotent():
    g = PropertyGraph()
    first = g.upsert_node(NodeLabel.NVD_CVE, "CVE-2021-38000", {"cvss_base": 6.1})
    second = g.upsert_node(NodeLabel.NVD_CVE, "CVE-2021-38000", {"modified": "2021-11-23"})
    assert first is second
    assert g.node_count == 1
    # later properties merge over earlier ones
    assert first.props == {"cvss_base": 6.1, "modified": "2021-11-23"}


def test_add_edge_rejects_schema_violation():
    g = PropertyGraph()
    cve = g.upsert_node(NodeLabel.NVD_CVE, "CVE-2021-38000")
    country = g.upsert_node(NodeLabel.COUNTRY, "China")
    assert g.add_edge(cve, EdgeType.AFFECTS, country) is False
    assert g.stats.schema_rejected == 1
    assert g.edge_count == 0
    assert cve.outgoing == {} and country.incoming == {}


def test_neighbors_unknown_and_isolated_nodes():
    g = PropertyGraph()
    node = g.upsert_node(NodeLabel.NVD_CVE, "CVE-2021-38000")
    assert g.neighbors(node, EdgeType.AFFECTS, "out") == set()
    assert g.neighbors(node, EdgeType.AFFECTS, "in") == set()
    assert g.find(NodeLabel.NVD_CVE, "CVE-2021-99999") is None
    # a linked node has no neighbors over the edge types it lacks
    cpe = g.upsert_node(NodeLabel.CPE, "cpe:2.3:a:v:p:-:*:*:*:*:*:*:*")
    assert g.link(EdgeType.AFFECTS, node.key, cpe.key)
    assert g.neighbors(node, EdgeType.AFFECTS, "out") == {cpe}
    assert g.neighbors(cpe, EdgeType.AFFECTS, "in") == {node}
    assert g.neighbors(node, EdgeType.WEAKENED_BY, "out") == set()
    assert g.neighbors(cpe, EdgeType.AFFECTS, "out") == set()
    assert "cpe:2.3" not in repr(node)  # repr does not walk the adjacency


def test_neighbors_direction_validation():
    g = PropertyGraph()
    node = g.upsert_node(NodeLabel.NVD_CVE, "CVE-2021-38000")
    with pytest.raises(ValueError):
        g.neighbors(node, EdgeType.AFFECTS, "sideways")


def test_dangling_references_are_dropped_and_counted():
    bundle = SnapshotBundle(cves=[_cve(cwe_ids=["CWE-9999"])])
    graph = build_graph(bundle, vocab=TINY_VOCAB)
    assert graph.stats.dangling_dropped[EdgeType.WEAKENED_BY] == 1
    assert graph.find(NodeLabel.CWE, "CWE-9999") is None  # no stub node
    assert graph.edge_count == 0


def test_frozen_graph_rejects_writes():
    g = PropertyGraph().freeze()
    with pytest.raises(GraphFrozenError):
        g.upsert_node(NodeLabel.NVD_CVE, "CVE-2021-38000")


def test_frozen_graph_props_are_read_only(tmp_path):
    g = PropertyGraph()
    node = g.upsert_node(NodeLabel.NVD_CVE, "CVE-2021-38000", {"cvss_base": 6.1})
    node.props["modified"] = "2021-11-23"  # writable while building
    cwe = g.upsert_node(NodeLabel.CWE, "CWE-416",
                        {"technical_impacts": ["Modify Data"], "notes": [["nested"]]})
    assert g.add_edge(node, EdgeType.WEAKENED_BY, cwe)
    signature = graph_signature(g)
    save_graph(g, tmp_path / "building.jsonl")
    g.freeze()
    props = node.props
    with pytest.raises(TypeError):
        props["cvss_base"] = 0.0
    with pytest.raises(TypeError):
        del props["modified"]
    with pytest.raises(AttributeError):
        props.update(cvss_base=0.0)
    assert props == {"cvss_base": 6.1, "modified": "2021-11-23"}
    cwe_props = cwe.props
    with pytest.raises(AttributeError):
        cwe_props["technical_impacts"].append("Read Data")
    with pytest.raises(AttributeError):
        cwe_props["notes"][0].append("more")
    assert cwe_props == {"technical_impacts": ("Modify Data",), "notes": (("nested",),)}
    # adjacency: neither what neighbors() returns nor a node's own fields can change the graph
    with pytest.raises(AttributeError):
        g.neighbors(node, EdgeType.WEAKENED_BY).add(node)
    with pytest.raises(AttributeError):
        node.outgoing[EdgeType.WEAKENED_BY].add(node)
    with pytest.raises(AttributeError):
        cwe.incoming[EdgeType.WEAKENED_BY].clear()
    with pytest.raises(TypeError):
        node.outgoing[EdgeType.AFFECTS] = {cwe}
    with pytest.raises(TypeError):
        del cwe.incoming[EdgeType.WEAKENED_BY]
    with pytest.raises(AttributeError):
        cwe.outgoing.setdefault(EdgeType.KNOWN_ATTACK, set())
    for name, value in [("key", "CVE-2021-1"), ("label", NodeLabel.CWE), ("props", {}),
                        ("outgoing", {}), ("incoming", {})]:
        with pytest.raises(FrozenInstanceError):
            setattr(node, name, value)
    with pytest.raises(GraphFrozenError):
        g.add_edge(cwe, EdgeType.WEAKENED_BY, cwe)
    with pytest.raises(GraphFrozenError):
        g.link(EdgeType.WEAKENED_BY, node.key, cwe.key)
    assert g.neighbors(node, EdgeType.WEAKENED_BY) == {cwe}
    assert g.neighbors(cwe, EdgeType.WEAKENED_BY, "in") == {node}
    assert g.edge_count == 1 and g.stats.schema_rejected == 0
    assert graph_signature(g) == signature
    save_graph(g, tmp_path / "graph.jsonl")
    assert (tmp_path / "graph.jsonl").read_bytes() == (tmp_path / "building.jsonl").read_bytes()
    reloaded = load_graph(tmp_path / "graph.jsonl")
    with pytest.raises(TypeError):
        reloaded.find(NodeLabel.NVD_CVE, "CVE-2021-38000").props["cvss_base"] = 0.0
    with pytest.raises(AttributeError):
        reloaded.find(NodeLabel.CWE, "CWE-416").props["technical_impacts"].append("Read Data")
    reloaded_cve = reloaded.find(NodeLabel.NVD_CVE, "CVE-2021-38000")
    with pytest.raises(AttributeError):
        reloaded.neighbors(reloaded_cve, EdgeType.WEAKENED_BY).add(reloaded_cve)
    with pytest.raises(TypeError):
        reloaded_cve.outgoing[EdgeType.AFFECTS] = set()
    assert graph_signature(reloaded) == signature


def test_in_out_adjacency_consistency():
    graph = build_graph(random_bundle(seed=7, scale=1) , vocab=None)
    for src, edge_type, dst in graph.edges():
        assert dst in graph.neighbors(src, edge_type, "out")
        assert src in graph.neighbors(dst, edge_type, "in")


def test_rebuild_is_isomorphic():
    bundle = random_bundle(seed=11)
    attributions = random_attributions(5, bundle)
    first = build_graph(bundle, attributions)
    second = build_graph(bundle, attributions)
    assert graph_signature(first) == graph_signature(second)


def test_snapshot_round_trip(tmp_path):
    bundle = random_bundle(seed=13)
    graph = build_graph(bundle, random_attributions(3, bundle))
    path = tmp_path / "graph.jsonl"
    save_graph(graph, path)
    reloaded = load_graph(path)
    assert reloaded.frozen
    assert graph_signature(reloaded) == graph_signature(graph)
    # deterministic bytes
    again = tmp_path / "graph2.jsonl"
    save_graph(reloaded, again)
    assert path.read_bytes() == again.read_bytes()


# ---------------------------------------------------------------------------
# Case-study fixture queries
# ---------------------------------------------------------------------------


def test_case_graph_has_three_kev_edges(case_graph):
    kev_edges = [e for e in case_graph.edges() if e[1] is EdgeType.EXPLOITS_KNOWN]
    assert len(kev_edges) == 3


def test_case_graph_kev_neighbor(case_graph):
    node = case_graph.find(NodeLabel.NVD_CVE, "CVE-2021-38000")
    keys = {n.key for n in case_graph.neighbors(node, EdgeType.EXPLOITS_KNOWN, "out")}
    assert keys == {"CVE-2021-38000"}  # catalog entries are keyed by CVE id


ALL_DATES = (date.min, date.max)


def _candidates(graph, org):
    return [cve for cohort in generate_candidates(org, graph, ALL_DATES)
            for cve in cohort.cve_ids]


def test_case_graph_candidate_pool(case_graph, case_org):
    assert len(_candidates(case_graph, case_org)) == 39


def test_cves_affecting_empty_and_shared():
    cpe_a = "cpe:2.3:a:v:a:-:*:*:*:*:*:*:*"
    cpe_b = "cpe:2.3:a:v:b:-:*:*:*:*:*:*:*"
    bundle = SnapshotBundle(
        cves=[_cve(cpes=[cpe_a, cpe_b])],
        cpes=[CpeEntry(cpe_id=cpe_a, vendor="v", product="a"),
              CpeEntry(cpe_id=cpe_b, vendor="v", product="b")],
    )
    graph = build_graph(bundle, vocab=TINY_VOCAB)

    def org(cpe_ids):
        return OrgContext(org_id="X", sector="Education", country="United States",
                          cpe_ids=frozenset(cpe_ids))

    assert _candidates(graph, org([])) == []
    assert _candidates(graph, org([cpe_a, cpe_b])) == ["CVE-2021-38000"]


def test_techniques_for_cve_chain(case_graph):
    assert techniques_for_cve(case_graph, "CVE-2021-38000") == \
        {("T1566", "CAPEC-194", "CWE-601")}


def test_techniques_for_cve_without_cwe():
    graph = build_graph(SnapshotBundle(cves=[_cve()]), vocab=TINY_VOCAB)
    assert techniques_for_cve(graph, "CVE-2021-38000") == set()


def test_techniques_for_cve_diamond():
    bundle = SnapshotBundle(
        cves=[_cve(cwe_ids=["CWE-79"])],
        cwes=[CweEntry("CWE-79", "xss", (), ("CAPEC-63", "CAPEC-591"))],
        capecs=[CapecEntry("CAPEC-63", "a", SkillLevel.LOW, ("T1059",)),
                CapecEntry("CAPEC-591", "b", SkillLevel.LOW, ("T1059",))],
        techniques=[AttackTechnique("T1059", "t", ("TA0002",))],
        tactics=[AttackTactic("TA0002", "execution")],
    )
    graph = build_graph(bundle, vocab=TINY_VOCAB)
    paths = techniques_for_cve(graph, "CVE-2021-38000")
    assert len(paths) == 2
    assert {t for t, _c, _w in paths} == {"T1059"}


GROUP_BITS = ("sector_focus", "targets_country", "origin_match")


def test_groups_threatening_fixture(case_graph):
    # G0901 is the one Education-focused, US-targeting group on this CVE's paths
    def group_bits(sector, origins):
        org = OrgContext(org_id="X", sector=sector, country="United States",
                         cpe_ids=frozenset())
        config = PolicyConfig(policy=Policy.APT_THREAT, origin_countries=frozenset(origins))
        bits = feature_bits(case_graph, "CVE-2021-38000", org, config)
        return tuple(bits[name] for name in GROUP_BITS)

    assert group_bits("Education", {"China"}) == (1, 1, 1)
    assert group_bits("Education", {"Iran"}) == (1, 1, 0)
    assert group_bits("Nonexistent Sector", {"China"}) == (0, 0, 0)


def test_us_filter_excludes_non_us_group(case_graph):
    # Grey Heron targets only South Korea; the build filters its
    # attribution edges out, so it threatens no sector.
    node = case_graph.find(NodeLabel.ATTACK_GROUP, "G0903")
    assert node is not None  # the group node itself is kept
    assert case_graph.neighbors(node, EdgeType.FOCUS_ON, "out") == set()


def test_case_graph_conformance_audit(case_graph):
    assert audit_edge_conformance(case_graph) == []


def test_epss_becomes_cve_properties(case_graph):
    node = case_graph.find(NodeLabel.NVD_CVE, "CVE-2021-38000")
    assert node.props["epss_probability"] == 0.876
    assert node.props["epss_percentile"] == 0.94


def test_schema_table_is_complete():
    assert set(EDGE_ENDPOINTS) == set(EdgeType)
    assert len(EdgeType) == 16
    assert len(NodeLabel) == 14


def test_attribution_for_unknown_group_counts_as_dangling():
    attribution = GroupAttribution(
        group_id="G9999", origin_countries=("China",), origin_year=2000,
        targeted_countries=("United States",), targeted_sectors=("Education",),
        evidence=())
    graph = build_graph(SnapshotBundle(), [attribution], vocab=TINY_VOCAB)
    assert graph.stats.dangling_dropped["attribution"] == 1


def test_group_achieves_goal_edges():
    bundle = SnapshotBundle(
        techniques=[AttackTechnique("T1059", "t", ("TA0002",))],
        tactics=[AttackTactic("TA0002", "execution")],
        groups=[AttackGroupRaw("G0001", "g", "d", date(2018, 1, 1), ("T1059", "T9999"))],
    )
    graph = build_graph(bundle, vocab=TINY_VOCAB)
    achieved = [e for e in graph.edges() if e[1] is EdgeType.ACHIEVES_GOAL]
    assert len(achieved) == 1
    assert graph.stats.dangling_dropped[EdgeType.ACHIEVES_GOAL] == 1
    tactics = [e for e in graph.edges() if e[1] is EdgeType.ACHIEVED_THROUGH]
    assert len(tactics) == 1
