from __future__ import annotations

import gc
import json
import re
from datetime import date
from pathlib import Path

import pytest
from hypothesis import given, note, settings
from hypothesis import strategies as st

from threatrank import kgraph
from threatrank.enrich import GroupAttribution
from threatrank.errors import DataError
from threatrank.feeds import (
    AttackGroupRaw,
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
    ReferenceRecord,
    SkillLevel,
    SnapshotBundle,
    SOURCES,
    SourceKind,
    TechnicalImpact,
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
    Family,
    OrgContext,
    PolicyConfig,
    feature_table,
    generate_candidates,
)
from threatrank.vocab import Vocabulary
from tests.conftest import VOCAB, audit_edge_conformance, feature_bits
from tests.randdata import random_attributions, random_bundle, random_profiles


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


def test_adjacency_of_isolated_and_linked_nodes():
    g = PropertyGraph()
    node = g.upsert_node(NodeLabel.NVD_CVE, "CVE-2021-38000")
    assert node.outgoing == {}
    assert g.find(NodeLabel.NVD_CVE, "CVE-2021-99999") is None
    # a linked node has no entry for the edge types it lacks
    cpe = g.upsert_node(NodeLabel.CPE, "cpe:2.3:a:v:p:-:*:*:*:*:*:*:*")
    assert g.link(EdgeType.AFFECTS, node.key, cpe.key)
    assert node.outgoing == {EdgeType.AFFECTS: {cpe}}
    assert cpe.outgoing == {}
    g.freeze()
    assert node.outgoing == {EdgeType.AFFECTS: frozenset({cpe})}
    assert cpe.outgoing == {} and EdgeType.WEAKENED_BY not in node.outgoing
    assert "cpe:2.3" not in repr(node)  # repr does not walk the adjacency


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


def test_freeze_refuses_nested_props_without_recursion():
    deep = []
    for _ in range(5000):  # far past the recursion limit
        deep = [deep, "x"]
    mixed = {}
    for _ in range(5000):  # dicts and lists in turn
        mixed = {"list": [mixed]}
    loop = ["a"]
    loop.append(loop)
    dict_loop = {"a": 1}
    dict_loop["self"] = [dict_loop]
    for nested in (deep, mixed, [mixed], loop, dict_loop, [dict_loop]):
        g = PropertyGraph()
        node = g.upsert_node(NodeLabel.CWE, "CWE-1", {"flat": ["a", "b"], "nested": nested})
        with pytest.raises(ValueError, match="Cwe 'CWE-1': prop 'nested'"):
            g.freeze()
        # The graph is not frozen, and every part of it can still be written
        assert node.props["nested"] is nested
        node.props["more"] = 1
        g.upsert_node(NodeLabel.CAPEC, "CAPEC-1")
        assert g.link(EdgeType.KNOWN_ATTACK, "CWE-1", "CAPEC-1")
        del node.props["nested"]
        g.freeze()
        assert node.props == {"flat": ("a", "b"), "more": 1}


# A dict prop, one nested in a dict, one inside a list and a list inside a list.
_REFUSED_PROPS = [("meta", {"a": 1}), ("deep", {"a": {"c": [3]}}), ("refs", [{"b": 2}]),
                  ("notes", [["nested"]])]


def test_frozen_graph_props_are_read_only(tmp_path):
    g = PropertyGraph()
    node = g.upsert_node(NodeLabel.NVD_CVE, "CVE-2021-38000", {"cvss_base": 6.1})
    node.props["modified"] = "2021-11-23"  # writable while building
    cwe = g.upsert_node(NodeLabel.CWE, "CWE-416",
                        {"technical_impacts": ["Modify Data"], "notes": ["a", 1, None]})
    assert g.link(EdgeType.WEAKENED_BY, node.key, cwe.key)
    # Each prop freeze refuses leaves the graph writable
    for name, nested in _REFUSED_PROPS:
        kept = cwe.props.get(name)
        cwe.props[name] = nested
        with pytest.raises(ValueError, match=f"Cwe 'CWE-416': prop {name!r}"):
            g.freeze()
        if kept is None:
            del cwe.props[name]
        else:
            cwe.props[name] = kept
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
        cwe_props["notes"].append("more")
    assert cwe_props == {"technical_impacts": ("Modify Data",), "notes": ("a", 1, None)}
    # adjacency: neither a node's edge sets nor its own fields can change the graph
    with pytest.raises(AttributeError):
        node.outgoing[EdgeType.WEAKENED_BY].add(node)
    with pytest.raises(TypeError):
        node.outgoing[EdgeType.AFFECTS] = {cwe}
    with pytest.raises(AttributeError):
        cwe.outgoing.setdefault(EdgeType.KNOWN_ATTACK, set())
    for name, value in [("key", "CVE-2021-1"), ("label", NodeLabel.CWE), ("props", {}),
                        ("outgoing", {})]:
        with pytest.raises(AttributeError):
            setattr(node, name, value)
        with pytest.raises(AttributeError):
            delattr(node, name)
    with pytest.raises(GraphFrozenError):
        g.link(EdgeType.WEAKENED_BY, node.key, cwe.key)
    with pytest.raises(GraphFrozenError):  # a dangling reference is not counted either
        g.link(EdgeType.WEAKENED_BY, node.key, "CWE-9999")
    assert not g.stats.dangling_dropped
    assert node.outgoing[EdgeType.WEAKENED_BY] == {cwe}
    assert g.edge_count == 1
    assert graph_signature(g) == signature
    save_graph(g, tmp_path / "graph.jsonl")
    assert (tmp_path / "graph.jsonl").read_bytes() == (tmp_path / "building.jsonl").read_bytes()
    reloaded = load_graph(tmp_path / "graph.jsonl")
    with pytest.raises(TypeError):
        reloaded.find(NodeLabel.NVD_CVE, "CVE-2021-38000").props["cvss_base"] = 0.0
    with pytest.raises(AttributeError):
        reloaded.find(NodeLabel.CWE, "CWE-416").props["technical_impacts"].append("Read Data")
    with pytest.raises(AttributeError):
        reloaded.find(NodeLabel.CWE, "CWE-416").props["notes"].append("more")
    reloaded_cve = reloaded.find(NodeLabel.NVD_CVE, "CVE-2021-38000")
    with pytest.raises(AttributeError):
        reloaded_cve.outgoing[EdgeType.WEAKENED_BY].add(reloaded_cve)
    with pytest.raises(TypeError):
        reloaded_cve.outgoing[EdgeType.AFFECTS] = set()
    assert graph_signature(reloaded) == signature
    # A node line holding such a prop is a DataError naming the file, the node and the prop
    lines = (tmp_path / "graph.jsonl").read_text(encoding="utf-8")
    bad = tmp_path / "nested.jsonl"
    for name, nested in _REFUSED_PROPS:
        line = json.dumps({"kind": "node", "label": "Cwe", "key": "CWE-416",
                           "props": {name: nested}})
        bad.write_text(lines + line + "\n", encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(f"{bad}: Cwe 'CWE-416': prop {name!r}")):
            load_graph(bad)


def test_rebuild_is_isomorphic():
    bundle = random_bundle(seed=11)
    attributions = random_attributions(5, bundle)
    first = build_graph(bundle, attributions, vocab=VOCAB)
    second = build_graph(bundle, attributions, vocab=VOCAB)
    assert graph_signature(first) == graph_signature(second)


def test_snapshot_round_trip(tmp_path):
    bundle = random_bundle(seed=13)
    graph = build_graph(bundle, random_attributions(3, bundle), vocab=VOCAB)
    path = tmp_path / "graph.jsonl"
    save_graph(graph, path)
    reloaded = load_graph(path)
    with pytest.raises(GraphFrozenError):
        reloaded.upsert_node(NodeLabel.NVD_CVE, "CVE-2099-0001")
    assert graph_signature(reloaded) == graph_signature(graph)
    # deterministic bytes
    again = tmp_path / "graph2.jsonl"
    save_graph(reloaded, again)
    assert path.read_bytes() == again.read_bytes()


def test_each_label_table_holds_exactly_that_labels_nodes(tmp_path):
    bundle = random_bundle(seed=17)
    built = build_graph(bundle, random_attributions(17, bundle), random_profiles(17, bundle),
                        vocab=VOCAB)
    save_graph(built, tmp_path / "graph.jsonl")
    for graph in (built, load_graph(tmp_path / "graph.jsonl")):
        by_label = {label: list(graph.nodes_with_label(label)) for label in NodeLabel}
        for label, nodes in by_label.items():
            assert nodes == [node for node in graph.nodes() if node.label is label], label
        assert sum(map(len, by_label.values())) == graph.node_count == len(list(graph.nodes()))
        assert all(by_label.values())  # the bundle draws every label


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=5, deadline=None)
def test_built_graph_always_freezes(seed):
    # build writes only props that freeze, and so load_graph, accepts
    bundle = random_bundle(seed)
    graph = build_graph(bundle, random_attributions(seed, bundle),
                        random_profiles(seed, bundle), vocab=VOCAB)
    assert graph.stats.dangling_dropped  # the bundle's dangling references were drawn too
    graph.freeze()
    assert graph.find(NodeLabel.ORGANIZATION, "ORG0") is not None


# ---------------------------------------------------------------------------
# Case-study fixture queries
# ---------------------------------------------------------------------------


def test_case_graph_has_three_kev_edges(case_graph):
    kev_edges = [e for e in case_graph.edges() if e[1] is EdgeType.EXPLOITS_KNOWN]
    assert len(kev_edges) == 3


def test_case_graph_kev_neighbor(case_graph):
    node = case_graph.find(NodeLabel.NVD_CVE, "CVE-2021-38000")
    keys = {n.key for n in node.outgoing[EdgeType.EXPLOITS_KNOWN]}
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
        config = PolicyConfig(family=Family.APT, origin_countries=frozenset(origins))
        row = feature_table(case_graph, ["CVE-2021-38000"], org)["CVE-2021-38000"]
        bits = feature_bits(row, config)
        return tuple(bits[name] for name in GROUP_BITS)

    assert group_bits("Education", {"China"}) == (1, 1, 1)
    assert group_bits("Education", {"Iran"}) == (1, 1, 0)
    # G0901 targets the United States and South Korea; neither is an origin
    assert group_bits("Education", {"United States", "South Korea"}) == (1, 1, 0)
    assert group_bits("Nonexistent Sector", {"China"}) == (0, 0, 0)


def test_us_filter_excludes_non_us_group(case_graph):
    # Grey Heron targets only South Korea; the build filters its
    # attribution edges out, so it threatens no sector.
    node = case_graph.find(NodeLabel.ATTACK_GROUP, "G0903")
    assert node is not None  # the group node itself is kept
    assert EdgeType.FOCUS_ON not in node.outgoing


def test_case_graph_conformance_audit(case_graph, synth_graph):
    # link finds each endpoint under its edge type's label, so both fixture
    # graphs conform; the audit pins that no path inserts an edge otherwise.
    assert audit_edge_conformance(case_graph) == []
    assert audit_edge_conformance(synth_graph) == []


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


# ---------------------------------------------------------------------------
# The node and edge tables against the loops they replaced
# ---------------------------------------------------------------------------


def _reference_build_graph(records, attributions=(), profiles=(), *, vocab):
    """``build_graph`` as written before ``_FEED_NODES`` and ``_FEED_EDGES``:
    one loop per feed list for its nodes and one per reference field."""
    from threatrank.profiles import software_key

    g = PropertyGraph()

    for country in vocab.countries:
        g.upsert_node(NodeLabel.COUNTRY, country)
    for sector in vocab.sectors:
        g.upsert_node(NodeLabel.DHS_SECTOR, sector)

    for cwe in records.cwes:
        g.upsert_node(NodeLabel.CWE, cwe.cwe_id, {
            "name": cwe.name,
            "technical_impacts": [i.value for i in cwe.technical_impacts],
        })
    for capec in records.capecs:
        g.upsert_node(NodeLabel.CAPEC, capec.capec_id, {
            "name": capec.name,
            "skill_level": capec.skill_level.value,
        })
    for technique in records.techniques:
        g.upsert_node(NodeLabel.ATTACK_ENTERPRISE_TECHNIQUE, technique.technique_id,
                      {"name": technique.name})
    for tactic in records.tactics:
        g.upsert_node(NodeLabel.ATTACK_ENTERPRISE_TACTIC, tactic.tactic_id,
                      {"name": tactic.name})
    for group in records.groups:
        g.upsert_node(NodeLabel.ATTACK_GROUP, group.group_id, {
            "name": group.name,
            "created": group.created.isoformat(),
        })
    for cpe in records.cpes:
        g.upsert_node(NodeLabel.CPE, cpe.cpe_id, {
            "vendor": cpe.vendor,
            "product": cpe.product,
        })
    for cve in records.cves:
        g.upsert_node(NodeLabel.NVD_CVE, cve.cve_id, {
            "published": cve.published.isoformat(),
            "modified": cve.modified.isoformat(),
            "cvss_base": cve.cvss_base,
            "attack_vector": cve.attack_vector.value,
        })
    for ref in records.references:
        g.upsert_node(NodeLabel.NVD_REFERENCE, ref.url)
    for exploit in records.exploits:
        g.upsert_node(NodeLabel.EXPLOIT_DB, str(exploit.exploitdb_id))
    for entry in records.kev:
        g.upsert_node(NodeLabel.CISA_EXPLOIT_CATALOG, entry.cve_id, {
            "vendor_project": entry.vendor_project,
            "product": entry.product,
            "vulnerability_name": entry.vulnerability_name,
            "date_added": entry.date_added.isoformat(),
            "due_date": entry.due_date.isoformat(),
        })

    for score in records.epss:
        node = g.find(NodeLabel.NVD_CVE, score.cve_id)
        if node is None:
            g.stats.dangling_dropped["epss"] += 1
            continue
        node.props["epss_probability"] = score.probability
        node.props["epss_percentile"] = score.percentile

    for cve in records.cves:
        for cwe_id in cve.cwe_ids:
            g.link(EdgeType.WEAKENED_BY, cve.cve_id, cwe_id)
        for cpe_id in cve.affected_cpes:
            g.link(EdgeType.AFFECTS, cve.cve_id, cpe_id)
        for url in cve.reference_urls:
            g.link(EdgeType.INFORMS, cve.cve_id, url)
    for cwe in records.cwes:
        for capec_id in cwe.related_capecs:
            g.link(EdgeType.KNOWN_ATTACK, cwe.cwe_id, capec_id)
    for capec in records.capecs:
        for technique_id in capec.related_techniques:
            g.link(EdgeType.EMPLOYS, capec.capec_id, technique_id)
    for technique in records.techniques:
        for tactic_id in technique.tactic_ids:
            g.link(EdgeType.ACHIEVED_THROUGH, tactic_id, technique.technique_id)
    for group in records.groups:
        for technique_id in group.technique_ids:
            g.link(EdgeType.ACHIEVES_GOAL, group.group_id, technique_id)
    for exploit in records.exploits:
        for cve_id in exploit.cve_ids:
            g.link(EdgeType.REFERENCE_EXPLOIT, cve_id, str(exploit.exploitdb_id))
    for entry in records.kev:
        g.link(EdgeType.EXPLOITS_KNOWN, entry.cve_id, entry.cve_id)

    for attribution in attributions:
        node = g.find(NodeLabel.ATTACK_GROUP, attribution.group_id)
        if node is None:
            g.stats.dangling_dropped["attribution"] += 1
            continue
        node.props["origin_year"] = attribution.origin_year
        for country in attribution.origin_countries:
            g.link(EdgeType.ORIGINATES, attribution.group_id, country)
        for country in attribution.targeted_countries:
            g.link(EdgeType.TARGETS, attribution.group_id, country)
        for sector in attribution.targeted_sectors:
            g.link(EdgeType.FOCUS_ON, attribution.group_id, sector)

    for profile in profiles:
        g.upsert_node(NodeLabel.ORGANIZATION, profile.org_id, {
            "name": profile.name,
            "sector": profile.sector,
            "country": profile.country,
        })
        g.link(EdgeType.AFFILIATED_WITH, profile.sector, profile.org_id)
        g.link(EdgeType.OPERATES_IN, profile.org_id, profile.country)
        for item in profile.software:
            software = software_key(item.vendor, item.product)
            g.upsert_node(NodeLabel.SOFTWARE, software, {
                "vendor": item.vendor,
                "product": item.product,
            })
            g.link(EdgeType.INSTALLS, profile.org_id, software)
            for cpe_id in item.resolved_cpes:
                g.link(EdgeType.HAS_VERSION, software, cpe_id)
    return g


# Three ids per kind.  A bundle holds records for some of them, so every
# reference field can name an id with no record; record keys and the ids
# in a reference list may repeat, and a list may be empty.
_POOLS = {
    "cve": ["CVE-2021-0001", "CVE-2021-0002", "CVE-2021-0003"],
    "cpe": [f"cpe:2.3:a:v{i}:p{i}:-:*:*:*:*:*:*:*" for i in range(3)],
    "cwe": ["CWE-1", "CWE-2", "CWE-3"],
    "capec": ["CAPEC-1", "CAPEC-2", "CAPEC-3"],
    "technique": ["T1001", "T1002", "T1003"],
    "tactic": ["TA0001", "TA0002", "TA0003"],
    "group": ["G0001", "G0002", "G0003"],
    "url": ["https://a.example/1", "https://a.example/2", "https://a.example/3"],
}
_WORDS = st.sampled_from(["", "name", "é"])
_DAYS = st.dates(date(2015, 1, 1), date(2025, 12, 31))


@st.composite
def _feed_bundles(draw):
    def ids(kind):
        return tuple(draw(st.lists(st.sampled_from(_POOLS[kind]), max_size=3)))

    def records(kind, make):
        return [make(key) for key in ids(kind)]

    return SnapshotBundle(
        cves=records("cve", lambda key: CveRecord(
            key, "d", draw(_DAYS), draw(_DAYS),
            draw(st.none() | st.floats(0, 10, allow_nan=False)),
            draw(st.sampled_from(list(AttackVector))),
            ids("cwe"), ids("cpe"), ids("url"))),
        cpes=records("cpe", lambda key: CpeEntry(key, draw(_WORDS), draw(_WORDS))),
        cwes=records("cwe", lambda key: CweEntry(
            key, draw(_WORDS), tuple(draw(st.lists(st.sampled_from(list(TechnicalImpact)),
                                                   max_size=3))),
            ids("capec"))),
        capecs=records("capec", lambda key: CapecEntry(
            key, draw(_WORDS), draw(st.sampled_from(list(SkillLevel))), ids("technique"))),
        techniques=records("technique",
                           lambda key: AttackTechnique(key, draw(_WORDS), ids("tactic"))),
        tactics=records("tactic", lambda key: AttackTactic(key, draw(_WORDS))),
        groups=records("group", lambda key: AttackGroupRaw(
            key, draw(_WORDS), "d", draw(_DAYS), ids("technique"))),
        epss=records("cve", lambda key: EpssScore(key, draw(st.floats(0, 1)),
                                                  draw(st.floats(0, 1)))),
        kev=records("cve", lambda key: KevEntry(
            key, draw(_WORDS), draw(_WORDS), draw(_WORDS), draw(_DAYS), "s", "r",
            draw(_DAYS))),
        exploits=[ExploitRef(exploit_id, ids("cve"))
                  for exploit_id in draw(st.lists(st.integers(0, 3), max_size=3))],
        references=records("url", ReferenceRecord),
    )


@given(bundle=_feed_bundles())
@settings(max_examples=300, deadline=None)
def test_feed_tables_build_what_the_per_kind_loops_built(bundle):
    note({name: getattr(bundle, name) for name in bundle.__slots__ if getattr(bundle, name)})
    graph = build_graph(bundle, vocab=TINY_VOCAB)
    reference = _reference_build_graph(bundle, vocab=TINY_VOCAB)
    assert graph_signature(graph) == graph_signature(reference)
    assert graph.stats.dangling_dropped == reference.stats.dangling_dropped


def test_feed_tables_name_the_bundle_lists_and_their_fields():
    nodes = kgraph._FEED_NODES
    assert set(nodes) == set(SourceKind) - {SourceKind.EPSS}
    for kind, (_label, fields) in nodes.items():
        assert set(fields) <= set(SOURCES[kind].record_type._fields), kind
    # EPSS is the one kind whose references make no edge: its rows are no node.
    assert {kind for kind, source in SOURCES.items()
            if source.refs and kind not in nodes} == {SourceKind.EPSS}
    for kind, source in SOURCES.items():
        for field, target in source.refs.items():
            assert field in source.record_type._fields, (kind, field)
            if kind in nodes:
                ends = {nodes[kind][0], nodes[target][0]}
                joining = [edge_type for edge_type, pair in EDGE_ENDPOINTS.items()
                           if set(pair) == ends]
                assert len(joining) == 1, (kind, field, joining)


# ---------------------------------------------------------------------------
# The one-pass loader against the loader it replaced
# ---------------------------------------------------------------------------


def _reference_load_graph(path):
    # load_graph as it was before it decoded with raw_decode and inserted
    # nodes and edges itself: json.loads, the Enum calls, upsert_node and
    # link per line.  The oracle for the one-pass loader.
    g = PropertyGraph()
    with Path(path).open(encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                line.encode("utf-8")
                obj = json.loads(line)
                kind = obj.get("kind") if isinstance(obj, dict) else None
                if kind == "node":
                    key, props = obj["key"], obj.get("props") or {}
                    if not (isinstance(key, str) and isinstance(props, dict)):
                        raise ValueError("node key must be a string and props an object")
                    label = NodeLabel(obj["label"])
                    check = kgraph._PROP_CHECKS.get(label)
                    if check is not None:
                        check(props)
                    g.upsert_node(label, key, props)
                elif kind == "edge":
                    if not g.link(EdgeType(obj["type"]), obj["src"], obj["dst"]):
                        raise ValueError("edge references unknown node")
                else:
                    raise ValueError(f"unknown record kind {kind!r}")
            except (KeyError, TypeError, ValueError) as exc:
                raise DataError(f"{path}:{line_no}: {type(exc).__name__}: {exc}") from None
    return g.freeze()


def _load_outcome(load, path):
    """``("error", "path:line")`` or ``("graph", signature)``."""
    try:
        graph = load(path)
    except DataError as exc:
        return "error", re.match(r"(.*?:\d+):", str(exc)).group(1)
    return "graph", graph_signature(graph)


@pytest.fixture(scope="module")
def case_graph_bytes(case_graph, tmp_path_factory):
    path = tmp_path_factory.mktemp("saved") / "graph.jsonl"
    save_graph(case_graph, path)
    return path.read_bytes()


@given(byte=st.sampled_from(list(b'\xff\x00{,\n"]')), insert=st.booleans(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_one_byte_graph_edit_loads_as_the_reference_loader_does(
        case_graph_bytes, tmp_path_factory, byte, insert, data):
    at = data.draw(st.integers(0, len(case_graph_bytes) - (0 if insert else 1)))
    path = tmp_path_factory.mktemp("edited") / "graph.jsonl"
    path.write_bytes(case_graph_bytes[:at] + bytes([byte])
                     + case_graph_bytes[at + (0 if insert else 1):])
    assert _load_outcome(load_graph, path) == _load_outcome(_reference_load_graph, path)


@pytest.mark.parametrize("lines, message", [
    # trailing data after the record
    (['{"kind": "node", "label": "Cwe", "key": "CWE-1"} x'], "JSONDecodeError: Extra data"),
    (['{"kind": "node", "label": "Cwe", "key": "CWE-1"}{}'], "JSONDecodeError: Extra data"),
    # an unknown label or edge type names the value
    (['{"kind": "node", "label": "Bogus", "key": "k"}'],
     "ValueError: 'Bogus' is not a valid NodeLabel"),
    (['{"kind": "node", "label": "Cwe", "key": "CWE-1"}',
      '{"kind": "edge", "type": "Bogus", "src": "CWE-1", "dst": "CWE-1"}'],
     "ValueError: 'Bogus' is not a valid EdgeType"),
    # an edge endpoint must be read before the edge
    (['{"kind": "edge", "type": "KnownAttack", "src": "CWE-1", "dst": "CAPEC-1"}'],
     "ValueError: edge references unknown node"),
    (['{"kind": "node", "label": "Cwe", "key": ["CWE-1"]}'], "ValueError: node key"),
    (['{"kind": "node", "label": ["Cwe"], "key": "CWE-1"}'], "TypeError"),
])
def test_bad_line_is_named_as_the_reference_loader_names_it(tmp_path, lines, message):
    path = tmp_path / "graph.jsonl"
    path.write_text("\n".join(["", *lines]) + "\n", encoding="utf-8")  # a blank line first
    expected = ("error", f"{path}:{len(lines) + 1}")
    assert _load_outcome(load_graph, path) == expected
    assert _load_outcome(_reference_load_graph, path) == expected
    with pytest.raises(DataError, match=re.escape(f"{expected[1]}: {message}")):
        load_graph(path)


def test_duplicate_node_lines_merge_props_later_values_winning(tmp_path):
    path = tmp_path / "graph.jsonl"
    path.write_text(
        '{"kind": "node", "label": "Cwe", "key": "CWE-1", "props": {"name": "a", "x": 1}}\n'
        '{"kind": "node", "label": "Cwe", "key": "CWE-1", "props": {"name": "b"}}\n'
        '{"kind": "node", "label": "Cwe", "key": "CWE-1"}\n', encoding="utf-8")
    graph = load_graph(path)
    assert dict(graph.find(NodeLabel.CWE, "CWE-1").props) == {"name": "b", "x": 1}
    assert _load_outcome(load_graph, path) == _load_outcome(_reference_load_graph, path)


def _live_nodes() -> int:
    return sum(type(o) is kgraph.Node for o in gc.get_objects())


def test_a_dropped_graph_is_freed_without_the_collector(case_graph_bytes, tmp_path):
    # Each edge is held by its source node only, so a loaded graph has no
    # reference cycle: with the collector off, refcounting frees every node.
    path = tmp_path / "graph.jsonl"
    path.write_bytes(case_graph_bytes)
    gc.collect()
    before = _live_nodes()
    gc.disable()
    try:
        graph = load_graph(path)
        assert _live_nodes() == before + graph.node_count
        del graph
        assert _live_nodes() == before
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# The template writer against the writer it replaced
# ---------------------------------------------------------------------------


def _reference_save_graph(graph, path):
    # save_graph as it was before it rendered lines from templates: one
    # record dict and a full json.dumps per line.  The oracle for the
    # template writer.
    nodes = sorted(graph.nodes(), key=lambda n: (n.label.value, n.key))
    edge_rows = sorted((src.key, edge_type.value, dst.key) for src, edge_type, dst in graph.edges())
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        for node in nodes:
            fh.write(json.dumps({
                "kind": "node",
                "label": node.label.value,
                "key": node.key,
                "props": {k: node.props[k] for k in sorted(node.props)},
            }, sort_keys=False))
            fh.write("\n")
        for src_key, type_name, dst_key in edge_rows:
            fh.write(json.dumps({
                "kind": "edge", "type": type_name, "src": src_key, "dst": dst_key,
            }, sort_keys=False))
            fh.write("\n")


# Text holding what JSON escapes: quotes, backslashes, control characters,
# non-ASCII text and lone surrogates.
_TEXT = st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\tab9é€\U0001f600\ud800\udfff')
                | st.characters(), max_size=6)
_KEYS = st.sampled_from(["a", "b", 'a"']) | _TEXT  # a few shared keys, so sort ties occur
_SCALARS = (st.none() | st.booleans()
            | st.integers() | st.sampled_from([2 ** 64, -(2 ** 63), 10 ** 30])
            | st.floats() | st.sampled_from([1e-07, -0.0, 0.1, 1e16, 5e-324])
            | _TEXT)
# Lists, tuples (lists become tuples on freeze) and dicts, nested, with
# inner keys in the order drawn; only scalars and flat lists and tuples of
# them freeze.
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner, max_size=3) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(_TEXT, inner, max_size=3)),
    max_leaves=8)
_PROPS = st.dictionaries(_TEXT, _VALUES, max_size=4)  # empty props included
# The types _SCALARS draws, and the only ones a frozen prop holds, alone or in a tuple.
_SCALAR_TYPES = (type(None), bool, int, float, str)


@given(nodes=st.lists(st.tuples(st.sampled_from(list(NodeLabel)), _KEYS, _PROPS), max_size=10),
       edges=st.lists(st.tuples(st.sampled_from(list(EdgeType)), _KEYS, _KEYS), max_size=10),
       freeze=st.booleans())
@settings(max_examples=150, deadline=None)
def test_save_graph_writes_what_the_reference_writer_writes(
        tmp_path_factory, nodes, edges, freeze):
    g = PropertyGraph()
    for label, key, props in nodes:
        g.upsert_node(label, key, props)
    for edge_type, src_key, dst_key in edges:
        src_label, dst_label = EDGE_ENDPOINTS[edge_type]
        g.upsert_node(src_label, src_key)
        g.upsert_node(dst_label, dst_key)
        assert g.link(edge_type, src_key, dst_key)
    if freeze:
        nested = any(type(value) is dict or type(value) in (list, tuple) and any(
            type(item) in (list, tuple, dict) for item in value)
            for node in g.nodes() for value in node.props.values())
        if nested:
            with pytest.raises(ValueError):
                g.freeze()
        else:
            g.freeze()
            assert all(type(value) in _SCALAR_TYPES or type(value) is tuple
                       and all(type(item) in _SCALAR_TYPES for item in value)
                       for node in g.nodes() for value in node.props.values())
    out = tmp_path_factory.mktemp("saved")
    save_graph(g, out / "graph.jsonl")
    _reference_save_graph(g, out / "reference.jsonl")
    assert (out / "graph.jsonl").read_bytes() == (out / "reference.jsonl").read_bytes()
