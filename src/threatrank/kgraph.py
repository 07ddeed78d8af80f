"""In-memory labeled property graph over the fused CTI records.

Fourteen node labels and sixteen typed relationships form the schema; every
edge type has a fixed (source label, target label) pair and conformance is
enforced on insertion.  Dangling cross-references (an edge whose endpoint
was never materialized as a record) are dropped and counted rather than
turned into stub nodes, so query results never contain phantom entities.

The graph is built single-writer, then frozen; after ``freeze()`` it is
immutable and safe to read from any number of workers.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator

from . import profiles as profiles_mod
from .enrich import GroupAttribution
from .feeds import SnapshotBundle
from .vocab import Vocabulary, default_vocabulary


class NodeLabel(Enum):
    NVD_CVE = "NvdCve"
    EXPLOIT_DB = "ExploitDb"
    CISA_EXPLOIT_CATALOG = "CisaExploitCatalog"
    CWE = "Cwe"
    CAPEC = "Capec"
    ATTACK_ENTERPRISE_TECHNIQUE = "AttackEnterpriseTechnique"
    ATTACK_ENTERPRISE_TACTIC = "AttackEnterpriseTactic"
    ATTACK_GROUP = "AttackGroup"
    COUNTRY = "Country"
    DHS_SECTOR = "DhsSector"
    CPE = "Cpe"
    ORGANIZATION = "Organization"
    SOFTWARE = "Software"
    NVD_REFERENCE = "NvdReference"


class EdgeType(Enum):
    REFERENCE_EXPLOIT = "ReferenceExploit"
    EXPLOITS_KNOWN = "ExploitsKnown"
    WEAKENED_BY = "WeakenedBy"
    KNOWN_ATTACK = "KnownAttack"
    EMPLOYS = "Employs"
    ACHIEVES_GOAL = "AchievesGoal"
    ORIGINATES = "Originates"
    TARGETS = "Targets"
    FOCUS_ON = "FocusOn"
    ACHIEVED_THROUGH = "AchievedThrough"
    AFFECTS = "Affects"
    AFFILIATED_WITH = "AffiliatedWith"
    OPERATES_IN = "OperatesIn"
    INSTALLS = "Installs"
    HAS_VERSION = "HasVersion"
    INFORMS = "Informs"


# Fixed (source label, target label) pair per relationship.
EDGE_ENDPOINTS: dict[EdgeType, tuple[NodeLabel, NodeLabel]] = {
    EdgeType.REFERENCE_EXPLOIT: (NodeLabel.NVD_CVE, NodeLabel.EXPLOIT_DB),
    EdgeType.EXPLOITS_KNOWN: (NodeLabel.NVD_CVE, NodeLabel.CISA_EXPLOIT_CATALOG),
    EdgeType.WEAKENED_BY: (NodeLabel.NVD_CVE, NodeLabel.CWE),
    EdgeType.KNOWN_ATTACK: (NodeLabel.CWE, NodeLabel.CAPEC),
    EdgeType.EMPLOYS: (NodeLabel.CAPEC, NodeLabel.ATTACK_ENTERPRISE_TECHNIQUE),
    EdgeType.ACHIEVES_GOAL: (NodeLabel.ATTACK_GROUP, NodeLabel.ATTACK_ENTERPRISE_TECHNIQUE),
    EdgeType.ORIGINATES: (NodeLabel.ATTACK_GROUP, NodeLabel.COUNTRY),
    EdgeType.TARGETS: (NodeLabel.ATTACK_GROUP, NodeLabel.COUNTRY),
    EdgeType.FOCUS_ON: (NodeLabel.ATTACK_GROUP, NodeLabel.DHS_SECTOR),
    EdgeType.ACHIEVED_THROUGH: (
        NodeLabel.ATTACK_ENTERPRISE_TACTIC,
        NodeLabel.ATTACK_ENTERPRISE_TECHNIQUE,
    ),
    EdgeType.AFFECTS: (NodeLabel.NVD_CVE, NodeLabel.CPE),
    EdgeType.AFFILIATED_WITH: (NodeLabel.DHS_SECTOR, NodeLabel.ORGANIZATION),
    EdgeType.OPERATES_IN: (NodeLabel.ORGANIZATION, NodeLabel.COUNTRY),
    EdgeType.INSTALLS: (NodeLabel.ORGANIZATION, NodeLabel.SOFTWARE),
    EdgeType.HAS_VERSION: (NodeLabel.SOFTWARE, NodeLabel.CPE),
    EdgeType.INFORMS: (NodeLabel.NVD_CVE, NodeLabel.NVD_REFERENCE),
}


class GraphFrozenError(RuntimeError):
    """Write attempted after freeze()."""


@dataclass
class Node:
    node_id: int
    label: NodeLabel
    key: str
    props: dict


@dataclass
class BuildStats:
    dangling_dropped: Counter = field(default_factory=Counter)
    schema_rejected: int = 0

    @property
    def dangling_total(self) -> int:
        return sum(self.dangling_dropped.values())


class PropertyGraph:
    """Nodes keyed by (label, key) plus typed edges with adjacency indices."""

    def __init__(self):
        self._nodes: dict[int, Node] = {}
        self._by_key: dict[tuple[NodeLabel, str], int] = {}
        self._out: dict[int, dict[EdgeType, set[int]]] = {}
        self._in: dict[int, dict[EdgeType, set[int]]] = {}
        self._edges: set[tuple[int, EdgeType, int]] = set()
        self._frozen = False
        self.stats = BuildStats()

    # -- construction -------------------------------------------------------

    def _check_writable(self):
        if self._frozen:
            raise GraphFrozenError("graph is frozen")

    def upsert_node(self, label: NodeLabel, key: str, props: dict | None = None) -> int:
        """Insert or update a node; idempotent on (label, key).

        Later property values win on key collision; existing properties not
        mentioned are preserved.
        """
        self._check_writable()
        node_id = self._by_key.get((label, key))
        if node_id is None:
            node_id = len(self._nodes) + 1
            self._nodes[node_id] = Node(node_id, label, key, dict(props or {}))
            self._by_key[(label, key)] = node_id
            self._out[node_id] = {}
            self._in[node_id] = {}
        elif props:
            self._nodes[node_id].props.update(props)
        return node_id

    def add_edge(self, src_id: int, edge_type: EdgeType, dst_id: int) -> bool:
        """Add one typed edge; returns False (and counts) on schema violation."""
        self._check_writable()
        src = self._nodes.get(src_id)
        dst = self._nodes.get(dst_id)
        if src is None or dst is None:
            raise KeyError(f"unknown node id in edge ({src_id}, {edge_type}, {dst_id})")
        expected = EDGE_ENDPOINTS[edge_type]
        if (src.label, dst.label) != expected:
            self.stats.schema_rejected += 1
            return False
        triple = (src_id, edge_type, dst_id)
        if triple not in self._edges:
            self._edges.add(triple)
            self._out[src_id].setdefault(edge_type, set()).add(dst_id)
            self._in[dst_id].setdefault(edge_type, set()).add(src_id)
        return True

    def link(self, src_label: NodeLabel, src_key: str, edge_type: EdgeType,
             dst_label: NodeLabel, dst_key: str) -> bool:
        """Add an edge by endpoint keys; drops and counts dangling references."""
        src_id = self._by_key.get((src_label, src_key))
        dst_id = self._by_key.get((dst_label, dst_key))
        if src_id is None or dst_id is None:
            self._check_writable()
            self.stats.dangling_dropped[edge_type] += 1
            return False
        return self.add_edge(src_id, edge_type, dst_id)

    def freeze(self) -> "PropertyGraph":
        self._frozen = True
        return self

    @property
    def frozen(self) -> bool:
        return self._frozen

    # -- lookups ------------------------------------------------------------

    def node(self, node_id: int) -> Node:
        return self._nodes[node_id]

    def find(self, label: NodeLabel, key: str) -> Node | None:
        node_id = self._by_key.get((label, key))
        return None if node_id is None else self._nodes[node_id]

    def nodes(self) -> Iterator[Node]:
        return iter(self._nodes.values())

    def nodes_with_label(self, label: NodeLabel) -> Iterator[Node]:
        return (n for n in self._nodes.values() if n.label == label)

    def edges(self) -> Iterator[tuple[int, EdgeType, int]]:
        return iter(self._edges)

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def neighbors(self, node_id: int, edge_type: EdgeType, direction: str = "out") -> set[int]:
        """Adjacent node ids over one edge type; unknown nodes yield empty."""
        if direction not in ("out", "in"):
            raise ValueError(f"direction must be 'out' or 'in', not {direction!r}")
        adjacency = self._out if direction == "out" else self._in
        return set(adjacency.get(node_id, {}).get(edge_type, ()))


# ---------------------------------------------------------------------------
# Graph assembly
# ---------------------------------------------------------------------------


def build_graph(
    records: SnapshotBundle,
    attributions: Iterable[GroupAttribution] = (),
    profiles: Iterable["profiles_mod.OrganizationProfile"] = (),
    vocab: Vocabulary | None = None,
) -> PropertyGraph:
    """Assemble canonical records into a schema-conformant property graph.

    Every record becomes a node (EPSS rows become properties on their CVE
    node since exploit probability is an attribute, not an entity) and every
    cross-reference becomes a typed edge.  Country and sector nodes are
    materialized from the controlled vocabularies.  The returned graph is
    not frozen; callers freeze it before sharing.
    """
    vocab = vocab or default_vocabulary()
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

    # EPSS scores ride on the CVE node: exploit probability is an attribute.
    for score in records.epss:
        node = g.find(NodeLabel.NVD_CVE, score.cve_id)
        if node is None:
            g.stats.dangling_dropped["epss"] += 1
            continue
        node.props["epss_probability"] = score.probability
        node.props["epss_percentile"] = score.percentile

    for cve in records.cves:
        for cwe_id in cve.cwe_ids:
            g.link(NodeLabel.NVD_CVE, cve.cve_id, EdgeType.WEAKENED_BY, NodeLabel.CWE, cwe_id)
        for cpe_id in cve.affected_cpes:
            g.link(NodeLabel.NVD_CVE, cve.cve_id, EdgeType.AFFECTS, NodeLabel.CPE, cpe_id)
        for url in cve.reference_urls:
            g.link(NodeLabel.NVD_CVE, cve.cve_id, EdgeType.INFORMS, NodeLabel.NVD_REFERENCE, url)
    for cwe in records.cwes:
        for capec_id in cwe.related_capecs:
            g.link(NodeLabel.CWE, cwe.cwe_id, EdgeType.KNOWN_ATTACK, NodeLabel.CAPEC, capec_id)
    for capec in records.capecs:
        for technique_id in capec.related_techniques:
            g.link(NodeLabel.CAPEC, capec.capec_id, EdgeType.EMPLOYS,
                   NodeLabel.ATTACK_ENTERPRISE_TECHNIQUE, technique_id)
    for technique in records.techniques:
        for tactic_id in technique.tactic_ids:
            g.link(NodeLabel.ATTACK_ENTERPRISE_TACTIC, tactic_id, EdgeType.ACHIEVED_THROUGH,
                   NodeLabel.ATTACK_ENTERPRISE_TECHNIQUE, technique.technique_id)
    for group in records.groups:
        for technique_id in group.technique_ids:
            g.link(NodeLabel.ATTACK_GROUP, group.group_id, EdgeType.ACHIEVES_GOAL,
                   NodeLabel.ATTACK_ENTERPRISE_TECHNIQUE, technique_id)
    for exploit in records.exploits:
        for cve_id in exploit.cve_ids:
            g.link(NodeLabel.NVD_CVE, cve_id, EdgeType.REFERENCE_EXPLOIT,
                   NodeLabel.EXPLOIT_DB, str(exploit.exploitdb_id))
    for entry in records.kev:
        g.link(NodeLabel.NVD_CVE, entry.cve_id, EdgeType.EXPLOITS_KNOWN,
               NodeLabel.CISA_EXPLOIT_CATALOG, entry.cve_id)

    for attribution in attributions:
        node = g.find(NodeLabel.ATTACK_GROUP, attribution.group_id)
        if node is None:
            g.stats.dangling_dropped["attribution"] += 1
            continue
        node.props["origin_year"] = attribution.origin_year
        for country in attribution.origin_countries:
            g.link(NodeLabel.ATTACK_GROUP, attribution.group_id, EdgeType.ORIGINATES,
                   NodeLabel.COUNTRY, country)
        for country in attribution.targeted_countries:
            g.link(NodeLabel.ATTACK_GROUP, attribution.group_id, EdgeType.TARGETS,
                   NodeLabel.COUNTRY, country)
        for sector in attribution.targeted_sectors:
            g.link(NodeLabel.ATTACK_GROUP, attribution.group_id, EdgeType.FOCUS_ON,
                   NodeLabel.DHS_SECTOR, sector)

    for profile in profiles:
        g.upsert_node(NodeLabel.ORGANIZATION, profile.org_id, {
            "name": profile.name,
            "sector": profile.sector,
            "country": profile.country,
        })
        g.link(NodeLabel.DHS_SECTOR, profile.sector, EdgeType.AFFILIATED_WITH,
               NodeLabel.ORGANIZATION, profile.org_id)
        g.link(NodeLabel.ORGANIZATION, profile.org_id, EdgeType.OPERATES_IN,
               NodeLabel.COUNTRY, profile.country)
        for item in profile.software:
            software_key = profiles_mod.software_key(item.vendor, item.product)
            g.upsert_node(NodeLabel.SOFTWARE, software_key, {
                "vendor": item.vendor,
                "product": item.product,
            })
            g.link(NodeLabel.ORGANIZATION, profile.org_id, EdgeType.INSTALLS,
                   NodeLabel.SOFTWARE, software_key)
            for cpe_id in item.resolved_cpes:
                g.link(NodeLabel.SOFTWARE, software_key, EdgeType.HAS_VERSION,
                       NodeLabel.CPE, cpe_id)
    return g


# ---------------------------------------------------------------------------
# Path queries
# ---------------------------------------------------------------------------


def techniques_for_cve(graph: PropertyGraph, cve_id: str) -> set[tuple[str, str, str]]:
    """All weakness->attack-pattern->technique paths from one CVE.

    Returns (technique_id, via capec_id, via cwe_id) triples so diamond
    paths keep their provenance.
    """
    cve = graph.find(NodeLabel.NVD_CVE, cve_id)
    if cve is None:
        return set()
    paths = set()
    for cwe_nid in graph.neighbors(cve.node_id, EdgeType.WEAKENED_BY, "out"):
        cwe_key = graph.node(cwe_nid).key
        for capec_nid in graph.neighbors(cwe_nid, EdgeType.KNOWN_ATTACK, "out"):
            capec_key = graph.node(capec_nid).key
            for tech_nid in graph.neighbors(capec_nid, EdgeType.EMPLOYS, "out"):
                paths.add((graph.node(tech_nid).key, capec_key, cwe_key))
    return paths


def audit_edge_conformance(graph: PropertyGraph) -> list[tuple[str, str, str]]:
    """Full post-hoc scan; returns (src label, type, dst label) violations."""
    violations = []
    for src_id, edge_type, dst_id in graph.edges():
        src, dst = graph.node(src_id), graph.node(dst_id)
        if (src.label, dst.label) != EDGE_ENDPOINTS[edge_type]:
            violations.append((src.label.value, edge_type.value, dst.label.value))
    return violations


# ---------------------------------------------------------------------------
# Whole-graph snapshot export / import
# ---------------------------------------------------------------------------


def save_graph(graph: PropertyGraph, path: str | Path) -> None:
    """Write the graph as newline-delimited records, nodes then edges.

    Nodes are ordered by (label, key) and edges by (source key, type,
    target key) so snapshots of isomorphic graphs are byte-identical.
    """
    nodes = sorted(graph.nodes(), key=lambda n: (n.label.value, n.key))
    edge_rows = []
    for src_id, edge_type, dst_id in graph.edges():
        src, dst = graph.node(src_id), graph.node(dst_id)
        edge_rows.append((src.key, edge_type.value, dst.key))
    edge_rows.sort()
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


def load_graph(path: str | Path) -> PropertyGraph:
    """Read a graph snapshot written by save_graph(); returns it frozen."""
    g = PropertyGraph()
    with Path(path).open(encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            kind = obj.get("kind")
            if kind == "node":
                g.upsert_node(NodeLabel(obj["label"]), obj["key"], obj.get("props") or {})
            elif kind == "edge":
                edge_type = EdgeType(obj["type"])
                src_label, dst_label = EDGE_ENDPOINTS[edge_type]
                if not g.link(src_label, obj["src"], edge_type, dst_label, obj["dst"]):
                    raise ValueError(f"{path}:{line_no}: edge references unknown node")
            else:
                raise ValueError(f"{path}:{line_no}: unknown record kind {kind!r}")
    return g.freeze()


def graph_signature(graph: PropertyGraph):
    """(label, key, props) and (src, type, dst) multisets for isomorphism checks."""
    nodes = sorted(
        (n.label.value, n.key, json.dumps(n.props, sort_keys=True)) for n in graph.nodes()
    )
    edges = sorted(
        (graph.node(s).key, t.value, graph.node(d).key) for s, t, d in graph.edges()
    )
    return nodes, edges
