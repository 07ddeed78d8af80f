"""In-memory labeled property graph over the fused CTI records.

Fourteen node labels and sixteen typed relationships form the schema; every
edge type has a fixed (source label, target label) pair and conformance is
enforced on insertion.  Dangling cross-references (an edge whose endpoint
was never materialized as a record) are dropped and counted rather than
turned into stub nodes, so query results never contain phantom entities.

A node is identified by its (label, key) alone and carries its own typed
adjacency, out and in, so a path query hops from node to node with no id
table in between.

The graph is built single-writer, then frozen; after ``freeze()`` it is
immutable (node props become read-only mappings, their list values tuples;
adjacency becomes read-only mappings of frozensets) and safe to read from
any number of workers.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from datetime import date
from enum import Enum
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from . import profiles as profiles_mod
from .enrich import GroupAttribution
from .errors import DataError
from .feeds import SnapshotBundle
from .vocab import Vocabulary, default_vocabulary


class NodeLabel(Enum):
    # Members are singletons that compare by identity.  Hashing them by
    # identity too keeps the graph's (label, key) and edge-type dict lookups
    # off Enum's Python-level __hash__, the most-called function in a
    # load_graph profile.
    __hash__ = object.__hash__

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
    __hash__ = object.__hash__  # as NodeLabel's

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


_EMPTY = MappingProxyType({})  # the props or adjacency of every frozen node that has none


@dataclass(frozen=True, slots=True, eq=False)  # eq=False: nodes hash and compare by identity
class Node:
    """One entity and its typed edges; adjacency sets are unordered."""

    label: NodeLabel
    key: str
    props: Mapping  # a dict while building, read-only once the graph is frozen
    # Edge type -> target nodes (sets while building, then frozensets) and
    # edge type -> source nodes; left out of repr, which would print the
    # whole connected component.
    outgoing: Mapping = field(repr=False)
    incoming: Mapping = field(repr=False)


@dataclass
class BuildStats:
    dangling_dropped: Counter = field(default_factory=Counter)
    schema_rejected: int = 0

    @property
    def dangling_total(self) -> int:
        return sum(self.dangling_dropped.values())


def _as_tuple(values: list) -> tuple:
    """A list prop, nested lists included, as read-only tuples."""
    return tuple(_as_tuple(v) if type(v) is list else v for v in values)


def _frozen_adjacency(adjacency: dict) -> Mapping:
    """A node's edge type -> node set dict, its sets frozen, as a read-only mapping."""
    if not adjacency:
        return _EMPTY
    for edge_type, nodes in adjacency.items():
        adjacency[edge_type] = frozenset(nodes)
    return MappingProxyType(adjacency)


class PropertyGraph:
    """Nodes keyed by (label, key); each node holds its own typed adjacency.

    ``neighbors`` and ``edges`` walk those adjacency sets, whose order is
    not defined: callers that emit results order them by node key.
    """

    def __init__(self):
        self._nodes: dict[tuple[NodeLabel, str], Node] = {}
        self._frozen = False
        self.stats = BuildStats()

    # -- construction -------------------------------------------------------

    def _check_writable(self):
        if self._frozen:
            raise GraphFrozenError("graph is frozen")

    def upsert_node(self, label: NodeLabel, key: str, props: dict | None = None) -> Node:
        """Insert or update a node; idempotent on (label, key).

        Later property values win on key collision; existing properties not
        mentioned are preserved.
        """
        self._check_writable()
        node = self._nodes.get((label, key))
        if node is None:
            node = self._nodes[(label, key)] = Node(label, key, dict(props or {}), {}, {})
        elif props:
            node.props.update(props)
        return node

    def add_edge(self, src: Node, edge_type: EdgeType, dst: Node) -> bool:
        """Add one typed edge; returns False (and counts) on schema violation."""
        self._check_writable()
        if (src.label, dst.label) != EDGE_ENDPOINTS[edge_type]:
            self.stats.schema_rejected += 1
            return False
        src.outgoing.setdefault(edge_type, set()).add(dst)
        dst.incoming.setdefault(edge_type, set()).add(src)
        return True

    def link(self, edge_type: EdgeType, src_key: str, dst_key: str) -> bool:
        """Add an edge by endpoint keys; drops and counts dangling references."""
        src_label, dst_label = EDGE_ENDPOINTS[edge_type]
        src = self._nodes.get((src_label, src_key))
        dst = self._nodes.get((dst_label, dst_key))
        if src is None or dst is None:
            self._check_writable()
            self.stats.dangling_dropped[edge_type] += 1
            return False
        return self.add_edge(src, edge_type, dst)

    def freeze(self) -> "PropertyGraph":
        if not self._frozen:
            for node in self._nodes.values():
                props = node.props
                for key, value in props.items():
                    if type(value) is list:
                        props[key] = _as_tuple(value)
                # Node is a frozen dataclass; only freeze() swaps its fields.
                object.__setattr__(node, "props", MappingProxyType(props) if props else _EMPTY)
                object.__setattr__(node, "outgoing", _frozen_adjacency(node.outgoing))
                object.__setattr__(node, "incoming", _frozen_adjacency(node.incoming))
            self._frozen = True
        return self

    @property
    def frozen(self) -> bool:
        return self._frozen

    # -- lookups ------------------------------------------------------------

    def find(self, label: NodeLabel, key: str) -> Node | None:
        return self._nodes.get((label, key))

    def nodes(self) -> Iterator[Node]:
        return iter(self._nodes.values())

    def nodes_with_label(self, label: NodeLabel) -> Iterator[Node]:
        return (n for n in self._nodes.values() if n.label == label)

    def edges(self) -> Iterator[tuple[Node, EdgeType, Node]]:
        return ((src, edge_type, dst) for src in self._nodes.values()
                for edge_type, targets in src.outgoing.items() for dst in targets)

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def edge_count(self) -> int:
        return sum(len(targets) for node in self._nodes.values()
                   for targets in node.outgoing.values())

    def neighbors(self, node: Node, edge_type: EdgeType, direction: str = "out") -> frozenset:
        """Adjacent nodes over one edge type; empty when there are none."""
        if direction not in ("out", "in"):
            raise ValueError(f"direction must be 'out' or 'in', not {direction!r}")
        adjacency = node.outgoing if direction == "out" else node.incoming
        # A frozen node's sets are frozensets already, which frozenset() returns as is.
        return frozenset(adjacency.get(edge_type, ()))


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
            software_key = profiles_mod.software_key(item.vendor, item.product)
            g.upsert_node(NodeLabel.SOFTWARE, software_key, {
                "vendor": item.vendor,
                "product": item.product,
            })
            g.link(EdgeType.INSTALLS, profile.org_id, software_key)
            for cpe_id in item.resolved_cpes:
                g.link(EdgeType.HAS_VERSION, software_key, cpe_id)
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
    return {(technique.key, capec.key, cwe.key)
            for cwe in graph.neighbors(cve, EdgeType.WEAKENED_BY)
            for capec in graph.neighbors(cwe, EdgeType.KNOWN_ATTACK)
            for technique in graph.neighbors(capec, EdgeType.EMPLOYS)}


# ---------------------------------------------------------------------------
# Whole-graph snapshot export / import
# ---------------------------------------------------------------------------


def save_graph(graph: PropertyGraph, path: str | Path) -> None:
    """Write the graph as newline-delimited records, nodes then edges.

    Nodes are ordered by (label, key) and edges by (source key, type,
    target key) so snapshots of isomorphic graphs are byte-identical.
    """
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


# Numeric NvdCve props the read commands compare, with their upper bound;
# each may be absent or null.
_CVE_NUMBER_PROPS = (("cvss_base", 10.0), ("epss_probability", 1.0), ("epss_percentile", 1.0))


def _check_cve_props(props: dict) -> None:
    try:
        date.fromisoformat(props["modified"])
    except (KeyError, TypeError, ValueError):
        raise ValueError(f"NvdCve 'modified' must be an ISO date, "
                         f"not {props.get('modified')!r}") from None
    for name, high in _CVE_NUMBER_PROPS:
        value = props.get(name)
        if value is not None and not (type(value) in (int, float) and 0.0 <= value <= high):
            raise ValueError(f"NvdCve {name!r} must be a number in [0, {high:g}], not {value!r}")


def _check_cwe_props(props: dict) -> None:
    impacts = props.get("technical_impacts", [])
    if type(impacts) is not list or not all(type(impact) is str for impact in impacts):
        raise ValueError(f"Cwe 'technical_impacts' must be a list of strings, not {impacts!r}")


def _check_organization_props(props: dict) -> None:
    for name in ("sector", "country"):
        if type(props.get(name, "")) is not str:
            raise ValueError(f"Organization {name!r} must be a string, not {props[name]!r}")


# Per label, a check that the props ranking and the report read have a
# usable type and range; keyed by label value, checked once per node line.
_PROP_CHECKS = {
    NodeLabel.NVD_CVE.value: _check_cve_props,
    NodeLabel.CWE.value: _check_cwe_props,
    NodeLabel.ORGANIZATION.value: _check_organization_props,
}


def load_graph(path: str | Path) -> PropertyGraph:
    """Read a graph snapshot written by save_graph(); returns it frozen.

    A line that is not a well-formed node or edge record, or a node whose
    props the read commands cannot use, is a DataError naming ``path:line``.
    """
    g = PropertyGraph()
    with Path(path).open(encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                line.encode("utf-8")  # a byte that was not UTF-8 fails here
                obj = json.loads(line)
                kind = obj.get("kind") if isinstance(obj, dict) else None
                if kind == "node":
                    key, props = obj["key"], obj.get("props") or {}
                    if not (isinstance(key, str) and isinstance(props, dict)):
                        raise ValueError("node key must be a string and props an object")
                    label = NodeLabel(obj["label"])
                    check = _PROP_CHECKS.get(label.value)
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
