"""In-memory labeled property graph over the fused CTI records.

Fourteen node labels and sixteen typed relationships form the schema; every
edge type has a fixed (source label, target label) pair, and ``link`` looks
each endpoint up under its label, so every edge conforms.  Dangling
cross-references (an edge whose endpoint was never materialized as a
record) are dropped and counted rather than turned into stub nodes, so
query results never contain phantom entities.

A node is identified by its (label, key) alone and carries its own typed
outgoing adjacency, so a path query hops from node to node with no id table
in between.  Each edge is stored once, on its source node: the graph holds
no reference cycle, and refcounting frees it once its last reference goes.
``Node`` is a small ``__slots__`` class with read-only fields, not a
dataclass, so each node ``load_graph`` reads costs four slot stores.

The graph is built single-writer, then frozen; after ``freeze()`` it is
immutable (node props become read-only mappings of JSON scalars and tuples
of them, adjacency read-only mappings of frozensets) and safe to read from
any number of workers.  ``build_graph`` writes no other prop.

``build_graph`` reads each feed list through ``_FEED_NODES`` (a kind's
node label and the record fields its props hold, each as
``feeds.json_field`` gives it), and links the ``refs`` of ``feeds.SOURCES``
by the one edge type that joins the two kinds' labels.  It imports
``feeds`` and ``profiles`` when it runs, and its other inputs' modules only
for type checkers, so a read command, which only loads a snapshot with
``load_graph``, imports none of them through this module.
"""

from __future__ import annotations

import json
from collections import Counter
from datetime import date
from enum import Enum
from itertools import chain
from pathlib import Path
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

from .errors import DataError, output_file
from .kinds import SourceKind

if TYPE_CHECKING:  # build_graph's inputs; a read command never imports them
    from .enrich import GroupAttribution
    from .feeds import SnapshotBundle
    from .profiles import OrganizationProfile
    from .vocab import Vocabulary


class NodeLabel(Enum):
    # Members are singletons that compare by identity.  Hashing them by
    # identity too keeps the graph's label-table and edge-type dict lookups
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


class Node:
    """One entity and its typed outgoing edges; adjacency sets are unordered.

    Nodes hash and compare by identity.  The four fields are read-only once
    ``__init__`` ends: assigning or deleting one is an AttributeError, and
    only ``PropertyGraph.freeze`` swaps them, through the slot setters.
    """

    __slots__ = ("label", "key", "props", "outgoing")

    label: NodeLabel
    key: str
    props: Mapping  # a dict while building, read-only once the graph is frozen
    # Edge type -> target nodes (sets while building, then frozensets).
    outgoing: Mapping

    def __init__(self, label: NodeLabel, key: str, props: Mapping, outgoing: Mapping):
        _set_label(self, label)
        _set_key(self, key)
        _set_props(self, props)
        _set_outgoing(self, outgoing)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to Node field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete Node field {name!r}")

    def __repr__(self) -> str:
        # The adjacency is left out: it would print the whole connected component.
        return f"Node(label={self.label!r}, key={self.key!r}, props={self.props!r})"


# The slot descriptors' setters, which skip Node.__setattr__: calling them
# is also faster than object.__setattr__ on a slot.
_set_label, _set_key, _set_props, _set_outgoing = (
    getattr(Node, name).__set__ for name in Node.__slots__)


class BuildStats:
    """The references a build dropped for want of a node, by edge type or source."""

    __slots__ = ("dangling_dropped",)

    def __init__(self):
        self.dangling_dropped: Counter = Counter()

    @property  # bench/trace_cli.py is its only reader
    def dangling_total(self) -> int:
        return sum(self.dangling_dropped.values())


def _join(src: Node, edge_type: EdgeType, dst: Node) -> None:
    """Record one edge in its source node's adjacency.

    A set is made only for an edge type new to the node; ``setdefault``
    would build and drop one per call.
    """
    targets = src.outgoing.get(edge_type)
    if targets is None:
        targets = src.outgoing[edge_type] = set()
    targets.add(dst)


# The types of a JSON scalar: a frozen graph's prop is one, or a tuple of them.
_SCALARS = frozenset({str, int, float, bool, type(None)})


def _frozen_adjacency(adjacency: dict) -> Mapping:
    """A node's edge type -> node set dict, its sets frozen, as a read-only mapping."""
    if not adjacency:
        return _EMPTY
    for edge_type, nodes in adjacency.items():
        adjacency[edge_type] = frozenset(nodes)
    return MappingProxyType(adjacency)


class PropertyGraph:
    """One ``{key: node}`` table per label; each node holds its outgoing edges.

    Callers walk a node's ``outgoing`` sets directly, and ``edges`` walks
    them all; their order is not defined, so callers that emit results
    order them by node key.  ``nodes`` yields label by label, each label's
    nodes in the order they were made.
    """

    def __init__(self):
        self._nodes: dict[NodeLabel, dict[str, Node]] = {label: {} for label in NodeLabel}
        self._frozen = False
        self.stats = BuildStats()

    # -- construction -------------------------------------------------------

    def upsert_node(self, label: NodeLabel, key: str, props: dict | None = None) -> Node:
        """Insert or update a node in its label's table; idempotent on (label, key).

        Later property values win on key collision; existing properties not
        mentioned are preserved.
        """
        if self._frozen:
            raise GraphFrozenError("graph is frozen")
        table = self._nodes[label]
        node = table.get(key)
        if node is None:
            node = table[key] = Node(label, key, dict(props or {}), {})
        elif props:
            node.props.update(props)
        return node

    def link(self, edge_type: EdgeType, src_key: str, dst_key: str) -> bool:
        """Add an edge by endpoint keys; drops and counts dangling references.

        Each endpoint is looked up under the label the edge type joins, so
        the edge conforms to the schema.
        """
        src_label, dst_label = EDGE_ENDPOINTS[edge_type]
        src = self._nodes[src_label].get(src_key)
        dst = self._nodes[dst_label].get(dst_key)
        if self._frozen:
            raise GraphFrozenError("graph is frozen")
        if src is None or dst is None:
            self.stats.dangling_dropped[edge_type] += 1
            return False
        _join(src, edge_type, dst)
        return True

    def freeze(self) -> "PropertyGraph":
        """Make the graph immutable (once), each list or tuple prop a tuple.

        A prop that is not a JSON scalar or a flat list of them is a
        ValueError naming its node, and leaves the graph unfrozen and writable.
        """
        if not self._frozen:
            for node in self.nodes():
                props = node.props
                for key, value in props.items():
                    if type(value) not in _SCALARS:
                        if type(value) not in (list, tuple) or \
                                not _SCALARS.issuperset(map(type, value)):
                            raise ValueError(f"{node.label.value} {node.key!r}: prop {key!r} "
                                             f"must be a JSON scalar or a flat list of them")
                        props[key] = tuple(value)
            for node in self.nodes():
                props = node.props
                _set_props(node, MappingProxyType(props) if props else _EMPTY)
                _set_outgoing(node, _frozen_adjacency(node.outgoing))
            self._frozen = True
        return self

    # -- lookups ------------------------------------------------------------

    def find(self, label: NodeLabel, key: str) -> Node | None:
        return self._nodes[label].get(key)

    def nodes(self) -> Iterator[Node]:
        return chain.from_iterable(table.values() for table in self._nodes.values())

    def nodes_with_label(self, label: NodeLabel) -> Iterator[Node]:
        return iter(self._nodes[label].values())

    def edges(self) -> Iterator[tuple[Node, EdgeType, Node]]:
        return ((src, edge_type, dst) for src in self.nodes()
                for edge_type, targets in src.outgoing.items() for dst in targets)

    @property
    def node_count(self) -> int:
        return sum(map(len, self._nodes.values()))

    @property
    def edge_count(self) -> int:
        return sum(len(targets) for node in self.nodes() for targets in node.outgoing.values())


# ---------------------------------------------------------------------------
# Graph assembly
# ---------------------------------------------------------------------------


# Per feed kind, the label of its records' nodes and the record fields
# their props hold; a node's key is str(record[0]).  EPSS rows are no
# node: they ride on their CVE's.  Listed in the order nodes are made.
_FEED_NODES: dict[SourceKind, tuple[NodeLabel, tuple[str, ...]]] = {
    SourceKind.CWE: (NodeLabel.CWE, ("name", "technical_impacts")),
    SourceKind.CAPEC: (NodeLabel.CAPEC, ("name", "skill_level")),
    SourceKind.TECHNIQUE: (NodeLabel.ATTACK_ENTERPRISE_TECHNIQUE, ("name",)),
    SourceKind.TACTIC: (NodeLabel.ATTACK_ENTERPRISE_TACTIC, ("name",)),
    SourceKind.GROUP: (NodeLabel.ATTACK_GROUP, ("name", "created")),
    SourceKind.CPE: (NodeLabel.CPE, ("vendor", "product")),
    SourceKind.CVE: (NodeLabel.NVD_CVE, ("published", "modified", "cvss_base", "attack_vector")),
    SourceKind.REFERENCE: (NodeLabel.NVD_REFERENCE, ()),
    SourceKind.EXPLOIT: (NodeLabel.EXPLOIT_DB, ()),
    SourceKind.KEV: (NodeLabel.CISA_EXPLOIT_CATALOG,
                     ("vendor_project", "product", "vulnerability_name", "date_added",
                      "due_date")),
}


def build_graph(
    records: SnapshotBundle,
    attributions: Iterable[GroupAttribution] = (),
    profiles: Iterable[OrganizationProfile] = (),
    *,
    vocab: Vocabulary,
) -> PropertyGraph:
    """Assemble canonical records into a schema-conformant property graph.

    Every record becomes a node (EPSS rows become properties on their CVE
    node since exploit probability is an attribute, not an entity) and every
    cross-reference becomes a typed edge.  Country and sector nodes are
    materialized from the controlled vocabularies.  The returned graph is
    not frozen; callers freeze it before sharing.
    """
    from .feeds import SOURCES, json_field
    from .profiles import software_key

    g = PropertyGraph()

    for country in vocab.countries:
        g.upsert_node(NodeLabel.COUNTRY, country)
    for sector in vocab.sectors:
        g.upsert_node(NodeLabel.DHS_SECTOR, sector)

    for kind, (label, fields) in _FEED_NODES.items():
        for record in getattr(records, SOURCES[kind].bundle_field):
            props = {}
            for name in fields:
                value = getattr(record, name)
                # json_field returns a JSON scalar as it is: skip the call.
                props[name] = value if type(value) in _SCALARS else json_field(value)
            g.upsert_node(label, str(record[0]), props)

    # EPSS scores ride on the CVE node: exploit probability is an attribute.
    for score in records.epss:
        node = g.find(NodeLabel.NVD_CVE, score.cve_id)
        if node is None:
            g.stats.dangling_dropped["epss"] += 1
            continue
        node.props["epss_probability"] = score.probability
        node.props["epss_percentile"] = score.percentile

    # Each reference is an edge of the one type joining the two kinds' labels,
    # from the record unless EDGE_ENDPOINTS puts the record's label at the target.
    for kind, (label, _fields) in _FEED_NODES.items():
        source = SOURCES[kind]
        for field, target in source.refs.items():
            ends = (label, _FEED_NODES[target][0])
            (edge_type,) = [each for each, pair in EDGE_ENDPOINTS.items()
                            if pair in (ends, ends[::-1])]
            forward = EDGE_ENDPOINTS[edge_type] == ends
            for record in getattr(records, source.bundle_field):
                key, ids = str(record[0]), getattr(record, field)
                for other in (ids,) if type(ids) is str else ids:
                    if forward:
                        g.link(edge_type, key, other)
                    else:
                        g.link(edge_type, other, key)

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
            for cwe in cve.outgoing.get(EdgeType.WEAKENED_BY, ())
            for capec in cwe.outgoing.get(EdgeType.KNOWN_ATTACK, ())
            for technique in capec.outgoing.get(EdgeType.EMPLOYS, ())}


# ---------------------------------------------------------------------------
# Whole-graph snapshot export / import
# ---------------------------------------------------------------------------


# The function json.dumps calls for a str.
_encode_str = json.encoder.encode_basestring_ascii


def _props_encoder():
    """``json.dumps`` with its default settings, for one ``save_graph`` call.

    ``JSONEncoder.encode`` makes a new C encoder for every value; this makes
    one.  Its circular-reference markers are its own, so a call that fails
    leaves nothing behind for another save.  Where ``_json`` is missing,
    ``JSONEncoder().encode`` does the work.
    """
    make = json.encoder.c_make_encoder
    if make is None:
        return json.JSONEncoder().encode
    encode = make({}, None, _encode_str, None, ": ", ", ", False, False, True)
    return lambda value: "".join(encode(value, 0))


def save_graph(graph: PropertyGraph, path: str | Path) -> None:
    """Write the graph as newline-delimited records, nodes then edges,
    through ``errors.output_file``: ``path`` is replaced only when whole.

    Nodes are ordered by (label, key) and edges by (source key, type,
    target key) so snapshots of isomorphic graphs are byte-identical.

    Each line is byte-for-byte ``json.dumps`` of its record: ``{kind,
    label, key, props}`` with the top-level props sorted by name (nested
    values keep their order), or ``{kind, type, src, dst}``.  It is rendered
    from a fixed template (label and edge-type values, fixed ASCII names,
    go in verbatim; only keys and props are encoded), and written line by line.
    """
    # Enum.value is a Python-level descriptor: read it once per member.
    label_names = {label: label.value for label in NodeLabel}
    type_names = {edge_type: edge_type.value for edge_type in EdgeType}
    nodes = sorted(graph.nodes(), key=lambda n: (label_names[n.label], n.key))
    edge_rows = sorted((src.key, type_names[edge_type], dst.key)
                       for src, edge_type, dst in graph.edges())
    encode = _props_encoder()
    with output_file(path) as fh:
        write = fh.write
        for node in nodes:
            props = node.props
            write(f'{{"kind": "node", "label": "{label_names[node.label]}", '
                  f'"key": {_encode_str(node.key)}, '
                  f'"props": {encode({k: props[k] for k in sorted(props)})}}}\n')
        for src_key, type_name, dst_key in edge_rows:
            write(f'{{"kind": "edge", "type": "{type_name}", '
                  f'"src": {_encode_str(src_key)}, "dst": {_encode_str(dst_key)}}}\n')


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
# usable type and range; checked once per node line.
_PROP_CHECKS = {
    NodeLabel.NVD_CVE: _check_cve_props,
    NodeLabel.CWE: _check_cwe_props,
    NodeLabel.ORGANIZATION: _check_organization_props,
}

# Label and edge-type values to their members: one dict lookup per line,
# where calling the Enum runs its Python-level __call__ and __new__.
_LABELS = {label.value: label for label in NodeLabel}
_EDGES = {edge_type.value: edge_type for edge_type in EdgeType}


def load_graph(path: str | Path) -> PropertyGraph:
    """Read a graph snapshot written by save_graph(); returns it frozen.

    One pass over the lines, streamed: each line is checked to be UTF-8,
    decoded as exactly one JSON value, and inserted straight into the
    graph's label tables and adjacency, without ``upsert_node``/``link``'s
    per-call checks (the loader owns the graph until it freezes it).  A
    node line seen again for the same (label, key) updates its props, later
    values winning, as ``upsert_node`` does.

    A line that is not a well-formed node or edge record (corrupt JSON,
    JSON nested deeper than the decoder reads, trailing data, an unknown
    label or edge type, an edge to a node not read yet, a non-UTF-8 byte),
    or a node whose props the read commands cannot use, is a DataError
    naming ``path:line``; a prop ``freeze`` refuses, one naming ``path``,
    the node and the prop.
    """
    g = PropertyGraph()
    tables = g._nodes
    decode = json.JSONDecoder().raw_decode
    with Path(path).open(encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                line.encode("utf-8")  # a byte that was not UTF-8 fails here
                obj, end = decode(line)
                if end != len(line):
                    raise json.JSONDecodeError("Extra data", line, end)
                kind = obj.get("kind") if isinstance(obj, dict) else None
                if kind == "node":
                    key, props = obj["key"], obj.get("props") or {}
                    if not (isinstance(key, str) and isinstance(props, dict)):
                        raise ValueError("node key must be a string and props an object")
                    label = _LABELS.get(obj["label"])
                    if label is None:
                        raise ValueError(f"{obj['label']!r} is not a valid NodeLabel")
                    check = _PROP_CHECKS.get(label)
                    if check is not None:
                        check(props)
                    table = tables[label]
                    node = table.get(key)
                    if node is None:
                        table[key] = Node(label, key, props, {})
                    else:
                        node.props.update(props)
                elif kind == "edge":
                    edge_type = _EDGES.get(obj["type"])
                    if edge_type is None:
                        raise ValueError(f"{obj['type']!r} is not a valid EdgeType")
                    src_label, dst_label = EDGE_ENDPOINTS[edge_type]
                    src = tables[src_label].get(obj["src"])
                    dst = tables[dst_label].get(obj["dst"])
                    if src is None or dst is None:
                        raise ValueError("edge references unknown node")
                    _join(src, edge_type, dst)
                else:
                    raise ValueError(f"unknown record kind {kind!r}")
            except (KeyError, TypeError, ValueError, RecursionError) as exc:
                raise DataError(f"{path}:{line_no}: {type(exc).__name__}: {exc}") from None
    try:
        return g.freeze()
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None
