"""Canonical record types and parsers for the nine CTI data sources.

Two input shapes are supported:

* the normalized snapshot: UTF-8, newline-delimited, one self-describing
  JSON object per line carrying a ``kind`` field (adapter scripts convert
  raw upstream feeds into this form), and
* plain CSV for EPSS and KEV, the two upstreams with stable CSV exports.

Each kind is one row of ``SOURCES``: a field table that pairs every field
of the record type, in order and primary key first, with the reader of its
value, at most one rule over the whole record, and ``refs``: each field
naming other records, and their kind.  ``validate_snapshot`` and
``kgraph.build_graph`` read the references from ``refs`` alone.  One loop,
``Source.from_obj``, reads snapshot objects and CSV rows alike.  An absent
or ``null`` text field takes its default; a ``null`` list, a boolean where
a number belongs, or any value its reader refuses makes the line dirty.

Every record type is an immutable ``collections.namedtuple`` made from its
``SOURCES`` row, so its fields are stated once, and a record built in code
takes the defaults a parsed line takes: each trailing field whose reader
accepts an absent value defaults to what that reader returns.  Building a
record costs a tuple, and making its type costs far less at import than a
dataclass, which every command that parses feeds would pay.  Copy a
record with ``_replace``; its field names are in ``_fields``.  A record
is a tuple, so it equals any tuple with the same values, and ``json``
would write it as an array: no record is ever JSON-encoded, but each of
its fields is, through ``json_field``.
``ParseResult`` is filled in place, and each instance starts with lists
of its own.  A snapshot bundle is a plain dict from each ``SourceKind`` to
its records; a kind the dict lacks holds none.

Parsers are pure and reentrant.  Malformed lines are skipped and counted
rather than aborting: CTI feeds are routinely dirty.  Duplicate primary
keys are resolved last-wins with a warning; only that warning imports
``logging``.
"""

from __future__ import annotations

import csv
import json
import re
from collections import namedtuple
from datetime import date
from enum import Enum
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from .errors import BOM_AT_START, DataError
from .kinds import AttackVector, SkillLevel, SourceKind, TechnicalImpact

CVE_ID_RE = re.compile(r"^CVE-\d{4}-\d{4,}$")
CWE_ID_RE = re.compile(r"^CWE-\d+$")
CAPEC_ID_RE = re.compile(r"^CAPEC-\d+$")
TECHNIQUE_ID_RE = re.compile(r"^T\d+(\.\d+)?$")
TACTIC_ID_RE = re.compile(r"^TA\d+$")
GROUP_ID_RE = re.compile(r"^G\d+$")

EPSS_CSV_HEADER = ["cve", "epss", "percentile"]
KEV_CSV_HEADER = [
    "cveID", "vendorProject", "product", "vulnerabilityName",
    "dateAdded", "shortDescription", "requiredAction", "dueDate",
]


# ---------------------------------------------------------------------------
# Field readers: each reads one value as the record holds it, or raises ValueError
# ---------------------------------------------------------------------------

Reader = Callable[[object], object]
_ABSENT = object()  # the value of a field the object does not hold; null is None


def _text(default: str | None = "", pattern: re.Pattern | None = None) -> Reader:
    """A string that ``pattern``, if given, matches; absent or null reads as
    ``default``, or is missing if that is None."""
    def read(value):
        if value is None or value is _ABSENT:
            if default is None:
                raise ValueError("is missing")
            return default
        if not isinstance(value, str):
            raise ValueError("must be a string")
        if pattern is not None and not pattern.match(value):
            raise ValueError(f"is malformed: {value!r}")
        return value
    return read


def _strings(pattern: re.Pattern | None = None, non_empty: bool = False) -> Reader:
    """A list of strings that ``pattern``, if given, matches; absent reads as ()."""
    def read(value):
        if value is _ABSENT:
            value = []
        if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
            raise ValueError("must be a list of strings")
        if pattern is not None:
            for v in value:
                if not pattern.match(v):
                    raise ValueError(f"contains malformed id {v!r}")
        if non_empty and not value:
            raise ValueError("must be non-empty")
        return tuple(value)
    return read


def _date(value) -> date:
    """An ISO-8601 date string; any time-of-day suffix is discarded."""
    if not isinstance(value, str) or len(value) < 10:
        raise ValueError(f"is not an ISO date: {value!r}")
    return date.fromisoformat(value[:10])


def _number(convert: type, upper: float | None = None) -> Reader:
    """A number or numeric string as ``convert`` reads it, within [0, upper]
    if bounded.  A bool is not a number, and ``int`` takes whole numbers only."""
    def read(value):
        if isinstance(value, bool):
            raise ValueError(f"is not a number: {value!r}")
        try:
            number = convert(value)
        except (OverflowError, TypeError, ValueError):
            raise ValueError(f"is not a number: {value!r}") from None
        if convert is int and isinstance(value, float) and number != value:
            raise ValueError(f"is not a whole number: {value!r}")
        if upper is not None and not 0 <= number <= upper:
            raise ValueError(f"out of range [0, {upper:g}]: {number}")
        return number
    return read


def _member(enum: type[Enum], default: Enum | None = None) -> Reader:
    """A value of ``enum``; absent reads as ``default`` if there is one.

    Each value maps to its member through a dict built once: calling the
    Enum runs its Python-level ``__call__`` and ``__new__`` on every line.
    """
    members = {member.value: member for member in enum}

    def read(value):
        if value is _ABSENT and default is not None:
            return default
        try:
            return members[value]
        except (KeyError, TypeError):  # TypeError: an unhashable value
            raise ValueError(f"is not a {enum.__name__}: {value!r}") from None
    return read


def _members(enum: type[Enum]) -> Reader:
    """A list of values of ``enum``; absent reads as ()."""
    strings, member = _strings(), _member(enum)
    return lambda value: tuple(map(member, strings(value)))


def _flag(value) -> bool:
    """A truth value; absent or null reads as False."""
    return value is not _ABSENT and bool(value)


def _not_before(later: str, earlier: str) -> Callable[[object], None]:
    def check(record) -> None:
        if getattr(record, later) < getattr(record, earlier):
            raise ValueError(f"{later} precedes {earlier}")
    return check


def _current_english(entry: CpeEntry) -> None:
    """Deprecated and non-US-English dictionary entries are excluded from the
    canonical set; counting them as skips keeps skips+accepted == lines."""
    if entry.deprecated:
        raise ValueError("deprecated entry excluded")
    if entry.language_tag.lower().replace("_", "-") not in ("en", "en-us"):
        raise ValueError(f"language_tag {entry.language_tag!r} is not US English")


# ---------------------------------------------------------------------------
# Source kinds
# ---------------------------------------------------------------------------


class Source(NamedTuple):
    """Everything that tells one source kind's records apart."""

    record_type: type
    fields: dict[str, Reader]  # each field of record_type, in order: primary key first
    check: Callable[[object], None] | None = None  # a rule over the whole record
    aliases: Mapping[str, str] = MappingProxyType({})  # key read for an absent field
    # Each reference field, an id or a tuple of ids, and the kind whose keys it names.
    refs: Mapping[str, SourceKind] = MappingProxyType({})

    def from_obj(self, obj: dict):
        """The record ``obj`` holds; a ValueError names the field at fault."""
        values = []
        for name, read in self.fields.items():
            value = obj.get(name, _ABSENT)
            if value is _ABSENT and name in self.aliases:
                value = obj.get(self.aliases[name], _ABSENT)
            try:
                values.append(read(value))
            except ValueError as exc:
                problem = "is missing" if value is _ABSENT else exc
                raise ValueError(f"field {name!r} {problem}") from None
        record = self.record_type(*values)
        if self.check is not None:
            self.check(record)
        return record


def _source(name: str, fields: dict[str, Reader], **rules) -> Source:
    """The Source of record type ``name``, a named tuple of ``fields`` in order.
    Each trailing field defaults to what its reader reads for an absent
    value, back to the first reader that refuses one."""
    defaults = []
    for read in reversed(fields.values()):
        try:
            defaults.insert(0, read(_ABSENT))
        except ValueError:
            break
    return Source(namedtuple(name, fields, defaults=defaults, module=__name__), fields, **rules)


_OPTIONAL, _REQUIRED, _STRINGS = _text(), _text(None), _strings()
_CVE_ID = _text(None, CVE_ID_RE)
_TECHNIQUE_IDS = _strings(TECHNIQUE_ID_RE)
_UNIT = _number(float, 1.0)

SOURCES: dict[SourceKind, Source] = {
    SourceKind.CVE: _source("CveRecord", {
        "cve_id": _CVE_ID, "description": _OPTIONAL, "published": _date, "modified": _date,
        "cvss_base": _number(float, 10.0), "attack_vector": _member(AttackVector),
        "cwe_ids": _strings(CWE_ID_RE), "affected_cpes": _STRINGS, "reference_urls": _STRINGS,
    }, check=_not_before("modified", "published"), refs={"cwe_ids": SourceKind.CWE,
        "affected_cpes": SourceKind.CPE, "reference_urls": SourceKind.REFERENCE}),
    SourceKind.CPE: _source("CpeEntry", {
        "cpe_id": _REQUIRED, "vendor": _REQUIRED, "product": _REQUIRED, "deprecated": _flag,
        "language_tag": _text("en-US"),
    }, check=_current_english),
    SourceKind.CWE: _source("CweEntry", {
        "cwe_id": _text(None, CWE_ID_RE), "name": _OPTIONAL,
        "technical_impacts": _members(TechnicalImpact), "related_capecs": _strings(CAPEC_ID_RE),
    }, refs={"related_capecs": SourceKind.CAPEC}),
    SourceKind.CAPEC: _source("CapecEntry", {
        "capec_id": _text(None, CAPEC_ID_RE), "name": _OPTIONAL,
        "skill_level": _member(SkillLevel, SkillLevel.UNKNOWN),
        "related_techniques": _TECHNIQUE_IDS,
    }, refs={"related_techniques": SourceKind.TECHNIQUE}),
    SourceKind.TECHNIQUE: _source("AttackTechnique", {
        "technique_id": _text(None, TECHNIQUE_ID_RE), "name": _OPTIONAL,
        "tactic_ids": _strings(TACTIC_ID_RE, non_empty=True),
    }, refs={"tactic_ids": SourceKind.TACTIC}),
    SourceKind.TACTIC: _source("AttackTactic",
                               {"tactic_id": _text(None, TACTIC_ID_RE), "name": _OPTIONAL}),
    SourceKind.GROUP: _source("AttackGroupRaw", {
        "group_id": _text(None, GROUP_ID_RE), "name": _OPTIONAL, "description": _OPTIONAL,
        "created": _date, "technique_ids": _TECHNIQUE_IDS,
    }, refs={"technique_ids": SourceKind.TECHNIQUE}),
    # Upstream EPSS exports name the CVE column "cve".
    SourceKind.EPSS: _source("EpssScore", {
        "cve_id": _CVE_ID, "probability": _UNIT, "percentile": _UNIT,
    }, aliases={"cve_id": "cve"}, refs={"cve_id": SourceKind.CVE}),
    SourceKind.KEV: _source("KevEntry", {
        "cve_id": _CVE_ID, "vendor_project": _OPTIONAL, "product": _OPTIONAL,
        "vulnerability_name": _OPTIONAL, "date_added": _date, "short_description": _OPTIONAL,
        "required_action": _OPTIONAL, "due_date": _date,
    }, check=_not_before("due_date", "date_added"), refs={"cve_id": SourceKind.CVE}),
    SourceKind.EXPLOIT: _source("ExploitRef", {
        "exploitdb_id": _number(int), "cve_ids": _strings(CVE_ID_RE, non_empty=True),
    }, refs={"cve_ids": SourceKind.CVE}),
    SourceKind.REFERENCE: _source("ReferenceRecord", {"url": _REQUIRED}),
}

CveRecord = SOURCES[SourceKind.CVE].record_type
CpeEntry = SOURCES[SourceKind.CPE].record_type
CweEntry = SOURCES[SourceKind.CWE].record_type
CapecEntry = SOURCES[SourceKind.CAPEC].record_type
AttackTechnique = SOURCES[SourceKind.TECHNIQUE].record_type
AttackTactic = SOURCES[SourceKind.TACTIC].record_type
AttackGroupRaw = SOURCES[SourceKind.GROUP].record_type
EpssScore = SOURCES[SourceKind.EPSS].record_type
KevEntry = SOURCES[SourceKind.KEV].record_type
ExploitRef = SOURCES[SourceKind.EXPLOIT].record_type
ReferenceRecord = SOURCES[SourceKind.REFERENCE].record_type


# ---------------------------------------------------------------------------
# File parsing
# ---------------------------------------------------------------------------


class ParseResult:
    """Outcome of parsing one snapshot or CSV file.

    ``accepted + len(skipped)`` equals the number of data lines in the file
    (blank lines, comments, and CSV headers are not data lines).  When a
    primary key repeats, the later record wins and ``replaced`` counts the
    overwritten ones, so ``len(records) == accepted - replaced``.
    """

    __slots__ = ("records", "accepted", "skipped", "replaced")

    def __init__(self):
        self.records: list = []
        self.accepted = 0
        self.skipped: list[tuple[int, str]] = []
        self.replaced = 0

    @property
    def skipped_count(self) -> int:
        return len(self.skipped)


def _utf8(text: str) -> str:
    """``text``, or UnicodeEncodeError (a ValueError) for a non-UTF-8 byte,
    which ``errors="surrogateescape"`` reading left as a lone surrogate."""
    text.encode("utf-8")
    return text


def _collect(path: str | Path, rows: Iterable[tuple[int, object]],
             to_record: Callable) -> ParseResult:
    """Convert ``(line_no, payload)`` rows; a ValueError skips the row, as
    does a RecursionError (a JSON line nested too deeply to decode).

    A repeated primary key, a record's first field, keeps the later record,
    in the first one's place.
    """
    result = ParseResult()
    by_key: dict = {}
    for line_no, payload in rows:
        try:
            record = to_record(payload)
        except (ValueError, RecursionError) as exc:
            result.skipped.append((line_no, str(exc)))
            continue
        result.accepted += 1
        key = record[0]
        if key in by_key:
            result.replaced += 1
            # Imported only here: clean feeds never load logging.
            import logging

            logging.getLogger(__name__).warning(
                "%s: duplicate primary key %r, keeping the later record", path, key)
        by_key[key] = record
    result.records = list(by_key.values())
    return result


_raw_decode = json.JSONDecoder().raw_decode


def _json_value(line: str):
    """``json.loads(line)`` for a stripped line, raising the same errors,
    without its per-call argument handling."""
    if line.startswith("\ufeff"):
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", line, 0)
    value, end = _raw_decode(line)
    if end != len(line):
        # json.loads points past the whitespace that follows the value.
        end = len(line) - len(line[end:].lstrip(" \t\n\r"))
        raise json.JSONDecodeError("Extra data", line, end)
    return value


def json_field(value):
    """The JSON form of a record field: a date as its ISO string, an enum
    member as its value, a tuple as a list of those, anything else as is."""
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, date):
        return value.isoformat()
    if isinstance(value, tuple):
        return [json_field(v) for v in value]
    return value


def parse_snapshot(path: str | Path, kind: SourceKind | str) -> ParseResult:
    """Parse a normalized snapshot file containing records of one kind.

    Malformed lines (bad bytes, bad JSON, wrong kind, invalid fields) are
    skipped with a per-line diagnostic; an unreadable file raises OSError.
    """
    kind = SourceKind(kind)
    from_obj = SOURCES[kind].from_obj

    def to_record(line: str):
        obj = _json_value(_utf8(line))
        if not isinstance(obj, dict):
            raise ValueError("record line is not an object")
        found = obj.get("kind")
        if found != kind.value:
            raise ValueError(f"expected kind {kind.value!r}, found {found!r}")
        return from_obj(obj)

    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        rows = ((line_no, line.strip()) for line_no, line in enumerate(fh, start=1)
                if not line.isspace())
        return _collect(path, rows, to_record)


def _csv_rows(path: str | Path, header: list[str], source: str) -> Iterator[tuple[int, list[str]]]:
    """``(line_no, row)`` per data row; the first row that is not blank or a
    ``#`` comment must be ``header``, else the file is a DataError."""
    with open(path, encoding="utf-8", errors="surrogateescape", newline="") as fh:
        header_seen = False
        for line_no, row in enumerate(csv.reader(fh), start=1):
            if not row or row[0].startswith("#"):
                continue
            if header_seen:
                yield line_no, row
            elif [c.strip() for c in row] == header:
                header_seen = True
            elif line_no == 1 and row[0].startswith("\ufeff"):
                raise DataError(f"{path}: {BOM_AT_START}")
            else:
                raise DataError(
                    f"{path}: expected {source} header {','.join(header)!r}, "
                    f"found {','.join(row)!r}"
                )


def _parse_csv(path: str | Path, kind: SourceKind, header: list[str],
               stripped: tuple[str, ...]) -> ParseResult:
    """Parse a CSV export whose columns are ``kind``'s fields, in order;
    the ``stripped`` fields are read with surrounding blanks removed."""
    source = SOURCES[kind]

    def to_record(row: list[str]):
        if len(row) != len(header):
            raise ValueError(f"expected {len(header)} columns, found {len(row)}")
        _utf8(",".join(row))
        obj = dict(zip(source.fields, row))
        for name in stripped:
            obj[name] = obj[name].strip()
        return source.from_obj(obj)

    return _collect(path, _csv_rows(path, header, kind.value.upper()), to_record)


def parse_epss_csv(path: str | Path) -> ParseResult:
    """Parse an EPSS CSV export (header ``cve,epss,percentile``).

    Comment lines starting with ``#`` are allowed; rows with a probability
    or percentile outside [0,1] are rejected with a diagnostic.
    """
    return _parse_csv(path, SourceKind.EPSS, EPSS_CSV_HEADER, ("cve_id",))


def parse_kev_csv(path: str | Path) -> ParseResult:
    """Parse a KEV catalog CSV (the eight-column CISA export header)."""
    return _parse_csv(path, SourceKind.KEV, KEV_CSV_HEADER, ("cve_id", "date_added", "due_date"))


# ---------------------------------------------------------------------------
# Snapshot bundles and cross-record validation
# ---------------------------------------------------------------------------


def check_bundle(bundle: Mapping[SourceKind, Iterable]) -> None:
    """A TypeError naming the first key of ``bundle`` that is no SourceKind value."""
    for key in bundle:
        if key not in SOURCES:
            raise TypeError(f"snapshot bundle key {key!r} is not a SourceKind value")


class Finding(NamedTuple):
    subject: str
    detail: str


class ValidationReport(NamedTuple):
    """Each reference a snapshot makes to a record it does not hold."""

    findings: list[Finding]


# The kinds a finding names in capitals; it names the others by their value.
_ACRONYMS = frozenset({SourceKind.CVE, SourceKind.CPE, SourceKind.CWE, SourceKind.CAPEC})


def validate_snapshot(bundle: Mapping[SourceKind, Iterable]) -> ValidationReport:
    """The dangling references of a snapshot: each id that a record names in
    one of its kind's ``refs`` and no record of the named kind holds.  No
    findings when every reference resolves.

    Findings come record by record, in ``SOURCES`` order, and within a
    record in the order of its ``refs``.  A finding's subject is the
    record's primary key, prefixed with its kind when the key is not a
    string (``exploit 7``).  ``bundle`` maps each kind to its records.
    """
    check_bundle(bundle)
    keys = {target: {record[0] for record in bundle.get(target, ())}
            for source in SOURCES.values() for target in source.refs.values()}
    findings: list[Finding] = []
    for kind, source in SOURCES.items():
        refs = [(field, keys[target], target.value.upper() if target in _ACRONYMS
                 else target.value) for field, target in source.refs.items()]
        if not refs:
            continue
        for record in bundle.get(kind, ()):
            for field, present, noun in refs:
                ids = getattr(record, field)
                if type(ids) is str:
                    ids = (ids,)
                if not present.issuperset(ids):
                    subject = record[0] if type(record[0]) is str else f"{kind.value} {record[0]}"
                    findings += [Finding(subject, f"references absent {noun} {target}")
                                 for target in ids if target not in present]
    return ValidationReport(findings)
