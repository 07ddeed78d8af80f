"""Canonical record types and parsers for the nine CTI data sources.

Two input shapes are supported:

* the normalized snapshot: UTF-8, newline-delimited, one self-describing
  JSON object per line carrying a ``kind`` field (adapter scripts convert
  raw upstream feeds into this form), and
* plain CSV for EPSS and KEV, the two upstreams with stable CSV exports.

Parsers are pure and reentrant.  Malformed lines are skipped and counted
rather than aborting: CTI feeds are routinely dirty.  Duplicate primary
keys are resolved last-wins with a warning.  Dates are ISO-8601 calendar
dates in UTC; any time-of-day component is discarded.
"""

from __future__ import annotations

import csv
import json
import logging
import re
from dataclasses import dataclass, field, fields
from datetime import date
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .errors import DataFormatError
from .kinds import AttackVector, SkillLevel, SourceKind, TechnicalImpact

log = logging.getLogger(__name__)

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


@dataclass(frozen=True)
class CveRecord:
    cve_id: str
    description: str
    published: date
    modified: date
    cvss_base: float
    attack_vector: AttackVector
    cwe_ids: tuple[str, ...] = ()
    affected_cpes: tuple[str, ...] = ()
    reference_urls: tuple[str, ...] = ()


@dataclass(frozen=True)
class CpeEntry:
    cpe_id: str
    vendor: str
    product: str
    deprecated: bool = False
    language_tag: str = "en-US"


@dataclass(frozen=True)
class CweEntry:
    cwe_id: str
    name: str
    technical_impacts: tuple[TechnicalImpact, ...] = ()
    related_capecs: tuple[str, ...] = ()


@dataclass(frozen=True)
class CapecEntry:
    capec_id: str
    name: str
    skill_level: SkillLevel = SkillLevel.UNKNOWN
    related_techniques: tuple[str, ...] = ()


@dataclass(frozen=True)
class AttackTechnique:
    technique_id: str
    name: str
    tactic_ids: tuple[str, ...] = ()


@dataclass(frozen=True)
class AttackTactic:
    tactic_id: str
    name: str


@dataclass(frozen=True)
class AttackGroupRaw:
    group_id: str
    name: str
    description: str
    created: date
    technique_ids: tuple[str, ...] = ()


@dataclass(frozen=True)
class EpssScore:
    cve_id: str
    probability: float
    percentile: float


@dataclass(frozen=True)
class KevEntry:
    cve_id: str
    vendor_project: str
    product: str
    vulnerability_name: str
    date_added: date
    short_description: str
    required_action: str
    due_date: date


@dataclass(frozen=True)
class ExploitRef:
    exploitdb_id: int
    cve_ids: tuple[str, ...]


@dataclass(frozen=True)
class ReferenceRecord:
    url: str


# ---------------------------------------------------------------------------
# Field-level parsing helpers
# ---------------------------------------------------------------------------


def _parse_date(value) -> date:
    """Parse an ISO-8601 date, discarding any time-of-day suffix."""
    if isinstance(value, date):
        return value
    if not isinstance(value, str) or len(value) < 10:
        raise ValueError(f"not an ISO date: {value!r}")
    return date.fromisoformat(value[:10])


def _parse_str(obj: dict, key: str, required: bool = True, default: str = "") -> str:
    value = obj.get(key)
    if value is None:
        if required:
            raise ValueError(f"missing field {key!r}")
        return default
    if not isinstance(value, str):
        raise ValueError(f"field {key!r} must be a string")
    return value


def _parse_str_list(obj: dict, key: str, pattern: re.Pattern | None = None) -> tuple[str, ...]:
    value = obj.get(key, [])
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ValueError(f"field {key!r} must be a list of strings")
    if pattern is not None:
        for v in value:
            if not pattern.match(v):
                raise ValueError(f"field {key!r} contains malformed id {v!r}")
    return tuple(value)


def _parse_unit(obj: dict, key: str) -> float:
    try:
        value = float(obj[key])
    except KeyError:
        raise ValueError(f"missing field {key!r}") from None
    except (OverflowError, TypeError, ValueError):
        raise ValueError(f"field {key!r} is not a number") from None
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"field {key!r} out of range [0,1]: {value}")
    return value


def _require_id(value: str, pattern: re.Pattern, what: str) -> str:
    if not pattern.match(value):
        raise ValueError(f"malformed {what}: {value!r}")
    return value


# ---------------------------------------------------------------------------
# Per-kind object -> record converters
# ---------------------------------------------------------------------------


def _cve_from_obj(obj: dict) -> CveRecord:
    cve_id = _require_id(_parse_str(obj, "cve_id"), CVE_ID_RE, "CVE id")
    published = _parse_date(obj.get("published"))
    modified = _parse_date(obj.get("modified"))
    if modified < published:
        raise ValueError(f"{cve_id}: modified {modified} precedes published {published}")
    try:
        cvss = float(obj["cvss_base"])
    except (KeyError, OverflowError, TypeError, ValueError):
        raise ValueError(f"{cve_id}: bad cvss_base") from None
    if not 0.0 <= cvss <= 10.0:
        raise ValueError(f"{cve_id}: cvss_base out of range: {cvss}")
    try:
        vector = AttackVector(_parse_str(obj, "attack_vector"))
    except ValueError:
        raise ValueError(f"{cve_id}: unknown attack_vector {obj.get('attack_vector')!r}") from None
    return CveRecord(
        cve_id=cve_id,
        description=_parse_str(obj, "description", required=False),
        published=published,
        modified=modified,
        cvss_base=cvss,
        attack_vector=vector,
        cwe_ids=_parse_str_list(obj, "cwe_ids", CWE_ID_RE),
        affected_cpes=_parse_str_list(obj, "affected_cpes"),
        reference_urls=_parse_str_list(obj, "reference_urls"),
    )


def _cpe_from_obj(obj: dict) -> CpeEntry:
    entry = CpeEntry(
        cpe_id=_parse_str(obj, "cpe_id"),
        vendor=_parse_str(obj, "vendor"),
        product=_parse_str(obj, "product"),
        deprecated=bool(obj.get("deprecated", False)),
        language_tag=_parse_str(obj, "language_tag", required=False, default="en-US"),
    )
    # Deprecated and non-US-English dictionary entries are excluded from the
    # canonical set; counting them as skips keeps skips+accepted == lines.
    if entry.deprecated:
        raise ValueError(f"{entry.cpe_id}: deprecated entry excluded")
    tag = entry.language_tag.lower().replace("_", "-")
    if tag not in ("en", "en-us"):
        raise ValueError(f"{entry.cpe_id}: non-US-English entry excluded ({entry.language_tag})")
    return entry


def _cwe_from_obj(obj: dict) -> CweEntry:
    cwe_id = _require_id(_parse_str(obj, "cwe_id"), CWE_ID_RE, "CWE id")
    impacts = []
    for raw in _parse_str_list(obj, "technical_impacts"):
        try:
            impacts.append(TechnicalImpact(raw))
        except ValueError:
            raise ValueError(f"{cwe_id}: unknown technical impact {raw!r}") from None
    return CweEntry(
        cwe_id=cwe_id,
        name=_parse_str(obj, "name", required=False),
        technical_impacts=tuple(impacts),
        related_capecs=_parse_str_list(obj, "related_capecs", CAPEC_ID_RE),
    )


def _capec_from_obj(obj: dict) -> CapecEntry:
    capec_id = _require_id(_parse_str(obj, "capec_id"), CAPEC_ID_RE, "CAPEC id")
    try:
        skill = SkillLevel(obj.get("skill_level", "Unknown"))
    except ValueError:
        raise ValueError(f"{capec_id}: unknown skill level {obj.get('skill_level')!r}") from None
    return CapecEntry(
        capec_id=capec_id,
        name=_parse_str(obj, "name", required=False),
        skill_level=skill,
        related_techniques=_parse_str_list(obj, "related_techniques", TECHNIQUE_ID_RE),
    )


def _technique_from_obj(obj: dict) -> AttackTechnique:
    technique_id = _require_id(_parse_str(obj, "technique_id"), TECHNIQUE_ID_RE, "technique id")
    tactics = _parse_str_list(obj, "tactic_ids", TACTIC_ID_RE)
    if not tactics:
        raise ValueError(f"{technique_id}: technique must reference at least one tactic")
    return AttackTechnique(
        technique_id=technique_id,
        name=_parse_str(obj, "name", required=False),
        tactic_ids=tactics,
    )


def _tactic_from_obj(obj: dict) -> AttackTactic:
    return AttackTactic(
        tactic_id=_require_id(_parse_str(obj, "tactic_id"), TACTIC_ID_RE, "tactic id"),
        name=_parse_str(obj, "name", required=False),
    )


def _group_from_obj(obj: dict) -> AttackGroupRaw:
    return AttackGroupRaw(
        group_id=_require_id(_parse_str(obj, "group_id"), GROUP_ID_RE, "group id"),
        name=_parse_str(obj, "name", required=False),
        description=_parse_str(obj, "description", required=False),
        created=_parse_date(obj.get("created")),
        technique_ids=_parse_str_list(obj, "technique_ids", TECHNIQUE_ID_RE),
    )


def _epss_from_obj(obj: dict) -> EpssScore:
    # Accept "cve" as an alias used by upstream exports; serialize as cve_id.
    raw_id = obj.get("cve_id", obj.get("cve"))
    if not isinstance(raw_id, str):
        raise ValueError("missing field 'cve_id'")
    return EpssScore(
        cve_id=_require_id(raw_id, CVE_ID_RE, "CVE id"),
        probability=_parse_unit(obj, "probability"),
        percentile=_parse_unit(obj, "percentile"),
    )


def _kev_from_obj(obj: dict) -> KevEntry:
    cve_id = _require_id(_parse_str(obj, "cve_id"), CVE_ID_RE, "CVE id")
    date_added = _parse_date(obj.get("date_added"))
    due_date = _parse_date(obj.get("due_date"))
    if due_date < date_added:
        raise ValueError(f"{cve_id}: due_date precedes date_added")
    return KevEntry(
        cve_id=cve_id,
        vendor_project=_parse_str(obj, "vendor_project", required=False),
        product=_parse_str(obj, "product", required=False),
        vulnerability_name=_parse_str(obj, "vulnerability_name", required=False),
        date_added=date_added,
        short_description=_parse_str(obj, "short_description", required=False),
        required_action=_parse_str(obj, "required_action", required=False),
        due_date=due_date,
    )


def _exploit_from_obj(obj: dict) -> ExploitRef:
    try:
        exploitdb_id = int(obj["exploitdb_id"])
    except (KeyError, OverflowError, TypeError, ValueError):
        raise ValueError("bad exploitdb_id") from None
    cve_ids = _parse_str_list(obj, "cve_ids", CVE_ID_RE)
    if not cve_ids:
        raise ValueError(f"exploit {exploitdb_id}: cve_ids must be non-empty")
    return ExploitRef(exploitdb_id=exploitdb_id, cve_ids=cve_ids)


def _reference_from_obj(obj: dict) -> ReferenceRecord:
    return ReferenceRecord(url=_parse_str(obj, "url"))


# ---------------------------------------------------------------------------
# Source kinds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Source:
    """Everything that tells one source kind's records apart."""

    record_type: type
    key: str  # primary-key field of record_type
    bundle_field: str  # the SnapshotBundle list holding these records
    from_obj: Callable[[dict], object]


SOURCES: dict[SourceKind, Source] = {
    SourceKind.CVE: Source(CveRecord, "cve_id", "cves", _cve_from_obj),
    SourceKind.CPE: Source(CpeEntry, "cpe_id", "cpes", _cpe_from_obj),
    SourceKind.CWE: Source(CweEntry, "cwe_id", "cwes", _cwe_from_obj),
    SourceKind.CAPEC: Source(CapecEntry, "capec_id", "capecs", _capec_from_obj),
    SourceKind.TECHNIQUE: Source(AttackTechnique, "technique_id", "techniques",
                                 _technique_from_obj),
    SourceKind.TACTIC: Source(AttackTactic, "tactic_id", "tactics", _tactic_from_obj),
    SourceKind.GROUP: Source(AttackGroupRaw, "group_id", "groups", _group_from_obj),
    SourceKind.EPSS: Source(EpssScore, "cve_id", "epss", _epss_from_obj),
    SourceKind.KEV: Source(KevEntry, "cve_id", "kev", _kev_from_obj),
    SourceKind.EXPLOIT: Source(ExploitRef, "exploitdb_id", "exploits", _exploit_from_obj),
    SourceKind.REFERENCE: Source(ReferenceRecord, "url", "references", _reference_from_obj),
}

_KIND_BY_TYPE = {source.record_type: kind for kind, source in SOURCES.items()}


def primary_key(record) -> str | int:
    """Primary key value of any canonical record."""
    return getattr(record, SOURCES[_KIND_BY_TYPE[type(record)]].key)


def record_to_obj(record) -> dict:
    """Serialize a canonical record back to its normalized snapshot object."""
    kind = _KIND_BY_TYPE[type(record)]
    obj: dict = {"kind": kind.value}
    for f in fields(record):
        value = getattr(record, f.name)
        if isinstance(value, date):
            value = value.isoformat()
        elif isinstance(value, Enum):
            value = value.value
        elif isinstance(value, tuple):
            value = [v.value if isinstance(v, Enum) else v for v in value]
        obj[f.name] = value
    return obj


# ---------------------------------------------------------------------------
# File parsing
# ---------------------------------------------------------------------------


@dataclass
class ParseResult:
    """Outcome of parsing one snapshot or CSV file.

    ``accepted + len(skipped)`` equals the number of data lines in the file
    (blank lines, comments, and CSV headers are not data lines).  When a
    primary key repeats, the later record wins and ``replaced`` counts the
    overwritten ones, so ``len(records) == accepted - replaced``.
    """

    records: list = field(default_factory=list)
    accepted: int = 0
    skipped: list[tuple[int, str]] = field(default_factory=list)
    replaced: int = 0

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
    """Convert ``(line_no, payload)`` rows; a ValueError skips the row.

    A repeated primary key keeps the later record, in the first one's place.
    """
    result = ParseResult()
    by_key: dict = {}
    for line_no, payload in rows:
        try:
            record = to_record(payload)
        except ValueError as exc:
            result.skipped.append((line_no, str(exc)))
            continue
        result.accepted += 1
        key = primary_key(record)
        if key in by_key:
            result.replaced += 1
            log.warning("%s: duplicate primary key %r, keeping the later record", path, key)
        by_key[key] = record
    result.records = list(by_key.values())
    return result


def parse_snapshot(path: str | Path, kind: SourceKind | str) -> ParseResult:
    """Parse a normalized snapshot file containing records of one kind.

    Malformed lines (bad bytes, bad JSON, wrong kind, invalid fields) are
    skipped with a per-line diagnostic; an unreadable file raises OSError.
    """
    kind = SourceKind(kind)
    from_obj = SOURCES[kind].from_obj

    def to_record(line: str):
        obj = json.loads(_utf8(line))
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


def dump_snapshot(records: Iterable, path: str | Path) -> None:
    """Write canonical records in the normalized newline-delimited format."""
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        for record in records:
            fh.write(json.dumps(record_to_obj(record), sort_keys=False))
            fh.write("\n")


def _csv_rows(path: str | Path, header: list[str], source: str) -> Iterator[tuple[int, list[str]]]:
    """``(line_no, row)`` per data row; the first row that is not blank or a
    ``#`` comment must be ``header``, else the file is a DataFormatError."""
    with open(path, encoding="utf-8", errors="surrogateescape", newline="") as fh:
        header_seen = False
        for line_no, row in enumerate(csv.reader(fh), start=1):
            if not row or row[0].startswith("#"):
                continue
            if header_seen:
                yield line_no, row
            elif [c.strip() for c in row] == header:
                header_seen = True
            else:
                raise DataFormatError(
                    f"{path}: expected {source} header {','.join(header)!r}, "
                    f"found {','.join(row)!r}"
                )


def _check_row(row: list[str], width: int) -> None:
    if len(row) != width:
        raise ValueError(f"expected {width} columns, found {len(row)}")
    _utf8(",".join(row))


def _epss_from_row(row: list[str]) -> EpssScore:
    _check_row(row, 3)
    return _epss_from_obj({"cve_id": row[0].strip(), "probability": row[1], "percentile": row[2]})


_KEV_FIELDS = [f.name for f in fields(KevEntry)]  # the CISA columns, in order


def _kev_from_row(row: list[str]) -> KevEntry:
    _check_row(row, 8)
    obj = dict(zip(_KEV_FIELDS, row))
    for name in ("cve_id", "date_added", "due_date"):
        obj[name] = obj[name].strip()
    return _kev_from_obj(obj)


def parse_epss_csv(path: str | Path) -> ParseResult:
    """Parse an EPSS CSV export (header ``cve,epss,percentile``).

    Comment lines starting with ``#`` are allowed; rows with a probability
    or percentile outside [0,1] are rejected with a diagnostic.
    """
    return _collect(path, _csv_rows(path, EPSS_CSV_HEADER, "EPSS"), _epss_from_row)


def parse_kev_csv(path: str | Path) -> ParseResult:
    """Parse a KEV catalog CSV (the eight-column CISA export header)."""
    return _collect(path, _csv_rows(path, KEV_CSV_HEADER, "KEV"), _kev_from_row)


# ---------------------------------------------------------------------------
# Snapshot bundles and cross-record validation
# ---------------------------------------------------------------------------


@dataclass
class SnapshotBundle:
    """All canonical records of one snapshot, grouped by source kind."""

    cves: list[CveRecord] = field(default_factory=list)
    cpes: list[CpeEntry] = field(default_factory=list)
    cwes: list[CweEntry] = field(default_factory=list)
    capecs: list[CapecEntry] = field(default_factory=list)
    techniques: list[AttackTechnique] = field(default_factory=list)
    tactics: list[AttackTactic] = field(default_factory=list)
    groups: list[AttackGroupRaw] = field(default_factory=list)
    epss: list[EpssScore] = field(default_factory=list)
    kev: list[KevEntry] = field(default_factory=list)
    exploits: list[ExploitRef] = field(default_factory=list)
    references: list[ReferenceRecord] = field(default_factory=list)

    @classmethod
    def from_records(cls, records: Iterable) -> "SnapshotBundle":
        bundle = cls()
        for record in records:
            getattr(bundle, SOURCES[_KIND_BY_TYPE[type(record)]].bundle_field).append(record)
        return bundle


@dataclass(frozen=True)
class Finding:
    category: str  # dangling_reference | duplicate | out_of_range
    subject: str
    detail: str


@dataclass
class ValidationReport:
    findings: list[Finding] = field(default_factory=list)

    def by_category(self, category: str) -> list[Finding]:
        return [f for f in self.findings if f.category == category]


def validate_snapshot(records) -> ValidationReport:
    """Cross-check a snapshot: dangling references, duplicates, ranges.

    Accepts a SnapshotBundle or any iterable of canonical records.  The
    report is empty exactly when the snapshot is internally consistent.
    """
    bundle = records if isinstance(records, SnapshotBundle) else SnapshotBundle.from_records(records)
    report = ValidationReport()

    keys: dict[SourceKind, set] = {}
    for kind in SourceKind:
        source = SOURCES[kind]
        seen = keys[kind] = set()
        for item in getattr(bundle, source.bundle_field):
            key = getattr(item, source.key)
            if key in seen:
                report.findings.append(
                    Finding("duplicate", str(key), f"duplicate {kind.value} record"))
            seen.add(key)

    def dangling(subject, targets, present, what):
        for target in targets:
            if target not in present:
                report.findings.append(
                    Finding("dangling_reference", subject, f"references absent {what} {target}")
                )

    for cve in bundle.cves:
        dangling(cve.cve_id, cve.cwe_ids, keys[SourceKind.CWE], "CWE")
        dangling(cve.cve_id, cve.affected_cpes, keys[SourceKind.CPE], "CPE")
        dangling(cve.cve_id, cve.reference_urls, keys[SourceKind.REFERENCE], "reference")
        if not 0.0 <= cve.cvss_base <= 10.0:
            report.findings.append(Finding("out_of_range", cve.cve_id, f"cvss_base {cve.cvss_base}"))
        if cve.modified < cve.published:
            report.findings.append(
                Finding("out_of_range", cve.cve_id, "modified date precedes published date")
            )
    for cwe in bundle.cwes:
        dangling(cwe.cwe_id, cwe.related_capecs, keys[SourceKind.CAPEC], "CAPEC")
    for capec in bundle.capecs:
        dangling(capec.capec_id, capec.related_techniques, keys[SourceKind.TECHNIQUE], "technique")
    for technique in bundle.techniques:
        dangling(technique.technique_id, technique.tactic_ids, keys[SourceKind.TACTIC], "tactic")
    for group in bundle.groups:
        dangling(group.group_id, group.technique_ids, keys[SourceKind.TECHNIQUE], "technique")
    for score in bundle.epss:
        dangling(score.cve_id, [score.cve_id], keys[SourceKind.CVE], "CVE")
        if not (0.0 <= score.probability <= 1.0 and 0.0 <= score.percentile <= 1.0):
            report.findings.append(Finding("out_of_range", score.cve_id, "EPSS values outside [0,1]"))
    for entry in bundle.kev:
        dangling(entry.cve_id, [entry.cve_id], keys[SourceKind.CVE], "CVE")
        if entry.due_date < entry.date_added:
            report.findings.append(
                Finding("out_of_range", entry.cve_id, "due_date precedes date_added")
            )
    for ref in bundle.exploits:
        dangling(f"exploit {ref.exploitdb_id}", ref.cve_ids, keys[SourceKind.CVE], "CVE")
        if not ref.cve_ids:
            report.findings.append(
                Finding("out_of_range", str(ref.exploitdb_id), "exploit ref with no CVEs")
            )
    return report
