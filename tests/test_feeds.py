from __future__ import annotations

import json
from datetime import date, timedelta
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threatrank import feeds
from threatrank.errors import DataError
from threatrank.feeds import (
    SOURCES,
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
    SourceKind,
    Finding,
    TechnicalImpact,
    ValidationReport,
    parse_epss_csv,
    parse_kev_csv,
    parse_snapshot,
    validate_snapshot,
)
from threatrank.kgraph import build_graph
from scripts.snapshot_writer import dump_snapshot, record_to_obj
from tests.conftest import CASE_STUDY, VOCAB

# ---------------------------------------------------------------------------
# EPSS CSV
# ---------------------------------------------------------------------------


def test_parse_epss_csv(tmp_path):
    path = tmp_path / "epss.csv"
    path.write_text(
        "# snapshot comment\n"
        "cve,epss,percentile\n"
        "CVE-2021-38000,0.876,0.94\n"
        "CVE-2020-0001,0,0\n"
        "CVE-2020-0002,1.2,0.5\n",
        encoding="utf-8",
    )
    result = parse_epss_csv(path)
    assert [(r.cve_id, r.probability, r.percentile) for r in result.records] == [
        ("CVE-2021-38000", 0.876, 0.94),
        ("CVE-2020-0001", 0.0, 0.0),
    ]
    assert result.accepted == 2
    assert result.skipped_count == 1
    assert "out of range" in result.skipped[0][1]


def test_parse_epss_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "epss.csv"
    path.write_text("cve,score,pct\nCVE-2020-0001,0,0\n", encoding="utf-8")
    with pytest.raises(DataError):
        parse_epss_csv(path)


def test_parse_epss_duplicate_last_wins(tmp_path, caplog):
    path = tmp_path / "epss.csv"
    path.write_text(
        "cve,epss,percentile\n"
        "CVE-2020-1000,0.1,0.2\n"
        "CVE-2020-1000,0.3,0.4\n",
        encoding="utf-8",
    )
    with caplog.at_level("WARNING"):
        result = parse_epss_csv(path)
    assert len(result.records) == 1
    assert result.records[0].probability == 0.3
    assert result.replaced == 1
    assert "duplicate" in caplog.text


# ---------------------------------------------------------------------------
# KEV CSV
# ---------------------------------------------------------------------------

KEV_HEADER = ("cveID,vendorProject,product,vulnerabilityName,dateAdded,"
              "shortDescription,requiredAction,dueDate\n")


def test_parse_kev_csv(tmp_path):
    path = tmp_path / "kev.csv"
    path.write_text(
        KEV_HEADER
        + "CVE-2021-38000,Google,Chromium,Chromium Input Validation,"
          "2021-11-03,desc,Apply updates per vendor instructions.,2021-11-17\n",
        encoding="utf-8",
    )
    result = parse_kev_csv(path)
    assert result.accepted == 1 and not result.skipped
    entry = result.records[0]
    assert entry.cve_id == "CVE-2021-38000"
    assert entry.date_added == date(2021, 11, 3)
    assert entry.due_date == date(2021, 11, 17)


def test_parse_kev_csv_empty_data_section(tmp_path):
    path = tmp_path / "kev.csv"
    path.write_text(KEV_HEADER, encoding="utf-8")
    result = parse_kev_csv(path)
    assert result.records == [] and result.accepted == 0


def test_parse_kev_rejects_inverted_dates(tmp_path):
    path = tmp_path / "kev.csv"
    path.write_text(
        KEV_HEADER
        + "CVE-2021-38000,Google,Chromium,n,2021-11-17,d,a,2021-11-03\n",
        encoding="utf-8",
    )
    result = parse_kev_csv(path)
    assert result.records == []
    assert result.skipped_count == 1


def test_parse_kev_rejects_unparseable_date(tmp_path):
    path = tmp_path / "kev.csv"
    path.write_text(
        KEV_HEADER + "CVE-2021-38000,Google,Chromium,n,not-a-date,d,a,2021-11-17\n",
        encoding="utf-8",
    )
    result = parse_kev_csv(path)
    assert result.records == [] and result.skipped_count == 1


# ---------------------------------------------------------------------------
# Normalized snapshots
# ---------------------------------------------------------------------------


def test_parse_snapshot_epss_envelope(tmp_path):
    path = tmp_path / "epss.jsonl"
    path.write_text(
        '{"kind":"epss","cve":"CVE-2021-38000","probability":0.876,"percentile":0.94}\n',
        encoding="utf-8",
    )
    result = parse_snapshot(path, SourceKind.EPSS)
    assert result.records == [EpssScore("CVE-2021-38000", 0.876, 0.94)]


def test_parse_snapshot_empty_file(tmp_path):
    path = tmp_path / "cve.jsonl"
    path.write_text("", encoding="utf-8")
    result = parse_snapshot(path, SourceKind.CVE)
    assert result.records == []
    assert result.accepted == 0 and result.skipped_count == 0


def test_parse_snapshot_unreadable_file_is_fatal(tmp_path):
    with pytest.raises(OSError):
        parse_snapshot(tmp_path / "missing.jsonl", SourceKind.CVE)


def test_parse_snapshot_skip_counts(tmp_path):
    # 100 valid rows plus 3 corrupted ones; the expected split is fixed by
    # an independent per-line filter below rather than by the parser.
    valid = [
        json.dumps({"kind": "epss", "cve_id": f"CVE-2020-{10000 + i}",
                    "probability": 0.5, "percentile": 0.5})
        for i in range(100)
    ]
    corrupted = [
        "{not json at all",
        json.dumps({"kind": "cve", "cve_id": "CVE-2020-0001"}),  # wrong kind
        json.dumps({"kind": "epss", "cve_id": "CVE-2020-1", "probability": 2.0,
                    "percentile": 0.5}),  # bad id and range
    ]
    lines = []
    for i, line in enumerate(valid):
        lines.append(line)
        if i in (10, 50, 90):
            lines.append(corrupted[(i // 40)])
    path = tmp_path / "epss.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def oracle_ok(line: str) -> bool:
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            return False
        return (obj.get("kind") == "epss"
                and isinstance(obj.get("cve_id"), str)
                and obj["cve_id"].startswith("CVE-2020-1")
                and 0 <= obj["probability"] <= 1
                and 0 <= obj["percentile"] <= 1)

    expected_good = sum(1 for line in lines if oracle_ok(line))
    assert expected_good == 100

    result = parse_snapshot(path, SourceKind.EPSS)
    assert len(result.records) == 100
    assert result.skipped_count == 3
    assert result.accepted + result.skipped_count == len(lines)


@pytest.mark.parametrize("line", [
    '{"kind": "cve"}', '[1, 2]', '"text"', '3', 'null',
    '\ufeff{"kind": "cve"}', '\ufeff', '{"a": 1}{"b": 2}', '{"a": 1} \t {"b": 2}',
    '{"a": 1} x', '{"a": 1},', '{"a": 1', '{"a": }', '{"a": 1}\x00', 'nul', '\x00{}',
    '{"a": "\\ud800"}', '{"a": NaN}', '{"a" 1}', '[1,]',
])
def test_line_decoding_matches_json_loads(line):
    try:
        expected = ("value", json.loads(line))
    except json.JSONDecodeError as exc:
        expected = ("error", str(exc))
    try:
        got = ("value", feeds._json_value(line))
    except json.JSONDecodeError as exc:
        got = ("error", str(exc))
    assert repr(got) == repr(expected)


_SNAPSHOT_FILES = sorted(CASE_STUDY.glob("snapshots/*.jsonl"))


def _parse_outcome(path, kind):
    result = parse_snapshot(path, kind)
    return result.skipped, repr(result.records), result.accepted, result.replaced


# The one-byte edits of the CLI's feed fuzz test, and a UTF-8 byte order mark.
@given(path=st.sampled_from(_SNAPSHOT_FILES),
       edit=st.sampled_from([bytes([b]) for b in b'\xff\x00{,\n" 1'] + ["\ufeff".encode()]),
       insert=st.booleans(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_one_byte_snapshot_edit_parses_as_with_json_loads(tmp_path_factory, path, edit,
                                                          insert, data):
    original = path.read_bytes()
    at = data.draw(st.integers(0, len(original) - (0 if insert else 1)))
    edited = tmp_path_factory.mktemp("edited") / path.name
    edited.write_bytes(original[:at] + edit + original[at + (0 if insert else 1):])
    kind = SourceKind(path.stem)
    got = _parse_outcome(edited, kind)
    with mock.patch.object(feeds, "_json_value", json.loads):
        assert got == _parse_outcome(edited, kind)


def test_byte_order_mark_line_is_skipped_as_json_loads_reports(tmp_path):
    path = tmp_path / "reference.jsonl"
    path.write_text('\ufeff{"kind": "reference", "url": "https://a"}\n'
                    '{"kind": "reference", "url": "https://b"}\n', encoding="utf-8")
    result = parse_snapshot(path, SourceKind.REFERENCE)
    assert result.records == [ReferenceRecord("https://b")]
    assert result.skipped == [
        (1, "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)")]


def test_parse_snapshot_duplicate_primary_key(tmp_path, caplog):
    rows = [
        {"kind": "cve", "cve_id": "CVE-2020-10000", "description": "a",
         "published": "2020-01-01", "modified": "2020-02-01", "cvss_base": 5.0,
         "attack_vector": "LOCAL"},
        {"kind": "cve", "cve_id": "CVE-2020-10000", "description": "b",
         "published": "2020-01-01", "modified": "2020-03-01", "cvss_base": 5.0,
         "attack_vector": "LOCAL"},
    ]
    path = tmp_path / "cve.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    with caplog.at_level("WARNING"):
        result = parse_snapshot(path, SourceKind.CVE)
    assert len(result.records) == 1
    assert result.records[0].modified == date(2020, 3, 1)  # last wins
    assert result.replaced == 1
    assert "duplicate primary key" in caplog.text


def test_parse_snapshot_rejects_inverted_cve_dates(tmp_path):
    row = {"kind": "cve", "cve_id": "CVE-2020-10000", "description": "a",
           "published": "2020-05-01", "modified": "2020-01-01", "cvss_base": 5.0,
           "attack_vector": "LOCAL"}
    path = tmp_path / "cve.jsonl"
    path.write_text(json.dumps(row) + "\n", encoding="utf-8")
    result = parse_snapshot(path, SourceKind.CVE)
    assert result.records == [] and result.skipped_count == 1


def test_cpe_exclusions_counted_as_skips(tmp_path):
    rows = [
        {"kind": "cpe", "cpe_id": "cpe:2.3:a:a:p1:-:*:*:*:*:*:*:*",
         "vendor": "a", "product": "p1"},
        {"kind": "cpe", "cpe_id": "cpe:2.3:a:a:p2:-:*:*:*:*:*:*:*",
         "vendor": "a", "product": "p2", "deprecated": True},
        {"kind": "cpe", "cpe_id": "cpe:2.3:a:a:p3:-:*:*:*:*:*:*:*",
         "vendor": "a", "product": "p3", "language_tag": "ja"},
    ]
    path = tmp_path / "cpe.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    result = parse_snapshot(path, SourceKind.CPE)
    assert [r.product for r in result.records] == ["p1"]
    assert result.skipped_count == 2
    assert result.accepted + result.skipped_count == 3


def test_parse_is_deterministic(tmp_path):
    path = tmp_path / "epss.jsonl"
    path.write_text(
        "\n".join(json.dumps({"kind": "epss", "cve_id": f"CVE-2020-{10000 + i}",
                              "probability": i / 100, "percentile": i / 100})
                  for i in range(50)) + "\n",
        encoding="utf-8",
    )
    first = parse_snapshot(path, SourceKind.EPSS)
    second = parse_snapshot(path, SourceKind.EPSS)
    assert first.records == second.records


def test_cwe_technical_impacts_must_be_a_string_list(tmp_path):
    rows = [{"kind": "cwe", "cwe_id": "CWE-79", "technical_impacts": 5},
            {"kind": "cwe", "cwe_id": "CWE-80", "technical_impacts": ["ReadData"]},
            {"kind": "cwe", "cwe_id": "CWE-81", "technical_impacts": ["Sorcery"]}]
    path = tmp_path / "cwe.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    result = parse_snapshot(path, SourceKind.CWE)
    assert result.records == [CweEntry("CWE-80", "", (TechnicalImpact.READ_DATA,))]
    assert [line_no for line_no, _ in result.skipped] == [1, 3]
    assert "technical_impacts" in result.skipped[0][1]


def test_overflowing_numbers_are_skipped(tmp_path):
    cve = {"kind": "cve", "cve_id": "CVE-2020-10000", "published": "2020-01-01",
           "modified": "2020-01-01", "cvss_base": 10 ** 400, "attack_vector": "LOCAL"}
    exploit = '{"kind": "exploit", "exploitdb_id": 1e999, "cve_ids": ["CVE-2020-10000"]}'
    (tmp_path / "cve.jsonl").write_text(json.dumps(cve) + "\n", encoding="utf-8")
    (tmp_path / "exploit.jsonl").write_text(exploit + "\n", encoding="utf-8")
    for kind in (SourceKind.CVE, SourceKind.EXPLOIT):
        result = parse_snapshot(tmp_path / f"{kind.value}.jsonl", kind)
        assert result.records == [] and result.skipped_count == 1


# One snapshot line per row: (kind, the object less its "kind", then the
# record it reads as, or for a skip the name of the field at fault).
_CVE = {"cve_id": "CVE-2020-10000", "published": "2020-01-01", "modified": "2020-02-01",
        "cvss_base": 5.0, "attack_vector": "LOCAL"}
_CVE_RECORD = CveRecord("CVE-2020-10000", "", date(2020, 1, 1), date(2020, 2, 1), 5.0,
                        AttackVector.LOCAL)
_CPE = {"cpe_id": "cpe:2.3:a:v:p:-:*:*:*:*:*:*:*", "vendor": "v", "product": "p"}
_EPSS = {"cve": "CVE-2020-10000", "probability": 0.5, "percentile": 0.25}
_EXPLOIT = {"exploitdb_id": 12, "cve_ids": ["CVE-2020-10000"]}
_KEV = {"cve_id": "CVE-2021-38000", "date_added": "2021-11-03", "due_date": "2021-11-17"}
_LINE_RULES = [
    ("cve", {**_CVE, "description": None}, _CVE_RECORD),
    ("cve", {**_CVE, "cwe_ids": None}, "cwe_ids"),
    ("cve", {**_CVE, "cvss_base": "7.5"}, _CVE_RECORD._replace(cvss_base=7.5)),
    ("cve", {**_CVE, "published": "2020-05-01"}, "modified"),
    ("cpe", {k: v for k, v in _CPE.items() if k != "cpe_id"}, "cpe_id"),
    ("cpe", {**_CPE, "deprecated": "no"}, "deprecated"),
    ("cpe", {**_CPE, "language_tag": "EN_us"},
     CpeEntry("cpe:2.3:a:v:p:-:*:*:*:*:*:*:*", "v", "p", language_tag="EN_us")),
    ("reference", {}, "url"),
    ("epss", _EPSS, EpssScore("CVE-2020-10000", 0.5, 0.25)),
    ("epss", {**_EPSS, "cve_id": None}, "cve_id"),
    ("exploit", {**_EXPLOIT, "exploitdb_id": "12"}, ExploitRef(12, ("CVE-2020-10000",))),
    ("exploit", {**_EXPLOIT, "exploitdb_id": 12.0}, ExploitRef(12, ("CVE-2020-10000",))),
    ("exploit", {**_EXPLOIT, "cve_ids": []}, "cve_ids"),
    ("capec", {"capec_id": "CAPEC-63"}, CapecEntry("CAPEC-63", "", SkillLevel.UNKNOWN)),
    ("capec", {"capec_id": "CAPEC-63", "skill_level": None}, "skill_level"),
    ("technique", {"technique_id": "T1059", "tactic_ids": []}, "tactic_ids"),
    ("kev", {**_KEV, "due_date": "2021-11-01"}, "due_date"),
    # A JSON boolean is not a number, and an ExploitDB id is a whole number.
    ("cve", {**_CVE, "cvss_base": True}, "cvss_base"),
    ("epss", {**_EPSS, "percentile": True}, "percentile"),
    ("exploit", {**_EXPLOIT, "exploitdb_id": True}, "exploitdb_id"),
    ("exploit", {**_EXPLOIT, "exploitdb_id": 1.7}, "exploitdb_id"),
]


def _parse_line(tmp_path, kind: str, obj: dict):
    path = tmp_path / f"{kind}.jsonl"
    path.write_text(json.dumps({"kind": kind, **obj}) + "\n", encoding="utf-8")
    return parse_snapshot(path, kind)


@pytest.mark.parametrize("kind,obj,expected", _LINE_RULES)
def test_null_and_dirty_line_rules(tmp_path, kind, obj, expected):
    result = _parse_line(tmp_path, kind, obj)
    if isinstance(expected, str):
        assert result.records == [] and result.skipped_count == 1
    else:
        assert result.records == [expected] and result.skipped_count == 0


@pytest.mark.parametrize("kind,obj,field_name",
                         [row for row in _LINE_RULES if isinstance(row[2], str)])
def test_skip_reason_names_the_field(tmp_path, kind, obj, field_name):
    (_line_no, reason), = _parse_line(tmp_path, kind, obj).skipped
    assert field_name in reason


# One valid and one non-UTF-8 data row per format: (header, good, bad, parser).
_NON_UTF8 = {
    "cwe.jsonl": (b"", b'{"kind": "cwe", "cwe_id": "CWE-79"}',
                  b'{"kind": "cwe", "cwe_id": "CWE-80", "name": "\xff"}',
                  lambda path: parse_snapshot(path, SourceKind.CWE)),
    "epss.csv": (b"# comment\ncve,epss,percentile\n", b"CVE-2020-0001,0.1,0.2",
                 b"CVE-2020-0002,0.1,0.2\xff", parse_epss_csv),
    "kev.csv": (KEV_HEADER.encode(),
                b"CVE-2021-38000,Google,Chromium,n,2021-11-03,d,a,2021-11-17",
                b"CVE-2021-38001,Go\xffogle,Chromium,n,2021-11-03,d,a,2021-11-17",
                parse_kev_csv),
}


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("name", sorted(_NON_UTF8))
def test_non_utf8_row_is_skipped_and_counted(tmp_path, name, newline):
    header, good, bad, parse = _NON_UTF8[name]
    path = tmp_path / name
    path.write_bytes(header.replace(b"\n", newline) + good + newline + bad + newline)
    result = parse(path)
    assert len(result.records) == 1 and result.accepted == 1
    bad_line = header.count(b"\n") + 2
    assert [line_no for line_no, _ in result.skipped] == [bad_line]
    assert "utf-8" in result.skipped[0][1]


def test_non_utf8_csv_header_is_a_format_error(tmp_path):
    path = tmp_path / "epss.csv"
    path.write_bytes(b"cve,ep\xffss,percentile\nCVE-2020-0001,0.1,0.2\n")
    with pytest.raises(DataError):
        parse_epss_csv(path)


# ---------------------------------------------------------------------------
# Round-trip: serialize -> reparse -> equal
# ---------------------------------------------------------------------------

_dates = st.dates(min_value=date(2015, 1, 1), max_value=date(2024, 12, 31))
_cve_ids = st.integers(min_value=1000, max_value=99999).map(lambda n: f"CVE-2021-{n}")
_urls = st.integers(min_value=0, max_value=9999).map(
    lambda n: f"https://advisories.example.org/ref-{n}")


@st.composite
def cve_records(draw):
    published = draw(_dates)
    return CveRecord(
        cve_id=draw(_cve_ids),
        description=draw(st.text(max_size=60)),
        published=published,
        modified=published + timedelta(days=draw(st.integers(0, 400))),
        cvss_base=round(draw(st.floats(0, 10, allow_nan=False)), 1),
        attack_vector=draw(st.sampled_from(AttackVector)),
        cwe_ids=tuple(draw(st.lists(
            st.integers(1, 2000).map(lambda n: f"CWE-{n}"), max_size=3))),
        affected_cpes=tuple(draw(st.lists(
            st.integers(0, 50).map(lambda n: f"cpe:2.3:a:v{n}:p{n}:-:*:*:*:*:*:*:*"),
            max_size=3))),
        reference_urls=tuple(draw(st.lists(_urls, max_size=2))),
    )


_technique_ids = st.integers(1000, 1999).map(lambda n: f"T{n}")
_tactic_ids = st.integers(1, 40).map(lambda n: f"TA{n:04d}")


@st.composite
def misc_records(draw):
    kind = draw(st.sampled_from([k.value for k in SourceKind if k is not SourceKind.CVE]))
    if kind == "epss":
        return EpssScore(draw(_cve_ids),
                         round(draw(st.floats(0, 1, allow_nan=False)), 4),
                         round(draw(st.floats(0, 1, allow_nan=False)), 4))
    if kind == "kev":
        added = draw(_dates)
        return KevEntry(draw(_cve_ids), "vendor", "product", "name", added,
                        "short", "action", added + timedelta(days=draw(st.integers(0, 60))))
    if kind == "capec":
        return CapecEntry(f"CAPEC-{draw(st.integers(1, 999))}", draw(st.text(max_size=20)),
                          draw(st.sampled_from(SkillLevel)),
                          tuple(draw(st.lists(_technique_ids, max_size=3))))
    if kind == "cwe":
        return CweEntry(f"CWE-{draw(st.integers(1, 999))}", draw(st.text(max_size=20)),
                        tuple(draw(st.lists(st.sampled_from(TechnicalImpact),
                                            max_size=3, unique=True))),
                        tuple(draw(st.lists(
                            st.integers(1, 999).map(lambda n: f"CAPEC-{n}"), max_size=3))))
    if kind == "exploit":
        return ExploitRef(draw(st.integers(1, 99999)),
                          tuple(draw(st.lists(_cve_ids, min_size=1, max_size=3))))
    if kind == "cpe":
        n = draw(st.integers(0, 50))
        return CpeEntry(f"cpe:2.3:a:v{n}:p{n}:-:*:*:*:*:*:*:*", f"v{n}", f"p{n}",
                        language_tag=draw(st.sampled_from(["en", "en-US"])))
    if kind == "technique":
        return AttackTechnique(draw(_technique_ids), draw(st.text(max_size=20)),
                               tuple(draw(st.lists(_tactic_ids, min_size=1, max_size=3))))
    if kind == "tactic":
        return AttackTactic(draw(_tactic_ids), draw(st.text(max_size=20)))
    if kind == "group":
        return AttackGroupRaw(f"G{draw(st.integers(1, 9999)):04d}", draw(st.text(max_size=20)),
                              draw(st.text(max_size=60)), draw(_dates),
                              tuple(draw(st.lists(_technique_ids, max_size=3))))
    return ReferenceRecord(url=draw(_urls))


@given(record=st.one_of(cve_records(), misc_records()))
@settings(max_examples=150)
def test_record_snapshot_round_trip(record, tmp_path_factory):
    kind = SourceKind(record_to_obj(record)["kind"])
    path = tmp_path_factory.mktemp("record") / f"{kind.value}.jsonl"
    dump_snapshot([record], path)
    result = parse_snapshot(path, kind)
    assert result.records == [record]
    assert result.skipped_count == 0


@given(records=st.lists(cve_records(), max_size=10,
                        unique_by=lambda r: r.cve_id))
@settings(max_examples=50)
def test_snapshot_file_round_trip(records, tmp_path_factory):
    path = tmp_path_factory.mktemp("roundtrip") / "cve.jsonl"
    dump_snapshot(records, path)
    result = parse_snapshot(path, SourceKind.CVE)
    assert result.records == list(records)
    assert result.skipped_count == 0


def test_json_field_gives_dates_members_and_tuples_their_json_form():
    assert feeds.json_field(date(2021, 11, 22)) == "2021-11-22"
    member = feeds.json_field(SkillLevel.HIGH)
    assert member == "High" and type(member) is str
    assert feeds.json_field((TechnicalImpact.READ_DATA, "x")) == ["ReadData", "x"]
    assert feeds.json_field(()) == []


@given(value=st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4))
def test_json_field_returns_a_json_scalar_as_it_is(value):
    # build_graph skips the call for a JSON scalar on this promise.
    assert feeds.json_field(value) is value


# Values a JSON field can hold, unhashable ones included, and strings near
# the members' values.
_MEMBER_VALUES = [m.value for enum in (AttackVector, TechnicalImpact, SkillLevel) for m in enum]
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from(_MEMBER_VALUES).flatmap(lambda value: st.sampled_from(
        [value, value.lower(), value.upper(), f" {value}", value[:-1]])),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=2), inner,
                                                                max_size=2),
    max_leaves=4)


@given(enum=st.sampled_from([AttackVector, TechnicalImpact, SkillLevel]), value=_JSON_VALUES)
@settings(max_examples=400)
def test_member_reader_matches_calling_the_enum(enum, value):
    read = feeds._member(enum)
    try:
        expected = enum(value)
    except ValueError:
        with pytest.raises(ValueError) as raised:
            read(value)
        assert str(raised.value) == f"is not a {enum.__name__}: {value!r}"
    else:
        assert read(value) is expected


# ---------------------------------------------------------------------------
# validate_snapshot
# ---------------------------------------------------------------------------


def _cve(cve_id="CVE-2020-10000", cwe_ids=(), cpes=(), urls=()):
    return CveRecord(
        cve_id=cve_id, description="x", published=date(2020, 1, 1),
        modified=date(2020, 2, 1), cvss_base=5.0,
        attack_vector=AttackVector.NETWORK,
        cwe_ids=tuple(cwe_ids), affected_cpes=tuple(cpes),
        reference_urls=tuple(urls),
    )


def test_validate_dangling_cwe_reference():
    report = validate_snapshot({SourceKind.CVE: [_cve(cwe_ids=["CWE-9999"])]})
    dangling = report.findings
    # independent set-difference oracle
    present = set()
    missing = {"CWE-9999"} - present
    assert len(dangling) == len(missing) == 1
    assert "CWE-9999" in dangling[0].detail


def test_validate_clean_fixture_is_empty():
    bundle = {
        SourceKind.CVE: [_cve(cwe_ids=["CWE-79"])],
        SourceKind.CWE: [CweEntry("CWE-79", "xss", (TechnicalImpact.EXECUTE_UNAUTHORIZED_CODE,),
                                  ())],
    }
    assert validate_snapshot(bundle).findings == []


@pytest.mark.parametrize("key", ["cves", SourceKind.CVE.name, 0, None])
def test_a_bundle_key_that_is_no_source_kind_is_a_type_error(key):
    # a misspelt kind would otherwise hold records nothing reads
    bundle = {SourceKind.CWE: [], key: [_cve(cwe_ids=["CWE-9999"])]}
    for read in (validate_snapshot, lambda b: build_graph(b, vocab=VOCAB)):
        with pytest.raises(TypeError, match=f"snapshot bundle key {key!r} is not a SourceKind"):
            read(bundle)


def test_a_kind_value_string_keys_its_records():
    # SourceKind is a str enum: its value is the same dict key as the member
    bundle = {"cve": [_cve(cwe_ids=["CWE-9999"])]}
    assert [f.subject for f in validate_snapshot(bundle).findings] == ["CVE-2020-10000"]
    assert build_graph(bundle, vocab=VOCAB).stats.dangling_dropped.total() == 1


def test_ingest_counts_each_bad_line_where_it_is_parsed(tmp_path):
    # The parsers skip each out-of-range line and keep one record per key,
    # so ingest's "duplicates" and "out_of_range" are 0 on any feed file.
    from threatrank.cli import load_bundle, load_config, main

    feeds_dir = tmp_path / "snapshots"
    feeds_dir.mkdir()
    cve = _cve(cwe_ids=["CWE-79"], urls=["https://x"])
    written = {
        "cve": [cve,
                _cve("CVE-2020-10001")._replace(cvss_base=10.5),
                _cve("CVE-2020-10002")._replace(modified=date(2019, 12, 31)),
                cve,
                _cve("CVE-2020-10003", cwe_ids=["CWE-9999"])],
        "cwe": [CweEntry("CWE-79", "xss"), CweEntry("CWE-79", "xss")],
        "reference": [ReferenceRecord("https://x"), ReferenceRecord("https://x")],
        "epss": [EpssScore(cve.cve_id, 0.5, 0.5), EpssScore(cve.cve_id, 0.6, 0.6),
                 EpssScore(cve.cve_id, 0.5, 1.5)],
        "kev": [KevEntry(cve.cve_id, "v", "p", "n", date(2021, 2, 1), "d", "a",
                         date(2021, 1, 1))],
        "exploit": [ExploitRef(7, ())],
    }
    for kind, records in written.items():
        dump_snapshot(records, feeds_dir / f"{kind}.jsonl")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "snapshots": {kind: f"snapshots/{kind}.jsonl" for kind in written},
        "date_range": {"from": "2020-01-01", "to": "2020-12-31"},
    }), encoding="utf-8")

    assert main(["--config", str(config_path), "ingest"]) == 0
    summary = json.loads((tmp_path / "out" / "ingest_summary.json").read_text(encoding="utf-8"))
    counts = {kind: (info["accepted"], info["skipped"], info["replaced_duplicates"])
              for kind, info in summary["sources"].items()}
    assert counts == {"cve": (3, 2, 1), "cwe": (2, 0, 1), "reference": (2, 0, 1),
                      "epss": (2, 1, 1), "kev": (0, 1, 0), "exploit": (0, 1, 0)}
    assert summary["validation"] == {"findings": 1, "dangling_references": 1,
                                     "duplicates": 0, "out_of_range": 0}
    _, results = load_bundle(load_config(config_path))
    assert {kind: [line for line, _ in result.skipped] for kind, result in results.items()} \
        == {"cve": [2, 3], "cwe": [], "reference": [], "epss": [3], "kev": [1], "exploit": [1]}


def _reference_validate_snapshot(bundle):
    # validate_snapshot as it was before it built only the key sets it
    # reads: every kind's key set and one closure call per reference list.
    # The oracle for its findings and their order.
    findings = []
    keys = {kind: {item[0] for item in bundle.get(kind, ())}  # primary keys
            for kind in SOURCES}

    def dangling(subject, targets, present, what):
        for target in targets:
            if target not in present:
                findings.append(Finding(subject, f"references absent {what} {target}"))

    for cve in bundle.get(SourceKind.CVE, ()):
        dangling(cve.cve_id, cve.cwe_ids, keys[SourceKind.CWE], "CWE")
        dangling(cve.cve_id, cve.affected_cpes, keys[SourceKind.CPE], "CPE")
        dangling(cve.cve_id, cve.reference_urls, keys[SourceKind.REFERENCE], "reference")
    for cwe in bundle.get(SourceKind.CWE, ()):
        dangling(cwe.cwe_id, cwe.related_capecs, keys[SourceKind.CAPEC], "CAPEC")
    for capec in bundle.get(SourceKind.CAPEC, ()):
        dangling(capec.capec_id, capec.related_techniques, keys[SourceKind.TECHNIQUE], "technique")
    for technique in bundle.get(SourceKind.TECHNIQUE, ()):
        dangling(technique.technique_id, technique.tactic_ids, keys[SourceKind.TACTIC], "tactic")
    for group in bundle.get(SourceKind.GROUP, ()):
        dangling(group.group_id, group.technique_ids, keys[SourceKind.TECHNIQUE], "technique")
    for score in bundle.get(SourceKind.EPSS, ()):
        dangling(score.cve_id, [score.cve_id], keys[SourceKind.CVE], "CVE")
    for entry in bundle.get(SourceKind.KEV, ()):
        dangling(entry.cve_id, [entry.cve_id], keys[SourceKind.CVE], "CVE")
    for ref in bundle.get(SourceKind.EXPLOIT, ()):
        dangling(f"exploit {ref.exploitdb_id}", ref.cve_ids, keys[SourceKind.CVE], "CVE")
    return ValidationReport(findings)


_DAY = date(2020, 1, 1)


@st.composite
def _dangling_bundles(draw):
    """Bundles over three ids per kind, each record holding some of them,
    so every kind of reference both resolves and dangles.  A kind with no
    records is left out of the bundle, as ``cli.load_bundle`` leaves out an
    unconfigured one."""
    def ids(prefix):
        return st.lists(st.sampled_from([f"{prefix}{i}" for i in range(3)]), max_size=3)

    def records(prefix, make):
        return [make(key) for key in draw(ids(prefix))]

    refs = lambda prefix: tuple(draw(ids(prefix)))  # noqa: E731
    bundle = {
        SourceKind.CVE: records("CVE-2020-", lambda k: CveRecord(
            k, "", _DAY, _DAY, 5.0, AttackVector.NETWORK, refs("CWE-"), refs("cpe:"),
            refs("https://r/"))),
        SourceKind.CPE: records("cpe:", lambda k: CpeEntry(k, "v", "p")),
        SourceKind.CWE: records("CWE-", lambda k: CweEntry(k, "n", (), refs("CAPEC-"))),
        SourceKind.CAPEC: records("CAPEC-",
                                  lambda k: CapecEntry(k, "n", SkillLevel.LOW, refs("T1"))),
        SourceKind.TECHNIQUE: records("T1", lambda k: AttackTechnique(k, "n", refs("TA"))),
        SourceKind.TACTIC: records("TA", lambda k: AttackTactic(k, "n")),
        SourceKind.GROUP: records("G", lambda k: AttackGroupRaw(k, "n", "", _DAY, refs("T1"))),
        SourceKind.EPSS: records("CVE-2020-", lambda k: EpssScore(k, 0.5, 0.5)),
        SourceKind.KEV: records("CVE-2020-",
                                lambda k: KevEntry(k, "v", "p", "n", _DAY, "", "", _DAY)),
        SourceKind.EXPLOIT: [ExploitRef(i, refs("CVE-2020-"))
                             for i in range(draw(st.integers(0, 3)))],
        SourceKind.REFERENCE: records("https://r/", ReferenceRecord),
    }
    return {kind: records for kind, records in bundle.items() if records}


@given(_dangling_bundles())
@settings(max_examples=300, deadline=None)
def test_validate_snapshot_matches_reference(bundle):
    assert validate_snapshot(bundle) == _reference_validate_snapshot(bundle)


@given(_dangling_bundles())
@settings(max_examples=300, deadline=None)
def test_build_drops_each_reference_validation_finds_dangling(bundle):
    dropped = build_graph(bundle, vocab=VOCAB).stats.dangling_dropped
    assert len(validate_snapshot(bundle).findings) == sum(dropped.values())


def test_validate_case_study_fixture_is_clean(case_config):
    from threatrank.cli import load_bundle

    bundle, results = load_bundle(case_config)
    assert validate_snapshot(bundle).findings == []
    for result in results.values():
        assert result.skipped_count == 0


def test_sources_describe_every_kind_in_order():
    assert list(SOURCES) == list(SourceKind)
    for source in SOURCES.values():
        # from_obj builds the record positionally, so the table keeps field order
        assert list(source.fields) == list(source.record_type._fields)


# Per kind, an object holding only the fields its record type has no default for.
_REQUIRED_ONLY = {
    SourceKind.CVE: {**_CVE, "description": "d"},
    SourceKind.CPE: _CPE,
    SourceKind.CWE: {"cwe_id": "CWE-79"},
    SourceKind.CAPEC: {"capec_id": "CAPEC-63"},
    SourceKind.TECHNIQUE: {"technique_id": "T1059", "name": "t", "tactic_ids": ["TA0002"]},
    SourceKind.TACTIC: {"tactic_id": "TA0002"},
    SourceKind.GROUP: {"group_id": "G0001", "name": "g", "description": "d",
                       "created": "2020-01-01"},
    SourceKind.EPSS: {"cve_id": "CVE-2020-10000", "probability": 0.5, "percentile": 0.25},
    SourceKind.KEV: {"cve_id": "CVE-2021-38000", "vendor_project": "v", "product": "p",
                     "vulnerability_name": "n", "date_added": "2021-11-03",
                     "short_description": "s", "required_action": "a",
                     "due_date": "2021-11-17"},
    SourceKind.EXPLOIT: _EXPLOIT,
    SourceKind.REFERENCE: {"url": "https://example.org/a"},
}


@pytest.mark.parametrize("kind", list(SourceKind), ids=lambda kind: kind.value)
def test_code_and_parser_agree_on_defaults(kind):
    # A record built in code from only its required fields is the record a
    # line holding only those fields reads as.
    source, obj = SOURCES[kind], _REQUIRED_ONLY[kind]
    record_type = source.record_type
    assert set(obj) == set(record_type._fields) - set(record_type._field_defaults)
    built = record_type(**{name: source.fields[name](value) for name, value in obj.items()})
    assert built == source.from_obj(obj)
