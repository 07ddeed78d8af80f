from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threatrank.cli import main
from threatrank.vocab import read_data_file
from tests.conftest import CASE_STUDY, FIXTURES

CONFIG = str(CASE_STUDY / "config.json")


def _run(*args):
    return main(list(args))


@pytest.fixture()
def built(tmp_path):
    out = tmp_path / "out"
    assert _run("--config", CONFIG, "--out", str(out), "build") == 0
    return out


def test_ingest_writes_summary(tmp_path, capsys):
    out = tmp_path / "out"
    assert _run("--config", CONFIG, "--out", str(out), "ingest") == 0
    summary = json.loads((out / "ingest_summary.json").read_text(encoding="utf-8"))
    assert summary["sources"]["cve"]["records"] == 40
    assert summary["sources"]["cve"]["skipped"] == 0
    assert summary["validation"]["findings"] == 0
    assert "cve: 40 records" in capsys.readouterr().out


def test_build_produces_graph_snapshot(built):
    assert (built / "graph.jsonl").exists()
    summary = json.loads((built / "build_summary.json").read_text(encoding="utf-8"))
    assert summary["schema_rejected"] == 0
    assert summary["dangling_dropped"] == {}


def test_build_emits_coverage_csv(built):
    lines = (built / "coverage_ODU.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "vendor,product,matched_cpe_count"
    assert len(lines) == 70  # header + 69 inventory items
    matched = sum(1 for line in lines[1:] if not line.endswith(",0"))
    assert matched == 47


def test_build_is_idempotent(tmp_path):
    out = tmp_path / "out"
    assert _run("--config", CONFIG, "--out", str(out), "build") == 0
    first = (out / "graph.jsonl").read_bytes()
    assert _run("--config", CONFIG, "--out", str(out), "build") == 0
    assert (out / "graph.jsonl").read_bytes() == first


def test_case_study_command(built, capsys):
    code = _run("--config", CONFIG, "--out", str(built), "case-study", "--org", "ODU")
    assert code == 0
    out_text = capsys.readouterr().out
    table = (built / "case_study_ODU_2021W47.csv").read_text(encoding="utf-8")
    lines = table.splitlines()
    assert lines[0] == "cve,cvss_base,relevance,cvss_base_rank,apt_threat_rank"
    assert len(lines) == 21  # header + top 20
    first = lines[1].split(",")
    assert first[0] == "CVE-2021-37966"
    assert first[2] == "6" and first[4] == "1"
    last = lines[20].split(",")
    assert last[0] == "CVE-2021-37962" and last[4] == "20"
    assert "CVE-2021-37966" in out_text


def test_rank_command(built):
    code = _run("--config", CONFIG, "--out", str(built),
                "rank", "--org", "ODU", "--policy", "apt_threat")
    assert code == 0
    rows = (built / "ranked_ODU_apt_threat.csv").read_text(encoding="utf-8").splitlines()
    assert rows[0] == "org,policy,iso_week,rank,cve,score,feature_bits"
    assert len(rows) == 40  # header + 39 candidates
    first = rows[1].split(",")
    assert first[:6] == ["ODU", "apt_threat", "2021-W47", "1", "CVE-2021-37966", "6"]
    assert "av_network=1" in rows[1]


def test_rank_has_no_k_option(built, capsys):
    code = _run("--config", CONFIG, "--out", str(built),
                "rank", "--org", "ODU", "--policy", "apt_threat", "--k", "-1")
    assert code == 1
    assert "--k" in capsys.readouterr().err


@pytest.mark.parametrize("k", ["0", "-3"])
def test_case_study_rejects_k_below_one(built, capsys, k):
    code = _run("--config", CONFIG, "--out", str(built), "case-study", "--org", "ODU", "--k", k)
    assert code == 1
    assert "--k" in capsys.readouterr().err
    assert not list(built.glob("case_study_*.csv"))


def test_case_study_k_limits_rows(built):
    code = _run("--config", CONFIG, "--out", str(built), "case-study", "--org", "ODU", "--k", "5")
    assert code == 0
    lines = (built / "case_study_ODU_2021W47.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 6  # header + top 5


def test_rank_unknown_org_exits_one(built, capsys):
    code = _run("--config", CONFIG, "--out", str(built),
                "rank", "--org", "NOPE", "--policy", "apt_threat")
    assert code == 1
    assert "NOPE" in capsys.readouterr().err


def test_rank_unknown_policy_exits_one(built, capsys):
    code = _run("--config", CONFIG, "--out", str(built),
                "rank", "--org", "ODU", "--policy", "sorcery")
    assert code == 1
    assert "sorcery" in capsys.readouterr().err


def test_rank_without_build_exits_one(tmp_path, capsys):
    out = tmp_path / "fresh"
    code = _run("--config", CONFIG, "--out", str(out),
                "rank", "--org", "ODU", "--policy", "apt_threat")
    assert code == 1
    err = capsys.readouterr().err
    assert "graph.jsonl" in err  # names the missing path


def test_missing_config_exits_one_naming_path(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    code = _run("--config", str(missing), "ingest")
    assert code == 1
    assert str(missing) in capsys.readouterr().err


def test_config_with_missing_snapshot_exits_one(tmp_path, capsys):
    config = json.loads((CASE_STUDY / "config.json").read_text(encoding="utf-8"))
    config["snapshots"]["cve"] = "snapshots/not_there.jsonl"
    bad = tmp_path / "config.json"
    bad.write_text(json.dumps(config), encoding="utf-8")
    # remaining paths resolve against the config's own directory, so copy in
    shutil.copytree(CASE_STUDY / "snapshots", tmp_path / "snapshots")
    shutil.copytree(CASE_STUDY / "profiles", tmp_path / "profiles")
    shutil.copy(CASE_STUDY / "epss.csv", tmp_path / "epss.csv")
    shutil.copy(CASE_STUDY / "kev.csv", tmp_path / "kev.csv")
    code = _run("--config", str(bad), "ingest")
    assert code == 1
    assert "not_there.jsonl" in capsys.readouterr().err


def test_corrupt_config_exits_two(tmp_path, capsys):
    bad = tmp_path / "config.json"
    bad.write_text("{not json", encoding="utf-8")
    assert _run("--config", str(bad), "ingest") == 2
    assert "data error" in capsys.readouterr().err


# Each edit turns the first graph.jsonl line holding ``old`` into a bad one.
@pytest.mark.parametrize("old, new", [
    (b'{"kind": "edge"', b'{not json'),
    (b'"label": "NvdCve"', b'"label": "Bogus"'),
    (b'"type": "Affects"', b'"type": "Bogus"'),
    (b'"key": "CVE-', b'"key": "\xffCVE-'),
    (b'"modified": ', b'"changed": '),
    (b'"cvss_base": ', b'"cvss_base": 7'),
    (b'"epss_probability": ', b'"epss_probability": "x", "was": '),
    (b'"technical_impacts": ', b'"technical_impacts": 5, "was": '),
    (b'"sector": ', b'"sector": {}, "was": '),
], ids=["corrupt_json", "unknown_label", "unknown_edge_type", "non_utf8",
        "cve_without_modified", "cvss_above_ten", "epss_not_a_number",
        "cwe_impacts_not_a_list", "org_sector_not_a_string"])
def test_bad_graph_line_exits_two_naming_the_line(built, capsys, old, new):
    path = built / "graph.jsonl"
    lines = path.read_bytes().split(b"\n")
    line_no = next(i for i, line in enumerate(lines, start=1) if old in line)
    lines[line_no - 1] = lines[line_no - 1].replace(old, new)
    path.write_bytes(b"\n".join(lines))
    base = ["--config", CONFIG, "--out", str(built)]
    for command in (["rank", "--org", "ODU", "--policy", "apt_threat"], ["evaluate"],
                    ["case-study", "--org", "ODU"]):
        code = _run(*base, *command)
        err = capsys.readouterr().err
        assert code == 2, command
        assert f"graph.jsonl:{line_no}:" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("text", [
    '{"snapshots": ["snapshots/cve.jsonl"]}',
    '["snapshots"]',
    '5',
    '{"date_range": ["2021-11-22", "2021-11-28"]}',
    '{"date_range": {"from": "2021-11-22", "to": "2021-11-28"}, "policies": {"apt_threat": []}}',
    '{"date_range": {"from": "2021-11-22", "to": "2021-11-28"},'
    ' "policies": {"apt_threat": {"risk_appetite": 1e400}}}',
    '{"profiles": [5]}',
    '{"date_range": {"from": "2021-11-22", "to": "2021-11-28"}, "output_dir": 5}',
    '{"date_range": {"from": "2021-11-22", "to": "2021-11-28"},'
    ' "policies": {"apt_threat": {"origin_countries": "China"}}}',
    '{"date_range": {"from": "2021-11-22", "to": "2021-11-28"},'
    ' "policies": {"general_threat": {"origin_countries": ["China", 5]}}}',
], ids=["snapshots_list", "top_level_array", "top_level_number", "date_range_list",
        "policy_list", "policy_overflow", "path_number", "output_dir_number",
        "origin_countries_string", "origin_countries_not_strings"])
def test_misshapen_config_exits_two(tmp_path, capsys, text):
    bad = tmp_path / "config.json"
    bad.write_text(text, encoding="utf-8")
    assert _run("--config", str(bad), "ingest") == 2
    err = capsys.readouterr().err
    assert "data error" in err
    assert "Traceback" not in err


def test_non_utf8_feed_rows_are_skipped(tmp_path):
    case = tmp_path / "case"
    shutil.copytree(CASE_STUDY, case, ignore=shutil.ignore_patterns("out"))
    for name, old, new in [("snapshots/cwe.jsonl", b"Use After", b"Use \xffAfter"),
                           ("epss.csv", b"CVE-2021-30542,", b"CVE-2021-30542\xff,")]:
        data = (case / name).read_bytes()
        assert data.count(old) == 1
        (case / name).write_bytes(data.replace(old, new))
    out = tmp_path / "out"
    assert _run("--config", str(case / "config.json"), "--out", str(out), "ingest") == 0
    sources = json.loads((out / "ingest_summary.json").read_text(encoding="utf-8"))["sources"]
    assert (sources["cwe"]["records"], sources["cwe"]["skipped"]) == (6, 1)  # of 7 lines
    assert (sources["epss"]["records"], sources["epss"]["skipped"]) == (39, 1)  # of 40 rows


@pytest.mark.parametrize("section, kind", [("vocabularies", "countries"),
                                           ("lexicons", "sectors")])
def test_non_utf8_vocabulary_or_lexicon_exits_two(tmp_path, capsys, section, kind):
    packaged = {"vocabularies": "countries.txt", "lexicons": "sector_terms.tsv"}[section]
    data_file = tmp_path / packaged
    data_file.write_bytes(read_data_file(None, packaged).encode("utf-8") + b"\xff\n")
    config = json.loads((CASE_STUDY / "config.json").read_text(encoding="utf-8"))
    config[section] = {kind: str(data_file)}
    config["snapshots"] = {k: str(CASE_STUDY / v) for k, v in config["snapshots"].items()}
    config["profiles"] = [str(CASE_STUDY / v) for v in config["profiles"]]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert _run("--config", str(path), "--out", str(tmp_path / "out"), "build") == 2
    err = capsys.readouterr().err
    assert str(data_file) in err
    assert "Traceback" not in err


# Snapshot and CSV inputs of the case fixture, as paths under its directory.
_FEED_FILES = sorted(path.relative_to(CASE_STUDY).as_posix()
                     for pattern in ("snapshots/*.jsonl", "*.csv")
                     for path in CASE_STUDY.glob(pattern))


@pytest.fixture(scope="module")
def case_copy(tmp_path_factory):
    case = tmp_path_factory.mktemp("mutated") / "case"
    shutil.copytree(CASE_STUDY, case, ignore=shutil.ignore_patterns("out"))
    return case


@given(name=st.sampled_from(_FEED_FILES), byte=st.sampled_from(list(b'\xff\x00{,\n"')),
       insert=st.booleans(), data=st.data())
@settings(max_examples=50, deadline=None)
def test_one_byte_feed_edit_keeps_the_exit_code_contract(case_copy, name, byte, insert, data):
    path = case_copy / name
    original = path.read_bytes()
    at = data.draw(st.integers(0, len(original) - (0 if insert else 1)))
    path.write_bytes(original[:at] + bytes([byte]) + original[at + (0 if insert else 1):])
    base = ["--config", str(case_copy / "config.json"), "--out", str(case_copy / "out")]
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes = [main([*base, "ingest"]), main([*base, "build"])]
    finally:
        path.write_bytes(original)
    assert all(code in (0, 1, 2) for code in codes)


@pytest.fixture(scope="module")
def built_copy(tmp_path_factory):
    out = tmp_path_factory.mktemp("built") / "out"
    assert _run("--config", CONFIG, "--out", str(out), "build") == 0
    return out


@given(byte=st.sampled_from(list(b'\xff\x00{,\n"9-')), insert=st.booleans(), data=st.data())
@settings(max_examples=50, deadline=None)
def test_one_byte_graph_edit_keeps_the_exit_code_contract(built_copy, byte, insert, data):
    path = built_copy / "graph.jsonl"
    original = path.read_bytes()
    at = data.draw(st.integers(0, len(original) - (0 if insert else 1)))
    path.write_bytes(original[:at] + bytes([byte]) + original[at + (0 if insert else 1):])
    base = ["--config", CONFIG, "--out", str(built_copy)]
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes = [main([*base, "rank", "--org", "ODU", "--policy", "apt_threat"]),
                     main([*base, "evaluate"]),
                     main([*base, "case-study", "--org", "ODU"])]
    finally:
        path.write_bytes(original)
    assert all(code in (0, 1, 2) for code in codes)


def test_bad_flags_exit_one(capsys):
    assert _run("--config", CONFIG, "frobnicate") == 1
    capsys.readouterr()


def test_evaluate_is_deterministic(tmp_path):
    out = tmp_path / "out"
    assert _run("--config", CONFIG, "--out", str(out), "build") == 0
    assert _run("--config", CONFIG, "--out", str(out), "evaluate") == 0
    csvs = ["ndcg_by_k.csv", "cost.csv", "ttest.csv"]
    first = {name: (out / name).read_bytes() for name in csvs}
    assert _run("--config", CONFIG, "--out", str(out), "evaluate") == 0
    for name in csvs:
        assert (out / name).read_bytes() == first[name]


def test_date_range_override_narrows_cohorts(built, capsys):
    code = _run("--config", CONFIG, "--out", str(built),
                "--from", "2021-12-01", "--to", "2021-12-31",
                "case-study", "--org", "ODU")
    assert code == 0
    assert "no candidate cohorts" in capsys.readouterr().out


@pytest.mark.parametrize("command", [["rank", "--org", "ODU", "--policy", "apt_threat"],
                                     ["evaluate"], ["case-study", "--org", "ODU"]],
                         ids=["rank", "evaluate", "case_study"])
def test_reversed_date_override_exits_one(built, capsys, command):
    code = _run("--config", CONFIG, "--out", str(built),
                "--from", "2022-01-01", "--to", "2021-01-01", *command)
    err = capsys.readouterr().err
    assert code == 1
    assert "2022-01-01 > 2021-01-01" in err
    assert "Traceback" not in err
    assert sorted(p.name for p in built.iterdir()) == [
        "build_summary.json", "coverage_ODU.csv", "graph.jsonl"]


# Golden outputs of a full pipeline run: sha256 over every output file in
# name order, each contributing name + NUL + bytes.  They pin graph.jsonl,
# coverage, ranked (including the feature_bits column order), report and
# case-study bytes.
# Values: (org, weekly cohorts, output files, digest).
GOLDEN_OUTPUTS = {
    "case_study": ("ODU", 1, 12,
                   "9ed915c753466ffd2a57f1e80e24471f07c0388c76a6a01fd6f105af5d0a5784"),
    "synthetic52": ("SYNTHU", 52, 63,
                    "0fdf6f12c9097f0c53447555cea972cdd4fda7bc6e4b7749c9e58e1e35e87b6e"),
}


@pytest.mark.parametrize("fixture", sorted(GOLDEN_OUTPUTS))
def test_synthetic_corpus_pipeline(tmp_path, fixture):
    org, n_weeks, n_files, digest = GOLDEN_OUTPUTS[fixture]
    out = tmp_path / "out"
    base = ["--config", str(FIXTURES / fixture / "config.json"), "--out", str(out)]
    assert _run(*base, "ingest") == 0
    assert _run(*base, "build") == 0
    for policy in ("cvss_base", "apt_threat", "general_threat", "ideal"):
        assert _run(*base, "rank", "--org", org, "--policy", policy) == 0
    assert _run(*base, "case-study", "--org", org) == 0
    assert _run(*base, "evaluate") == 0
    rows = (out / f"ranked_{org}_ideal.csv").read_text(encoding="utf-8").splitlines()
    assert len(rows) > n_weeks  # at least one row per week plus the header
    files = sorted(out.iterdir(), key=lambda path: path.name)
    assert len(files) == n_files
    sha = hashlib.sha256()
    for path in files:
        sha.update(path.name.encode() + b"\0" + path.read_bytes())
    assert sha.hexdigest() == digest


def test_cli_inputs_are_not_mutated(tmp_path):
    before = {p: p.read_bytes() for p in sorted(CASE_STUDY.rglob("*"))
              if p.is_file() and "out" not in p.parts}
    out = tmp_path / "out"
    assert _run("--config", CONFIG, "--out", str(out), "build") == 0
    assert _run("--config", CONFIG, "--out", str(out), "evaluate") == 0
    after = {p: p.read_bytes() for p in sorted(CASE_STUDY.rglob("*"))
             if p.is_file() and "out" not in p.parts}
    assert before == after
