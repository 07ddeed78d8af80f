from __future__ import annotations

import hashlib
import json
import shutil

import pytest

from threatrank.cli import main
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
