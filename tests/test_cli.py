from __future__ import annotations

import contextlib
import csv
import gc
import hashlib
import io
import json
import os
import random
import resource
import shutil
import signal
import subprocess
import sys
import warnings
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threatrank import cli, kgraph, ranking
from threatrank.cli import load_config, main
from threatrank.errors import DataError
from threatrank.kgraph import Node
from threatrank.ranking import (
    APT_BITS,
    GENERAL_BITS,
    Family,
    Policy,
    PolicyConfig,
    RankedItem,
    RankedList,
)
from threatrank.vocab import load_vocabulary, read_data_file
from scripts import fuzz_inputs
from tests.conftest import CASE_STUDY, FIXTURES, REPO_ROOT, SYNTHETIC

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


@pytest.mark.parametrize("k", ["5", "0", "-3"])
def test_case_study_has_no_k_option(built, capsys, k):
    # The table depth is policies.apt_threat.k; no flag restates it.
    code = _run("--config", CONFIG, "--out", str(built), "case-study", "--org", "ODU", "--k", k)
    assert code == 1
    assert "--k" in capsys.readouterr().err
    assert not list(built.glob("case_study_*.csv"))


def _config_with_policies(fixture, tmp_path, **policies) -> str:
    """A copy of ``fixture``'s config, its paths made absolute and each named
    policies section updated with the given settings; returns its path."""
    raw = json.loads((fixture / "config.json").read_text(encoding="utf-8"))
    raw["snapshots"] = {kind: str(fixture / rel) for kind, rel in raw["snapshots"].items()}
    raw["profiles"] = [str(fixture / rel) for rel in raw["profiles"]]
    for name, settings in policies.items():
        raw["policies"][name].update(settings)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return str(path)


def test_case_study_k_limits_rows(built, tmp_path):
    config = _config_with_policies(CASE_STUDY, tmp_path, apt_threat={"k": 5})
    code = _run("--config", config, "--out", str(built), "case-study", "--org", "ODU")
    assert code == 0
    lines = (built / "case_study_ODU_2021W47.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 6  # header + top 5


@pytest.mark.parametrize("k", [0, -3])
def test_case_study_with_k_below_one_exits_two(built, tmp_path, capsys, k):
    config = _config_with_policies(CASE_STUDY, tmp_path, apt_threat={"k": k})
    code = _run("--config", config, "--out", str(built), "case-study", "--org", "ODU")
    assert code == 2
    assert "k must be positive" in capsys.readouterr().err
    assert not list(built.glob("case_study_*.csv"))


def test_evaluate_with_a_k_past_every_cohort(tmp_path, capsys):
    # A k past the index range exits 0, and reads every cohort's full-length
    # nDCG, as a k of the largest cohort's size does.
    out = tmp_path / "out"
    assert _run("--config", str(SYNTHETIC / "config.json"), "--out", str(out), "build") == 0
    graph = kgraph.load_graph(out / "graph.jsonl")
    org = ranking.OrgContext.from_graph(graph, "SYNTHU")
    date_range = load_config(SYNTHETIC / "config.json").date_range
    largest = max(len(c.cve_ids) for c in ranking.generate_candidates(org, graph, date_range))
    reports = []
    for k in (largest, 2**70):
        (tmp_path / str(k)).mkdir()
        config = _config_with_policies(SYNTHETIC, tmp_path / str(k),
                                       apt_threat={"k": k}, general_threat={"k": k})
        assert _run("--config", config, "--out", str(out), "evaluate") == 0
        reports.append({name: (out / name).read_bytes()
                        for name in ("ndcg_by_k.csv", "cost.csv", "ttest.csv")})
    assert "Traceback" not in capsys.readouterr().err
    assert len(reports[0]["ttest.csv"].splitlines()) == 3  # header + one row per family
    assert reports[0] == reports[1]


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


def test_rank_unknown_policy_is_a_usage_error_before_the_graph(tmp_path, capsys):
    # no graph.jsonl: the policy is checked first, so its name is the error
    code = _run("--config", CONFIG, "--out", str(tmp_path / "fresh"),
                "rank", "--org", "ODU", "--policy", "bogus")
    assert code == 1
    err = capsys.readouterr().err
    assert "unknown policy: 'bogus'" in err and "graph.jsonl" not in err


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


def test_two_profiles_with_one_org_id_exit_two_naming_both(tmp_path, capsys):
    config = json.loads((CASE_STUDY / "config.json").read_text(encoding="utf-8"))
    config["snapshots"] = {kind: str(CASE_STUDY / rel)
                           for kind, rel in config["snapshots"].items()}
    first = CASE_STUDY / "profiles" / "odu.json"
    second = tmp_path / "odu_again.json"
    profile = json.loads(first.read_text(encoding="utf-8"))
    profile["software"] = profile["software"][:1]
    second.write_text(json.dumps(profile), encoding="utf-8")
    config["profiles"] = [str(first), str(second)]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    assert _run("--config", str(path), "--out", str(out), "build") == 2
    err = capsys.readouterr().err
    assert "'ODU'" in err and str(first) in err and str(second) in err
    assert not out.exists() or not any(out.iterdir())


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
    _assert_read_commands_name_line(built, capsys, line_no)


def test_trailing_data_on_a_graph_line_exits_two_naming_the_line(built, capsys):
    path = built / "graph.jsonl"
    lines = path.read_bytes().split(b"\n")
    line_no = next(i for i, line in enumerate(lines, start=1) if b'"kind": "edge"' in line)
    lines[line_no - 1] += b" x"
    path.write_bytes(b"\n".join(lines))
    _assert_read_commands_name_line(built, capsys, line_no)


def _assert_read_commands_name_line(built, capsys, line_no):
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
    ' "policies": {"apt_threat": {"origin_countries": ["China", 5]}}}',
    # policy numbers are checked, not coerced: a bool is no int, 2.9 no k
    '{"date_range": {"from": "2021-11-22", "to": "2021-11-28"},'
    ' "policies": {"apt_threat": {"risk_appetite": true}}}',
    '{"date_range": {"from": "2021-11-22", "to": "2021-11-28"},'
    ' "policies": {"apt_threat": {"k": 2.9}}}',
    '{"date_range": {"from": "2021-11-22", "to": "2021-11-28"},'
    ' "policies": {"general_threat": {"k": "7"}}}',
    '{"date_range": {"from": "2021-11-22", "to": "2021-11-28"},'
    ' "policies": {"apt_threat": {"epss_threshold": "0.5"}}}',
    '{"date_range": {"from": "2021-11-22", "to": "2021-11-28"},'
    ' "policies": {"apt_threat": {"epss_threshold": false}}}',
    # a misspelt key or policy name is rejected, not replaced by the default
    '{"date_range": {"from": "2021-11-22", "to": "2021-11-28"},'
    ' "policies": {"apt_threat": {"K": 5, "risk_apetite": 3}}}',
    '{"date_range": {"from": "2021-11-22", "to": "2021-11-28"},'
    ' "policies": {"apt": {"k": 4}}}',
    # a present section must have its JSON type; only an absent one is empty
    '{"date_range": {"from": "2021-11-22", "to": "2021-11-28"}, "policies": false}',
    '{"date_range": {"from": "2021-11-22", "to": "2021-11-28"}, "snapshots": 0}',
    '{"date_range": {"from": "2021-11-22", "to": "2021-11-28"}, "profiles": ""}',
    # a misspelt section or data-file key is rejected, not ignored
    '{"date_range": {"from": "2021-11-22", "to": "2021-11-28"},'
    ' "polices": {"apt_threat": {"k": 5}}}',
    '{"date_range": {"from": "2021-11-22", "to": "2021-11-28"},'
    ' "lexicons": {"country": "nowhere.tsv"}}',
    '{"date_range": {"from": "2021-11-22", "to": "2021-11-28"},'
    ' "vocabularies": {"sector": "nowhere.txt"}}',
], ids=["snapshots_list", "top_level_array", "top_level_number", "date_range_list",
        "policy_list", "policy_overflow", "path_number", "output_dir_number",
        "origin_countries_string", "origin_countries_not_strings", "risk_appetite_bool",
        "k_float", "k_string", "epss_threshold_string", "epss_threshold_bool",
        "policy_key_misspelt", "policy_name_unknown", "policies_false", "snapshots_zero",
        "profiles_empty_string", "section_misspelt", "lexicon_key_misspelt",
        "vocabulary_key_misspelt"])
def test_misshapen_config_exits_two(tmp_path, capsys, text):
    bad = tmp_path / "config.json"
    bad.write_text(text, encoding="utf-8")
    assert _run("--config", str(bad), "ingest") == 2
    err = capsys.readouterr().err
    assert "data error" in err and str(bad) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("key", ["snapshots.cwe", "profiles[0]", "lexicons.countries",
                                 "vocabularies.sectors"])
@pytest.mark.parametrize("value", ["", "dir"])
def test_a_configured_path_that_is_not_a_file_is_named(tmp_path, capsys, key, value):
    # "" resolves to the config's own directory; both name no file.
    (tmp_path / "dir").mkdir()
    config = json.loads((CASE_STUDY / "config.json").read_text(encoding="utf-8"))
    config["snapshots"] = {k: str(CASE_STUDY / v) for k, v in config["snapshots"].items()}
    config["profiles"] = [str(CASE_STUDY / v) for v in config["profiles"]]
    section, _, name = key.partition(".")
    if section == "profiles[0]":
        config["profiles"][0] = value
    else:
        config.setdefault(section, {})[name] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert _run("--config", str(path), "ingest") == 2
    err = capsys.readouterr().err
    assert f"data error: {path}: {key} must name a file" in err
    assert "Traceback" not in err


def test_an_empty_output_dir_is_named(tmp_path, capsys):
    # "" would be the config's own directory, as --out '' would be
    case = tmp_path / "case"
    shutil.copytree(CASE_STUDY, case, ignore=shutil.ignore_patterns("out"))
    path = case / "config.json"
    config = json.loads(path.read_text(encoding="utf-8"))
    path.write_text(json.dumps({**config, "output_dir": ""}), encoding="utf-8")
    assert _run("--config", str(path), "ingest") == 2
    err = capsys.readouterr().err
    assert f"data error: {path}: 'output_dir' must name a directory, not ''" in err
    assert not (case / "ingest_summary.json").exists()


@pytest.mark.parametrize("policies, named", [
    ({"apt_threat": {"K": 5, "risk_apetite": 3}}, "'K'"),
    ({"general_threat": {"k": 4, "skill": "Low"}}, "'skill'"),
    ({"apt_threat": {"k": 4}, "apt": {"k": 4}}, "'apt'"),
    # a setting no bit of the section's family reads
    ({"apt_threat": {"k": 4, "skill_level": "Low"}}, "unknown key 'skill_level'"),
    ({"general_threat": {"origin_countries": ["Iran"]}}, "unknown key 'origin_countries'"),
])
def test_unknown_policy_setting_is_named(tmp_path, policies, named):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"date_range": {"from": "2021-11-22", "to": "2021-11-28"},
                                "policies": policies}), encoding="utf-8")
    with pytest.raises(DataError, match=named):
        load_config(path)


@pytest.mark.parametrize("extra, named", [
    ({"polices": {"apt_threat": {"k": 5}}}, "unknown config key 'polices'"),
    ({"lexicons": {"countries": "nowhere.tsv", "sector": "x.tsv"}},
     "unknown 'lexicons' key 'sector'"),
    ({"vocabularies": {"country": "nowhere.txt"}}, "unknown 'vocabularies' key 'country'"),
])
def test_unknown_config_key_is_named(tmp_path, extra, named):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"date_range": {"from": "2021-11-22", "to": "2021-11-28"},
                                **extra}), encoding="utf-8")
    with pytest.raises(DataError, match=named):
        load_config(path)


def test_absent_sections_keep_their_defaults(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"date_range": {"from": "2021-11-22", "to": "2021-11-28"}}),
                    encoding="utf-8")
    config = load_config(path)
    assert (config.snapshots, config.profile_paths) == ({}, [])
    assert list(config.policies) == list(ranking.FAMILIES)
    assert config.policies == {family: PolicyConfig(family=family) for family in Family}
    assert (config.lexicons, config.vocabularies) == ({}, {})

    # So does an absent key: naming only vocabularies.sectors builds with
    # the packaged countries.
    sectors = tmp_path / "sectors.txt"
    sectors.write_text(read_data_file(None, "dhs_sectors.txt") + "Space Systems\n",
                       encoding="utf-8")
    path.write_text(json.dumps({"date_range": {"from": "2021-11-22", "to": "2021-11-28"},
                                "vocabularies": {"sectors": "sectors.txt"}}), encoding="utf-8")
    config = load_config(path)
    assert (config.lexicons, config.vocabularies) == ({}, {"sectors": sectors})
    graph, _coverage = cli.build_pipeline(config)
    packaged = load_vocabulary()
    assert [n.key for n in graph.nodes_with_label(kgraph.NodeLabel.COUNTRY)] \
        == list(packaged.countries)
    assert [n.key for n in graph.nodes_with_label(kgraph.NodeLabel.DHS_SECTOR)] \
        == [*packaged.sectors, "Space Systems"]


def test_policy_config_holds_only_what_the_config_sets(tmp_path):
    # Each section sets the keys its family reads, and every PolicyConfig
    # field but the family is one of them, so no derived field rides along
    # in the config; a field the section cannot set keeps its default.
    settings = {
        "apt_threat": {"origin_countries": ["Iran"], "epss_threshold": 0.5,
                       "risk_appetite": 50, "k": 7},
        "general_threat": {"skill_level": "Low", "epss_threshold": 0.5,
                           "risk_appetite": 50, "k": 7},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"date_range": {"from": "2021-11-22", "to": "2021-11-28"},
                                "policies": settings}), encoding="utf-8")
    config = load_config(path)
    fields = set(PolicyConfig._fields) - {"family"}
    assert set().union(*settings.values()) == fields
    assert list(config.policies) == list(ranking.FAMILIES)
    for family, policy_config in config.policies.items():
        assert policy_config.family is family
        section = ranking.FAMILIES[family][0].value
        default = PolicyConfig(family=family)
        for name in fields:
            changed = getattr(policy_config, name) != getattr(default, name)
            assert changed == (name in settings[section]), (section, name)


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


@pytest.mark.parametrize("name, old, new", [
    ("epss.csv", b"cve,epss,percentile", b"cve,score,percentile"),
    ("kev.csv", b"cveID,vendorProject", b"cveId,vendorProject"),
    ("epss.csv", None, None),  # a directory where the file belongs
], ids=["epss_header", "kev_header", "epss_directory"])
def test_unreadable_csv_feed_exits_two_naming_it_once(tmp_path, capsys, name, old, new):
    case = tmp_path / "case"
    shutil.copytree(CASE_STUDY, case, ignore=shutil.ignore_patterns("out"))
    path = case / name
    if old is None:
        path.unlink()
        path.mkdir()
    else:
        data = path.read_bytes()
        assert data.count(old) == 1
        path.write_bytes(data.replace(old, new))
    assert _run("--config", str(case / "config.json"), "--out", str(tmp_path / "out"),
                "ingest") == 2
    err = capsys.readouterr().err
    assert err.count(str(path)) == 1, err
    assert "Traceback" not in err


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


# Each kind of input file, as it sits in a copy of the case fixture that
# also configures a country vocabulary and lexicon of its own.
_INPUT_FILES = {
    "config": "config.json", "profile": "profiles/odu.json", "epss_csv": "epss.csv",
    "kev_csv": "kev.csv", "vocabulary": "countries.txt", "lexicon": "country_terms.tsv",
    "snapshot": "snapshots/cwe.jsonl",
}


@pytest.mark.parametrize("kind", list(_INPUT_FILES))
def test_a_utf8_bom_is_refused_naming_the_file_or_skips_a_snapshot_line(tmp_path, capsys,
                                                                         kind):
    case = tmp_path / "case"
    shutil.copytree(CASE_STUDY, case, ignore=shutil.ignore_patterns("out"))
    config = json.loads((case / "config.json").read_text(encoding="utf-8"))
    config["vocabularies"] = {"countries": "countries.txt"}
    config["lexicons"] = {"countries": "country_terms.tsv"}
    (case / "config.json").write_text(json.dumps(config), encoding="utf-8")
    for name in ("countries.txt", "country_terms.tsv"):  # each starting with an entry
        lines = read_data_file(None, name).splitlines(keepends=True)
        (case / name).write_text("".join(line for line in lines if not line.startswith("#")),
                                 encoding="utf-8")
    path = case / _INPUT_FILES[kind]
    path.write_bytes("\ufeff".encode("utf-8") + path.read_bytes())
    out = tmp_path / "out"
    command = "ingest" if kind == "snapshot" else "build"
    code = _run("--config", str(case / "config.json"), "--out", str(out), command)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if kind == "snapshot":
        # A feed line is skipped and counted, never fatal: here the first one.
        assert code == 0, err
        summary = json.loads((out / "ingest_summary.json").read_text(encoding="utf-8"))
        assert (summary["sources"]["cwe"]["records"], summary["sources"]["cwe"]["skipped"]) \
            == (6, 1)  # of 7 lines
    else:
        assert code == 2
        # named as a BOM by the JSON decoder, the data-file reader and the CSV reader
        assert str(path.resolve()) in err and "BOM" in err, err
        assert not out.exists()


def _build_with_country_terms(tmp_path, extra: str) -> int:
    """``build`` on the case fixture with its country lexicon set to the
    packaged terms and the ``term<TAB>value`` lines ``extra``."""
    terms = tmp_path / "country_terms.tsv"
    terms.write_text(read_data_file(None, "country_terms.tsv") + extra, encoding="utf-8")
    config = json.loads((CASE_STUDY / "config.json").read_text(encoding="utf-8"))
    config["lexicons"] = {"countries": str(terms)}
    config["snapshots"] = {k: str(CASE_STUDY / v) for k, v in config["snapshots"].items()}
    config["profiles"] = [str(CASE_STUDY / v) for v in config["profiles"]]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        return _run("--config", str(path), "--out", str(tmp_path / "out"), "build")


# A term that starts with a non-word character: indexed under "prc".
_PRC_TERM = "(prc)\tChina\n"


def test_a_lexicon_term_longer_than_the_recursion_limit_builds(tmp_path, capsys):
    assert _build_with_country_terms(tmp_path, _PRC_TERM + "x" * 600 + "\tChina\n") == 0
    assert "Traceback" not in capsys.readouterr().err


def test_lexicon_terms_each_a_prefix_of_the_next_build(tmp_path, capsys):
    nested = "".join("a" * n + "\tChina\n" for n in range(1, 501))
    assert _build_with_country_terms(tmp_path, _PRC_TERM + nested) == 0
    assert "Traceback" not in capsys.readouterr().err


def test_a_term_led_by_a_non_word_character_leaves_the_graph_unchanged(tmp_path):
    # No case fixture description holds "(prc)", so the graph is the same.
    graphs = []
    for side, extra in (("packaged", ""), ("prc", _PRC_TERM)):
        (tmp_path / side).mkdir()
        assert _build_with_country_terms(tmp_path / side, extra) == 0
        graphs.append((tmp_path / side / "out" / "graph.jsonl").read_bytes())
    assert graphs[0] == graphs[1]


def test_a_lexicon_term_with_no_word_character_exits_two(tmp_path, capsys):
    assert _build_with_country_terms(tmp_path, "--\tChina\n") == 2
    err = capsys.readouterr().err
    # the appended line follows the packaged terms
    line_no = len(read_data_file(None, "country_terms.tsv").splitlines()) + 1
    assert f"{tmp_path / 'country_terms.tsv'}:{line_no}: term '--' has no letter, digit or '_'" \
        in err
    assert "Traceback" not in err


# 1,000 nested arrays: a 2 KB JSON value too deep for the decoder, which
# raises RecursionError, not a ValueError.
_DEEP_JSON = "[" * 1000 + "]" * 1000


def test_deeply_nested_config_exits_two(tmp_path, capsys):
    bad = tmp_path / "config.json"
    bad.write_text(_DEEP_JSON, encoding="utf-8")
    assert _run("--config", str(bad), "ingest") == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "Traceback" not in err


def test_deeply_nested_feed_line_is_skipped(tmp_path):
    case = tmp_path / "case"
    shutil.copytree(CASE_STUDY, case, ignore=shutil.ignore_patterns("out"))
    with (case / "snapshots" / "cwe.jsonl").open("a", encoding="utf-8") as fh:
        fh.write(_DEEP_JSON + "\n")
    out = tmp_path / "out"
    assert _run("--config", str(case / "config.json"), "--out", str(out), "ingest") == 0
    sources = json.loads((out / "ingest_summary.json").read_text(encoding="utf-8"))["sources"]
    assert (sources["cwe"]["records"], sources["cwe"]["skipped"]) == (7, 1)  # of 8 lines


def test_deeply_nested_profile_exits_two_naming_it(tmp_path, capsys):
    config = json.loads((CASE_STUDY / "config.json").read_text(encoding="utf-8"))
    config["snapshots"] = {kind: str(CASE_STUDY / rel)
                           for kind, rel in config["snapshots"].items()}
    profile = tmp_path / "deep.json"
    profile.write_text(_DEEP_JSON, encoding="utf-8")
    config["profiles"] = [str(profile)]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert _run("--config", str(path), "--out", str(tmp_path / "out"), "build") == 2
    err = capsys.readouterr().err
    assert str(profile) in err and "Traceback" not in err


def test_deeply_nested_graph_line_exits_two_naming_the_line(built, capsys):
    path = built / "graph.jsonl"
    lines = path.read_bytes().split(b"\n")
    line_no = next(i for i, line in enumerate(lines, start=1) if b'"kind": "edge"' in line)
    lines[line_no - 1] = _DEEP_JSON.encode()
    path.write_bytes(b"\n".join(lines))
    _assert_read_commands_name_line(built, capsys, line_no)


def test_deeply_nested_graph_prop_exits_two(built, capsys):
    # 500 levels decode; freezing refuses the prop without recursing once per
    # level, and a flat list prop in its place loads like any other
    ranked = built / "ranked_ODU_apt_threat.csv"
    base = ["--config", CONFIG, "--out", str(built)]
    assert _run(*base, "rank", "--org", "ODU", "--policy", "apt_threat") == 0
    expected = ranked.read_bytes()
    capsys.readouterr()
    path = built / "graph.jsonl"
    data = path.read_bytes()
    start = data.index(b'{"kind": "node", "label": "Cpe", "key": ')
    key = json.loads(data[start:data.index(b"\n", start)])["key"]
    at = data.index(b'"props": {', start) + len(b'"props": {')
    path.write_bytes(data[:at] + b'"deep": ' + b"[" * 500 + b"]" * 500 + b", " + data[at:])
    for command in (["rank", "--org", "ODU", "--policy", "apt_threat"], ["evaluate"],
                    ["case-study", "--org", "ODU"]):
        assert _run(*base, *command) == 2, command
        err = capsys.readouterr().err
        assert f"{path}: Cpe {key!r}: prop 'deep'" in err
        assert "Traceback" not in err and "RecursionError" not in err
    path.write_bytes(data[:at] + b'"flat": ["a", 1, null], ' + data[at:])
    with contextlib.redirect_stdout(io.StringIO()):
        assert _run(*base, "rank", "--org", "ODU", "--policy", "apt_threat") == 0
    assert ranked.read_bytes() == expected


# Snapshot and CSV inputs of the case fixture, as paths under its directory.
_FEED_FILES = [name for name in fuzz_inputs.INPUTS if not name.endswith(".json")]


@pytest.fixture(scope="module")
def case_copy(tmp_path_factory):
    case = tmp_path_factory.mktemp("mutated") / "case"
    shutil.copytree(CASE_STUDY, case, ignore=shutil.ignore_patterns("out"))
    return case


@given(name=st.sampled_from(_FEED_FILES), byte=st.sampled_from(list(fuzz_inputs.ALPHABET)),
       insert=st.booleans(), data=st.data())
@settings(max_examples=50, deadline=None)
def test_one_byte_feed_edit_keeps_the_exit_code_contract(case_copy, name, byte, insert, data):
    path = case_copy / name
    original = path.read_bytes()
    at = data.draw(st.integers(0, len(original) - (0 if insert else 1)))
    path.write_bytes(fuzz_inputs.byte_edit(original, at, byte, insert))
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


# The case fixture's config, which every command reads, and its profile,
# fuzzed with scripts/fuzz_inputs.py's edits through all five commands.
_SETTINGS_FILES = ("config.json", "profiles/odu.json")
_SWAPS = {name: fuzz_inputs.value_swaps(name, (CASE_STUDY / name).read_bytes(),
                                        random.Random(0))
          for name in _SETTINGS_FILES}


@given(name=st.sampled_from(_SETTINGS_FILES), byte=st.sampled_from(list(fuzz_inputs.ALPHABET)),
       insert=st.booleans(), data=st.data())
@settings(max_examples=40, deadline=None)
def test_one_byte_settings_edit_keeps_the_exit_code_contract(name, byte, insert, data):
    original = (CASE_STUDY / name).read_bytes()
    at = data.draw(st.integers(0, len(original) - (0 if insert else 1)))
    assert fuzz_inputs.run_case(name, fuzz_inputs.byte_edit(original, at, byte, insert)) == []


@given(name=st.sampled_from(_SETTINGS_FILES), data=st.data())
@settings(max_examples=100, deadline=None)
def test_json_value_swap_keeps_the_exit_code_contract(name, data):
    # Any value at any key path: null, a bool, numbers past an index, strings,
    # arrays and objects where the other types belong.
    path, value = data.draw(st.sampled_from(_SWAPS[name]))
    edited = fuzz_inputs.swap_bytes(name, (CASE_STUDY / name).read_bytes(), path, value)
    assert fuzz_inputs.run_case(name, edited) == []


def test_the_unedited_fuzz_case_exits_zero():
    # The case copy that scripts/fuzz_inputs.py edits names copies of the
    # packaged data files; unedited, every command succeeds on it
    files = fuzz_inputs.project_files()
    assert set(fuzz_inputs.DATA_FILES) < set(files)
    assert fuzz_inputs.run_case("config.json", files["config.json"], codes=(0,)) == []


def test_the_non_ascii_swap_into_a_group_description_exits_zero():
    # The fuzzer's non-ASCII string, as the first group's description
    name = "snapshots/group.jsonl"
    text = fuzz_inputs.SWAP_VALUES[-1]
    assert not text.isascii()
    edited = fuzz_inputs.swap_bytes(name, (CASE_STUDY / name).read_bytes(), (0, "description"),
                                    text)
    assert fuzz_inputs.run_case(name, edited, codes=(0,)) == []


@given(name=st.sampled_from(sorted(fuzz_inputs.DATA_FILES)),
       byte=st.sampled_from(list(fuzz_inputs.ALPHABET)), insert=st.booleans(), data=st.data())
@settings(max_examples=40, deadline=None)
def test_one_byte_data_file_edit_keeps_the_exit_code_contract(name, byte, insert, data):
    # A configured vocabulary or lexicon file, edited
    original = fuzz_inputs.project_files()[name]
    at = data.draw(st.integers(0, len(original) - (0 if insert else 1)))
    assert fuzz_inputs.run_case(name, fuzz_inputs.byte_edit(original, at, byte, insert)) == []


def test_bad_flags_exit_one(capsys):
    assert _run("--config", CONFIG, "frobnicate") == 1
    capsys.readouterr()


@pytest.mark.parametrize("was_enabled", [True, False], ids=["gc_enabled", "gc_disabled"])
@pytest.mark.parametrize("code", [0, 1, 2])
def test_main_leaves_the_collector_as_it_found_it(tmp_path, capsys, monkeypatch,
                                                  code, was_enabled):
    bad = tmp_path / "config.json"
    bad.write_text("{not json", encoding="utf-8")
    config = {0: CONFIG, 1: str(tmp_path / "nope.json"), 2: str(bad)}[code]
    during = []

    def recording_load_config(path):
        during.append(gc.isenabled())
        return load_config(path)

    monkeypatch.setattr(cli, "load_config", recording_load_config)
    (gc.enable if was_enabled else gc.disable)()
    try:
        assert _run("--config", config, "--out", str(tmp_path / "out"), "ingest") == code
        after = gc.isenabled()
    finally:
        gc.enable()
    capsys.readouterr()
    assert during == [False]  # the command ran with the collector paused
    assert after is was_enabled


# Run in a fresh interpreter as the process's own command line, the way the
# console script and ``python -m threatrank.cli`` run ``main``.
_EXIT_CHILD = """
import gc, json, sys
from threatrank.cli import main
from threatrank.kgraph import Node
if sys.argv.pop(1) == "gc_off":
    gc.disable()
code = main(sys.argv[1:])
result = {"frozen": gc.get_freeze_count(), "enabled": gc.isenabled(),
          "nodes": sum(type(o) is Node for o in gc.get_objects())}
gc.collect()
result["collected_nodes"] = sum(type(o) is Node for o in gc.get_objects())
print(json.dumps(result))
sys.exit(code)
"""


@pytest.mark.parametrize("collector", ["gc_on", "gc_off"])
def test_main_as_the_program_freezes_the_command_heap(built, collector):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    child = subprocess.run(
        [sys.executable, "-c", _EXIT_CHILD, collector, "--config", CONFIG, "--out", str(built),
         "rank", "--org", "ODU", "--policy", "apt_threat"],
        env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout.splitlines()[-1])
    assert result["enabled"] is (collector == "gc_on")
    if collector == "gc_on":
        # The graph went to the permanent generation, where no pass walks it.
        assert result["frozen"] > 0
        assert result["nodes"] == 0
    else:  # a caller that turned the collector off gets nothing frozen, and
        # refcounting alone freed the graph, which holds no reference cycle
        assert result["frozen"] == 0
        assert result["nodes"] == 0
    assert result["collected_nodes"] == 0


def _node_count() -> int:
    gc.collect()
    return sum(type(o) is Node for o in gc.get_objects())


def test_main_in_process_freezes_nothing_and_its_graph_is_collected(built, monkeypatch):
    frozen, nodes = gc.get_freeze_count(), _node_count()
    loaded = []
    load_graph = kgraph.load_graph

    def counting_load_graph(path):
        graph = load_graph(path)
        loaded.append(sum(1 for _ in graph.nodes()))
        return graph

    monkeypatch.setattr(kgraph, "load_graph", counting_load_graph)
    assert _run("--config", CONFIG, "--out", str(built),
                "rank", "--org", "ODU", "--policy", "apt_threat") == 0
    assert loaded[0] > 0
    assert gc.get_freeze_count() == frozen
    assert _node_count() == nodes


def test_no_command_leaves_a_file_open(tmp_path, monkeypatch):
    # A file left to the collector is never closed once main freezes the heap.
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    out = str(tmp_path / "out")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        for command in (["ingest"], ["build"],
                        ["rank", "--org", "ODU", "--policy", "apt_threat"],
                        ["evaluate"], ["case-study", "--org", "ODU"]):
            assert _run("--config", CONFIG, "--out", out, *command) == 0
            gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
    assert unraisable == []


def _cut_child(limit, *args):
    """The CLI run in a child process whose files may not grow past
    ``limit`` bytes; a write past it fails with EFBIG, as on a full disk.
    The limit is set in the child only, never on this process."""
    def limit_file_size():
        signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
        resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", "threatrank.cli", "--config", CONFIG, *args],
                          env=env, capture_output=True, text=True, preexec_fn=limit_file_size)


def _line_boundary(path, line_no):
    """The byte offset at which line ``line_no`` (from 1) of ``path`` starts."""
    return sum(len(line) for line in path.read_bytes().splitlines(keepends=True)[:line_no - 1])


def _ranked_bytes(out):
    with contextlib.redirect_stdout(io.StringIO()):
        assert _run("--config", CONFIG, "--out", str(out),
                    "rank", "--org", "ODU", "--policy", "apt_threat") == 0
    return (out / "ranked_ODU_apt_threat.csv").read_bytes()


def _file_bytes(out):
    return {path.name: path.read_bytes() for path in out.iterdir()}


@pytest.mark.parametrize("line_no", [349, 664])
def test_a_build_cut_at_a_graph_line_leaves_the_earlier_graph(built, tmp_path, line_no):
    graph = built / "graph.jsonl"
    limit = _line_boundary(graph, line_no)
    ranked = _ranked_bytes(built)
    before = _file_bytes(built)
    child = _cut_child(limit, "--out", str(built), "build")
    assert child.returncode == 2, child.stderr
    assert f"data error: {graph}: cannot write: File too large" in child.stderr
    assert _file_bytes(built) == before  # the same names, and each file whole
    assert _ranked_bytes(built) == ranked
    # With no earlier graph, the cut leaves no file: the graph is written first.
    fresh = tmp_path / "fresh"
    assert _cut_child(limit, "--out", str(fresh), "build").returncode == 2
    assert _file_bytes(fresh) == {}


def test_an_evaluate_cut_at_a_report_line_leaves_the_earlier_report(built, capsys):
    base = ["--config", CONFIG, "--out", str(built)]
    assert _run(*base, "evaluate") == 0
    capsys.readouterr()
    ndcg = built / "ndcg_by_k.csv"
    limit = _line_boundary(ndcg, 200)
    ranked = _ranked_bytes(built)
    before = _file_bytes(built)
    child = _cut_child(limit, "--out", str(built), "evaluate")
    assert child.returncode == 2, child.stderr
    assert f"data error: {ndcg}: cannot write: File too large" in child.stderr
    assert _file_bytes(built) == before
    assert _ranked_bytes(built) == ranked
    for name in ("ndcg_by_k.csv", "cost.csv", "ttest.csv"):
        (built / name).unlink()
        del before[name]
    assert _cut_child(limit, "--out", str(built), "evaluate").returncode == 2
    assert _file_bytes(built) == before  # no report file, and no temporary one


@pytest.mark.parametrize("command, code", [
    (["ingest"], 2), (["build"], 2), (["rank", "--org", "ODU", "--policy", "apt_threat"], 1),
    (["evaluate"], 1), (["case-study", "--org", "ODU"], 1)])
def test_an_out_that_names_a_file_is_named(tmp_path, capsys, command, code):
    # A read command finds no graph.jsonl under it and writes nothing.
    out = tmp_path / "out"
    out.write_bytes(b"not a directory\n")
    assert _run("--config", CONFIG, "--out", str(out), *command) == code
    err = capsys.readouterr().err
    assert f"{out}{os.sep}" in err and "Traceback" not in err
    assert out.read_bytes() == b"not a directory\n"
    assert os.listdir(tmp_path) == ["out"]


def test_evaluate_is_deterministic(tmp_path):
    out = tmp_path / "out"
    assert _run("--config", CONFIG, "--out", str(out), "build") == 0
    assert _run("--config", CONFIG, "--out", str(out), "evaluate") == 0
    csvs = ["ndcg_by_k.csv", "cost.csv", "ttest.csv"]
    first = {name: (out / name).read_bytes() for name in csvs}
    assert _run("--config", CONFIG, "--out", str(out), "evaluate") == 0
    for name in csvs:
        assert (out / name).read_bytes() == first[name]


def test_read_commands_build_one_feature_table_per_organization(tmp_path, monkeypatch):
    # Two organizations over the synthetic fixture's feeds, thirteen weeks
    config = json.loads((SYNTHETIC / "config.json").read_text(encoding="utf-8"))
    config["snapshots"] = {kind: str(SYNTHETIC / rel)
                           for kind, rel in config["snapshots"].items()}
    first = SYNTHETIC / "profiles" / "synthu.json"
    second = tmp_path / "synthv.json"
    profile = json.loads(first.read_text(encoding="utf-8"))
    profile["org_id"], profile["software"] = "SYNTHV", profile["software"][::2]
    second.write_text(json.dumps(profile), encoding="utf-8")
    config["profiles"] = [str(first), str(second)]
    config["date_range"] = {"from": "2020-01-01", "to": "2020-03-31"}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    base = ["--config", str(path), "--out", str(out)]
    assert _run(*base, "build") == 0

    readers = []
    feature_table = ranking.feature_table

    def counted(graph, cve_ids, org):
        readers.append(org.org_id)
        return feature_table(graph, cve_ids, org)

    def readers_of(*args):
        readers.clear()
        assert _run(*base, *args) == 0
        return sorted(readers)

    monkeypatch.setattr(ranking, "feature_table", counted)
    orgs = ["SYNTHU", "SYNTHV"]
    for org in orgs:
        for policy in ("cvss_base", "apt_threat", "general_threat", "ideal"):
            assert readers_of("rank", "--org", org, "--policy", policy) == [org]
        assert readers_of("case-study", "--org", org) == [org]
        with (out / f"ranked_{org}_ideal.csv").open(encoding="utf-8", newline="") as fh:
            assert len({row["iso_week"] for row in csv.DictReader(fh)}) > 1
    assert readers_of("evaluate") == orgs


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


@pytest.mark.parametrize("override, message", [
    (["--from", ""], "bad date override: Invalid isoformat string: ''"),
    (["--to", ""], "bad date override: Invalid isoformat string: ''"),
    (["--out", ""], "--out must name a directory, not ''"),
], ids=["from", "to", "out"])
def test_empty_override_is_a_usage_error(tmp_path, capsys, override, message):
    # An empty value is not the same as no option: it is refused, not ignored.
    case = tmp_path / "case"
    shutil.copytree(CASE_STUDY, case, ignore=shutil.ignore_patterns("out"))
    assert _run("--config", str(case / "config.json"), *override, "ingest") == 1
    assert f"error: {message}\n" in capsys.readouterr().err
    assert not (case / "out").exists()


def _reference_write_ranked_csv(path, ranked_lists):
    """The ranked CSV as ``csv.writer`` writes it, one ``writerow`` per item."""
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["org", "policy", "iso_week", "rank", "cve", "score", "feature_bits"])
        for ranked in ranked_lists:
            week = f"{ranked.iso_week[0]}-W{ranked.iso_week[1]:02d}"
            for item in ranked.items:
                bits = "|".join(f"{name}={bit}" for name, bit in item.feature_bits.items())
                writer.writerow([ranked.org_id, ranked.policy.value, week,
                                 item.rank, item.cve_id, f"{item.score:g}", bits])


# Ids holding what csv quotes or might: commas, quotes, line breaks, leading
# spaces, non-ASCII text and the empty string.  Lone surrogates are left out:
# neither writer can encode them.
_ID_TEXT = st.text(st.sampled_from([",", '"', "\r", "\n", " ", "\t", "\x00", "é", "€",
                                    "\U0001f600", "C", "-", "1"])
                   | st.characters(blacklist_categories=("Cs",)), max_size=8)
_IDS = (st.sampled_from(["", " ", " CVE-2021-1", "CVE-2021-44228", "a,b", 'say "hi"', "\r\n"])
        | _ID_TEXT)
# Bits mappings as rank builds them: the shared empty default and read-only
# policy patterns; and plain dicts.  Items draw from a pool, so they share.
_PATTERNS = st.builds(lambda names, bits: dict(zip(names, bits)),
                      st.sampled_from([APT_BITS, GENERAL_BITS]),
                      st.lists(st.integers(0, 1), min_size=6, max_size=6))
_BITS = (st.just(RankedItem._field_defaults["feature_bits"])
         | _PATTERNS.map(MappingProxyType) | _PATTERNS)
_SCORES = st.floats(0, 10) | st.integers(1, 6).map(float)


@st.composite
def _ranked_lists(draw):
    pool = draw(st.lists(_BITS, min_size=1, max_size=4))  # drawn items share these objects
    lists = []
    for _ in range(draw(st.integers(0, 3))):
        items = tuple(RankedItem(draw(_IDS), draw(_SCORES), position, draw(st.sampled_from(pool)))
                      for position in range(1, draw(st.integers(0, 4)) + 1))
        lists.append(RankedList(draw(_IDS), draw(st.sampled_from(list(Policy))),
                                (draw(st.integers(1, 9999)), draw(st.integers(1, 53))), items))
    return lists


@given(ranked_lists=_ranked_lists())
@settings(max_examples=200, deadline=None)
def test_ranked_csv_writes_what_the_reference_writer_writes(tmp_path_factory, ranked_lists):
    out = tmp_path_factory.mktemp("ranked")
    cli._write_ranked_csv(out / "ranked.csv", ranked_lists)
    _reference_write_ranked_csv(out / "reference.csv", ranked_lists)
    assert (out / "ranked.csv").read_bytes() == (out / "reference.csv").read_bytes()


# Golden outputs of a full pipeline run: sha256 over every output file in
# name order, each contributing name + NUL + bytes.  They pin graph.jsonl,
# coverage, ranked (including the feature_bits column order), report and
# case-study bytes.
# Values: (org, weekly cohorts, output files, digest).
GOLDEN_OUTPUTS = {
    "case_study": ("ODU", 1, 12,
                   "d598f050f716e350cbf3f824181f7ab61ce3826c7983e54efe71de51fcc12e81"),
    "synthetic52": ("SYNTHU", 52, 63,
                    "25759cde9af9acac1c9d03df1b43f94a2d023f62b684059d98fa5bdd11a2991c"),
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
