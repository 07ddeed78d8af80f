"""A read command imports only what it runs, and every public name still
imports from the package, loaded on first use."""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys

import pytest

import threatrank
from threatrank.cli import main
from tests.conftest import CASE_STUDY, REPO_ROOT

# The public names the package exported when it imported every module up
# front, by the module that defines each.
PUBLIC_NAMES = {
    "enrich": ["GroupAttribution", "Lexicon", "attribute_group", "filter_us_targeting",
               "load_lexicon"],
    "errors": ["DataError", "ThreatRankError", "UsageError"],
    "evaluation": ["EvaluationReport", "Severity", "annualized_cost", "generate_report",
                   "ndcg_at_k", "patch_cost", "severity_band"],
    "feeds": ["AttackGroupRaw", "AttackTactic", "AttackTechnique", "CapecEntry", "CpeEntry",
              "CveRecord", "CweEntry", "EpssScore", "ExploitRef", "KevEntry", "ParseResult",
              "ReferenceRecord", "ValidationReport", "parse_epss_csv", "parse_kev_csv",
              "parse_snapshot", "validate_snapshot"],
    "kgraph": ["EdgeType", "NodeLabel", "PropertyGraph", "build_graph", "load_graph",
               "save_graph", "techniques_for_cve"],
    "kinds": ["AttackVector", "SkillLevel", "SourceKind", "TechnicalImpact"],
    "profiles": ["OrganizationProfile", "SoftwareItem", "cpe_index", "load_profile",
                 "resolve_cpes"],
    "ranking": ["Family", "FeatureRow", "OrgContext", "Policy", "PolicyConfig", "RankedItem",
                "RankedList", "WeeklyCohort", "feature_table", "generate_candidates", "rank"],
    "stats": ["TTestResult", "paired_t_test", "student_t_cdf"],
    "vocab": ["Vocabulary", "load_vocabulary"],
}
ALL_NAMES = sorted(name for names in PUBLIC_NAMES.values() for name in names)

# Run in a fresh interpreter: the modules one import of the package and
# then the three read commands leave loaded, and whether logging and
# dataclasses are among them.
_CHILD = """
import contextlib, io, json, sys
import threatrank
after_package = sorted(m for m in sys.modules if m.startswith("threatrank"))
from threatrank.cli import main
base, org = sys.argv[1:-1], sys.argv[-1]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main([*base, "rank", "--org", org, "--policy", "apt_threat"]),
             main([*base, "evaluate"]),
             main([*base, "case-study", "--org", org])]
print(json.dumps({"after_package": after_package, "codes": codes,
                  "after_commands": sorted(m for m in sys.modules if m.startswith("threatrank")),
                  "logging": "logging" in sys.modules,
                  "dataclasses": "dataclasses" in sys.modules}))
"""

# Run in a fresh interpreter: ingest and build, then whether logging and
# dataclasses are loaded.
_SETUP_CHILD = """
import contextlib, io, json, sys
from threatrank.cli import main
base = sys.argv[1:]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main([*base, "ingest"]), main([*base, "build"])]
print(json.dumps({"codes": codes, "logging": "logging" in sys.modules,
                  "dataclasses": "dataclasses" in sys.modules}))
"""


def _run_child(code: str, *args: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT), os.environ.get("PYTHONPATH", "")]))
    child = subprocess.run([sys.executable, "-c", code, *args],
                           env=env, capture_output=True, text=True, check=True)
    return json.loads(child.stdout.splitlines()[-1])


def test_read_commands_import_no_ingest_or_build_module(tmp_path, capsys):
    out = tmp_path / "out"
    config = str(CASE_STUDY / "config.json")
    assert main(["--config", config, "--out", str(out), "build"]) == 0
    capsys.readouterr()
    result = _run_child(_CHILD, "--config", config, "--out", str(out), "ODU")
    assert result["after_package"] == ["threatrank"]
    assert result["codes"] == [0, 0, 0]
    loaded = set(result["after_commands"])
    assert {"threatrank.kgraph", "threatrank.ranking", "threatrank.evaluation"} <= loaded
    assert not loaded & {"threatrank.feeds", "threatrank.enrich", "threatrank.profiles"}
    assert result["logging"] is False  # only a missing CVSS score imports it
    assert result["dataclasses"] is False


def test_ingest_and_build_import_neither_dataclasses_nor_logging(tmp_path):
    # The fixture's feeds hold no duplicate primary key, the one thing that
    # makes ingest or build import logging.
    result = _run_child(_SETUP_CHILD, "--config", str(CASE_STUDY / "config.json"),
                        "--out", str(tmp_path / "out"))
    assert result == {"codes": [0, 0], "logging": False, "dataclasses": False}


@pytest.mark.parametrize("module, name", [(module, name) for module, names
                                          in PUBLIC_NAMES.items() for name in names])
def test_public_name_is_the_defining_modules_object(module, name):
    defined = getattr(importlib.import_module(f"threatrank.{module}"), name)
    assert getattr(threatrank, name) is defined
    namespace: dict = {}
    exec(f"from threatrank import {name}", namespace)
    assert namespace[name] is defined


def test_public_names_are_listed():
    assert len(ALL_NAMES) == 64
    assert sorted(threatrank.__all__) == ALL_NAMES
    assert set(ALL_NAMES) <= set(dir(threatrank))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        threatrank.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from threatrank import no_such_name", {})


def test_feeds_reexports_the_shared_kinds_and_format_error():
    from threatrank import feeds, kinds

    for name in PUBLIC_NAMES["kinds"]:
        assert getattr(feeds, name) is getattr(kinds, name)
