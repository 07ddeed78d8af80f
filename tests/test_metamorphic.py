"""Whole-pipeline metamorphic relations: two CLI runs on related inputs.

Each relation compares the outputs of two runs instead of checking one run
against fixed bytes.  Every relation runs on both fixtures and on a small
corpus from the benchmark's generator (``bench/corpus.py``, a many-org
shape as small as the benchmark's own tests use), except that a policy
setting need only move an output of one of the two fixtures.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import random
import shutil
import sys
from dataclasses import replace
from datetime import date, timedelta
from pathlib import Path

import pytest

from threatrank.cli import load_config, main
from threatrank.errors import DataError
from threatrank.ranking import DEFAULT_ORIGIN_COUNTRIES, PolicyConfig
from tests.conftest import CASE_STUDY, REPO_ROOT, SYNTHETIC

sys.path.insert(0, str(REPO_ROOT / "bench"))
from corpus import WORKLOADS, generate  # noqa: E402

POLICIES = ("cvss_base", "apt_threat", "general_threat", "ideal")
TINY_SHAPE = replace(WORKLOADS["wide_intel"], weeks=3, query_weeks=3, orgs=3,
                     items_per_org=8, unresolved_per_org=1, versions=2, extra_cpes=10,
                     applicable_per_week=6, noise_per_week=3, groups=12,
                     filler_sentences=1, cwes=8, capecs=8, techniques=8)


def _run(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv


class Project:
    """A project directory the CLI reads: its config and its organizations."""

    def __init__(self, root: Path, read_args: list[str]):
        self.root = root
        self.config = root / "config.json"
        self.read_args = read_args
        self.raw = json.loads(self.config.read_text(encoding="utf-8"))
        self.orgs = sorted(json.loads((root / rel).read_text(encoding="utf-8"))["org_id"]
                           for rel in self.raw["profiles"])

    def copy(self, dest: Path) -> "Project":
        shutil.copytree(self.root, dest, ignore=shutil.ignore_patterns("out"))
        return Project(dest, self.read_args)

    def base(self, out: Path) -> list[str]:
        return ["--config", str(self.config), "--out", str(out)]

    def build(self, out: Path) -> None:
        for command in ("ingest", "build"):
            _run(self.base(out) + [command])

    def read(self, out: Path) -> None:
        """Every read command: rank under every policy, evaluate, case-study."""
        read = self.base(out) + self.read_args
        for org in self.orgs:
            for policy in POLICIES:
                _run(read + ["rank", "--org", org, "--policy", policy])
        _run(read + ["evaluate"])
        for org in self.orgs:
            _run(read + ["case-study", "--org", org])


def _digests(out: Path) -> dict[str, str]:
    return {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.rglob("*")) if path.is_file()}


@pytest.fixture(scope="module", params=["case_study", "synthetic52", "bench_tiny"])
def project(request, tmp_path_factory):
    if request.param == "case_study":
        return Project(CASE_STUDY, [])
    if request.param == "synthetic52":
        return Project(SYNTHETIC, [])
    corpus = generate("tiny", 3, tmp_path_factory.mktemp("bench_tiny") / "corpus",
                      shape=TINY_SHAPE)
    return Project(corpus.config.parent, corpus.read_args)


@pytest.fixture(scope="module")
def refreshed(project, tmp_path_factory):
    """The output directory of one full refresh of the unchanged project."""
    out = tmp_path_factory.mktemp("refreshed") / "out"
    project.build(out)
    project.read(out)
    return out


# ---------------------------------------------------------------------------
# Feed line order
# ---------------------------------------------------------------------------


def _shuffle_records(path: Path, rng: random.Random) -> None:
    """Shuffle a feed's record lines in place.

    In a CSV feed the header, ``#`` comment and blank lines keep their
    places; in a JSON-lines feed every non-blank line is a record.
    """
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    records = []
    header_seen = path.suffix.lower() != ".csv"
    for at, line in enumerate(lines):
        if not line.strip() or line.startswith("#"):
            continue
        if header_seen:
            records.append(at)
        header_seen = True
    moved = [lines[at] for at in records]
    rng.shuffle(moved)
    for at, line in zip(records, moved):
        lines[at] = line if line.endswith("\n") else line + "\n"
    path.write_text("".join(lines), encoding="utf-8")


def test_feed_line_order_leaves_every_output_unchanged(project, refreshed, tmp_path):
    shuffled = project.copy(tmp_path / "project")
    rng = random.Random(20240607)
    feeds = sorted(shuffled.raw["snapshots"].values())
    for rel in feeds:
        path = shuffled.root / rel
        before = path.read_bytes()
        _shuffle_records(path, rng)
        assert sorted(path.read_bytes().splitlines()) == sorted(before.splitlines())
    assert any((shuffled.root / rel).read_bytes() != (project.root / rel).read_bytes()
               for rel in feeds)
    out = tmp_path / "out"
    shuffled.build(out)
    shuffled.read(out)
    assert _digests(out) == _digests(refreshed)


# ---------------------------------------------------------------------------
# Dangling references
# ---------------------------------------------------------------------------


def test_ingest_and_build_count_the_same_dangling_references(refreshed):
    # validate_snapshot and build_graph read the same references, each
    # feed kind's refs in feeds.SOURCES; every one ingest reports, build drops.
    ingest = json.loads((refreshed / "ingest_summary.json").read_text(encoding="utf-8"))
    build = json.loads((refreshed / "build_summary.json").read_text(encoding="utf-8"))
    assert (ingest["validation"]["dangling_references"]
            == sum(build["dangling_dropped"].values()))


# ---------------------------------------------------------------------------
# Date window
# ---------------------------------------------------------------------------


def _ranked_rows(path: Path) -> dict[str, list[list[str]]]:
    """A ranked CSV's rows, keyed by their ISO week."""
    weeks: dict[str, list[list[str]]] = {}
    with path.open(encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            weeks.setdefault(row["iso_week"], []).append(list(row.values()))
    return weeks


def _monday(iso_week: str) -> date:
    year, week = iso_week.split("-W")
    return date.fromisocalendar(int(year), int(week), 1)


def test_a_window_covering_a_week_ranks_it_the_same(project, refreshed, tmp_path):
    # Ranked over every date first, so each week's cohort is whole.
    widest = ["--from", date.min.isoformat(), "--to", date.max.isoformat()]
    everything = tmp_path / "everything"
    shutil.copytree(refreshed, everything)
    for org in project.orgs:
        for policy in POLICIES:
            _run(project.base(everything) + widest + ["rank", "--org", org, "--policy", policy])
    rng = random.Random(7)
    checked = 0
    for org in project.orgs:
        baseline = {policy: _ranked_rows(everything / f"ranked_{org}_{policy}.csv")
                    for policy in POLICIES}
        weeks = sorted(baseline["cvss_base"])
        for week in sorted({weeks[0], weeks[len(weeks) // 2], weeks[-1]}):
            monday = _monday(week)
            windows = [(monday, monday + timedelta(days=6)),
                       (monday - timedelta(days=rng.randint(1, 20)),
                        monday + timedelta(days=6 + rng.randint(1, 20)))]
            for start, end in windows:
                out = tmp_path / f"{org}_{week}_{start}"
                shutil.copytree(everything, out)
                window = ["--from", start.isoformat(), "--to", end.isoformat()]
                for policy in POLICIES:
                    _run(project.base(out) + window + ["rank", "--org", org, "--policy", policy])
                    rows = _ranked_rows(out / f"ranked_{org}_{policy}.csv")
                    assert rows[week] == baseline[policy][week], (org, policy, week, window)
                    checked += 1
    assert checked >= 8


# ---------------------------------------------------------------------------
# Policy edits need no rebuild
# ---------------------------------------------------------------------------


# Every policy setting moved off the fixtures' values.
EDITED_POLICIES = {
    "apt_threat": {"origin_countries": ["Iran", "North Korea", "United States"],
                   "epss_threshold": 0.3, "risk_appetite": 60, "k": 7},
    "general_threat": {"skill_level": "Low", "epss_threshold": 0.5, "risk_appetite": 40,
                       "k": 12},
}


def test_policy_edits_need_no_rebuild(project, refreshed, tmp_path):
    edited = project.copy(tmp_path / "project")
    edited.config.write_text(json.dumps(dict(edited.raw, policies=EDITED_POLICIES)),
                             encoding="utf-8")
    # The graph built under the old policies, read under the new ones ...
    stale = tmp_path / "stale"
    shutil.copytree(refreshed, stale)
    edited.read(stale)
    # ... against a fresh build under the new ones.
    rebuilt = tmp_path / "rebuilt"
    edited.build(rebuilt)
    edited.read(rebuilt)
    assert _digests(stale) == _digests(rebuilt)
    assert _digests(rebuilt) != _digests(refreshed)  # the edit moved some output


# ---------------------------------------------------------------------------
# Every policy setting is read
# ---------------------------------------------------------------------------


# One value for each key a policies section accepts, off the fixtures' values.
SETTING_EDITS = {
    "apt_threat": {"origin_countries": ["Iran", "North Korea", "United States"],
                   "epss_threshold": 0.3, "risk_appetite": 5, "k": 7},
    "general_threat": {"skill_level": "Low", "epss_threshold": 0.3, "risk_appetite": 5,
                       "k": 3},
}


def test_setting_edits_cover_every_key_a_section_accepts(tmp_path):
    values = {key: value for edits in SETTING_EDITS.values() for key, value in edits.items()}
    assert values.keys() == set(PolicyConfig._fields) - {"family"}
    path = tmp_path / "config.json"
    for section, edits in SETTING_EDITS.items():
        for key, value in values.items():
            path.write_text(json.dumps({"date_range": {"from": "2021-11-22", "to": "2021-11-28"},
                                        "policies": {section: {key: value}}}), encoding="utf-8")
            try:
                load_config(path)
            except DataError:
                assert key not in edits, (section, key)
            else:
                assert key in edits, (section, key)


@pytest.fixture(scope="module")
def fixture_reads(tmp_path_factory):
    """Each fixture's project, its built graph, and the digests of what the
    read commands write from that graph under the fixture's own config."""
    reads = []
    for root in (CASE_STUDY, SYNTHETIC):
        project = Project(root, [])
        built = tmp_path_factory.mktemp(root.name)
        project.build(built / "build")
        graph = built / "build" / "graph.jsonl"
        (built / "read").mkdir()
        shutil.copy(graph, built / "read")
        project.read(built / "read")
        reads.append((project, graph, _digests(built / "read")))
    return reads


@pytest.mark.parametrize("section, key", [(section, key) for section, edits in
                                          SETTING_EDITS.items() for key in edits])
def test_every_policy_setting_moves_a_read_output(fixture_reads, tmp_path, section, key):
    # Policies are read at rank time, so the graph built under the fixture's
    # own config serves the edited one.
    for project, graph, baseline in fixture_reads:
        edited = project.copy(tmp_path / project.root.name)
        policies = dict(edited.raw["policies"])
        policies[section] = dict(policies.get(section, {}), **{key: SETTING_EDITS[section][key]})
        edited.config.write_text(json.dumps(dict(edited.raw, policies=policies)),
                                 encoding="utf-8")
        out = tmp_path / project.root.name / "out"
        out.mkdir()
        shutil.copy(graph, out)
        edited.read(out)
        if _digests(out) != baseline:
            return
    pytest.fail(f"policies.{section}.{key} moved no output of either fixture")


# ---------------------------------------------------------------------------
# Targeting is not origin
# ---------------------------------------------------------------------------


def _originates(out: Path) -> list[str]:
    """The Originates edge lines of a built graph, sorted."""
    lines = (out / "graph.jsonl").read_text(encoding="utf-8").splitlines()
    return sorted(line for line in lines if '"type": "Originates"' in line)


def test_a_targeted_country_is_not_an_origin(project, refreshed, tmp_path):
    targeting = project.copy(tmp_path / "project")
    # A configured origin country that is no organization's home, so a
    # group targeting it moves no targets_country bit; the last one by name,
    # as the fixtures' groups mostly originate from China.
    origins = targeting.raw["policies"].get("apt_threat", {}).get(
        "origin_countries", DEFAULT_ORIGIN_COUNTRIES)
    homes = {json.loads((targeting.root / rel).read_text(encoding="utf-8"))["country"]
             for rel in targeting.raw["profiles"]}
    country = max(set(origins) - homes)
    feed = targeting.root / targeting.raw["snapshots"]["group"]
    groups = [json.loads(line) for line in feed.read_text(encoding="utf-8").splitlines()
              if line.strip()]
    assert groups
    for group in groups:
        group["description"] += f" It has also targeted {country}."
    feed.write_text("".join(json.dumps(group) + "\n" for group in groups), encoding="utf-8")
    out = tmp_path / "out"
    targeting.build(out)
    targeting.read(out)
    # Each group now targets the country, and none of them originates from it
    assert (out / "graph.jsonl").read_bytes() != (refreshed / "graph.jsonl").read_bytes()
    assert _originates(out) == _originates(refreshed)
    built = {"graph.jsonl", "build_summary.json"}  # they count the new Targets edges
    assert ({name: digest for name, digest in _digests(out).items() if name not in built}
            == {name: digest for name, digest in _digests(refreshed).items()
                if name not in built})
