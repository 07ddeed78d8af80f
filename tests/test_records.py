"""Record types are immutable named tuples.  The classes that are not keep
their own guarantees: a graph node compares by identity and its fields are
read-only, a validated config rejects a bad value however it is built, and
a container filled in place never shares a list with another."""

from __future__ import annotations

import re

import pytest

from threatrank import cli, enrich, evaluation, feeds, kgraph, profiles, ranking, stats, vocab
from threatrank.enrich import Lexicon
from threatrank.errors import DataError
from threatrank.feeds import ParseResult
from threatrank.kgraph import BuildStats, Node, NodeLabel
from threatrank.kinds import SkillLevel
from threatrank.ranking import Family, PolicyConfig, RankedItem

MODULES = (cli, enrich, evaluation, feeds, kgraph, profiles, ranking, stats, vocab)

RECORD_TYPES = sorted(
    (obj for module in MODULES for obj in vars(module).values()
     if isinstance(obj, type) and issubclass(obj, tuple) and hasattr(obj, "_fields")
     and obj.__module__ == module.__name__),
    key=lambda cls: f"{cls.__module__}.{cls.__qualname__}")


def test_record_types_are_found():
    names = {cls.__name__ for cls in RECORD_TYPES}
    assert {"CveRecord", "CpeEntry", "CweEntry", "CapecEntry", "AttackTechnique", "AttackTactic",
            "AttackGroupRaw", "EpssScore", "KevEntry", "ExploitRef", "ReferenceRecord"} \
        <= {cls.__name__ for cls in RECORD_TYPES if cls.__module__ == "threatrank.feeds"}
    assert {"CveRecord", "Source", "PolicyConfig", "Lexicon", "ProjectConfig",
            "EvaluationReport", "CoverageReport", "ValidationReport", "TTestResult",
            "Vocabulary", "RankedList"} <= names
    assert not names & {"Node", "ParseResult", "BuildStats"}


@pytest.mark.parametrize("cls", RECORD_TYPES, ids=lambda cls: cls.__qualname__)
def test_record_rejects_assignment(cls):
    record = tuple.__new__(cls, [None] * len(cls._fields))  # skips any validation
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
    with pytest.raises(AttributeError):
        record.not_a_field = 1


def test_node_compares_by_identity():
    # tests/test_kgraph.py checks that assigning or deleting a field fails.
    a = Node(NodeLabel.CWE, "CWE-79", {"name": "xss"}, {})
    b = Node(NodeLabel.CWE, "CWE-79", {"name": "xss"}, {})
    assert a == a and a != b
    assert len({a, b}) == 2
    assert repr(a) == "Node(label=<NodeLabel.CWE: 'Cwe'>, key='CWE-79', props={'name': 'xss'})"


BAD_POLICY_SETTINGS = [{"epss_threshold": 1.5}, {"epss_threshold": -0.1},
                       {"risk_appetite": 101}, {"k": 0},
                       {"skill_level": SkillLevel.UNKNOWN}]


@pytest.mark.parametrize("bad", BAD_POLICY_SETTINGS, ids=str)
def test_policy_config_rejects_a_bad_value_however_built(bad):
    good = PolicyConfig(family=Family.APT)
    with pytest.raises(ValueError):
        PolicyConfig(family=Family.APT, **bad)
    with pytest.raises(ValueError):
        good._replace(**bad)
    with pytest.raises(ValueError):
        PolicyConfig._make({**good._asdict(), **bad}.values())
    assert good._replace(k=5) == PolicyConfig(family=Family.APT, k=5)


def test_lexicon_rejects_a_bad_term_however_built():
    good = Lexicon(country_terms={"china": "China"}, sector_terms={})
    for bad, message in (
            ({"China": "China"}, "country lexicon term 'China' is not lowercase"),
            ({"china": "China", "--": "China"},
             "country lexicon term '--' has no letter, digit or '_'"),
            ({"": "China"}, "country lexicon term '' has no letter, digit or '_'")):
        with pytest.raises(DataError, match=re.escape(message)):
            Lexicon(country_terms=bad, sector_terms={})
        with pytest.raises(DataError, match=re.escape(message)):
            good._replace(country_terms=bad)
        with pytest.raises(DataError, match=re.escape(message)):
            Lexicon._make((bad, {}, good.word_index))
        with pytest.raises(DataError, match=re.escape(message.replace("country", "sector"))):
            good._replace(sector_terms=bad)
    assert repr(good) == "Lexicon(country_terms={'china': 'China'}, sector_terms={})"


def test_lexicon_derives_its_patterns_however_built():
    ascii_terms = Lexicon(country_terms={"china": "China"}, sector_terms={})
    assert ascii_terms.word_index == ({"china": ((0, "china"),)}, {})
    # A copy derives the index from its own terms, not the original's.
    assert ascii_terms._replace(country_terms={"ſ a": "China"}).word_index == (
        {"ſ": ((0, "ſ a"),)}, {})
    assert Lexicon._make(({"(prc)": "China"}, {}, ascii_terms.word_index)).word_index == (
        {"prc": ((1, "(prc)"),)}, {})
    # Each term sits under its first word at that word's offset, earliest
    # start first, then longest.
    terms = {"china": "China", " china": "Energy", "-china": "Energy", "china sea": "Energy"}
    assert Lexicon._make(({}, terms, None)).word_index == ({}, {"china": (
        (1, " china"), (1, "-china"), (0, "china sea"), (0, "china"))})


def test_containers_share_no_list():
    first, second = ParseResult(), ParseResult()
    assert first.records is not second.records and first.skipped is not second.skipped
    assert BuildStats().dangling_dropped is not BuildStats().dangling_dropped


def test_record_defaults_are_read_only():
    with pytest.raises(TypeError):
        RankedItem("CVE-2021-1", 1.0, 1).feature_bits["av_network"] = 1
    with pytest.raises(TypeError):
        feeds.SOURCES[feeds.SourceKind.CVE].aliases["cve_id"] = "id"
