from __future__ import annotations

import importlib
import json
import re
from datetime import date
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threatrank import enrich
from threatrank.enrich import (
    _ACTIVITY_PHRASES,
    _ACTIVITY_YEAR_RE,
    GroupAttribution,
    Lexicon,
    TARGET_WINDOW_CHARS,
    attribute_group,
    filter_us_targeting,
    load_lexicon,
)
from threatrank.errors import DataError
from threatrank.feeds import AttackGroupRaw, SourceKind, parse_snapshot
from threatrank.vocab import load_vocabulary
from tests.conftest import FIXTURES, VOCAB


def scan_terms(text, terms):
    # Every lexicon phrase match in the text, in order, as attribute_group
    # scans it: the text lower-cased, each span read back from the text.
    return enrich._word_scan(enrich._word_index(terms, "country"), enrich._lower(text),
                             text, terms)


def _lowered(text):
    # The text lower-cased with every offset kept, as the case rule reads
    # it: str.lower() unless that changes the length, else each character
    # on its own, one whose lower case is longer left as it is.
    if len(text.lower()) == len(text):
        return text.lower()
    return "".join(ch.lower() if len(ch.lower()) == 1 else ch for ch in text)


def _has_word(term):
    return re.search(r"\w", term) is not None


@pytest.fixture(scope="module")
def lexicon():
    return load_lexicon(vocab=VOCAB)


def _group(description, created=date(2019, 1, 1), group_id="G0001"):
    return AttackGroupRaw(group_id=group_id, name="g", description=description,
                          created=created, technique_ids=())


def test_origin_demonym(lexicon):
    result = attribute_group(
        _group("North Korean state-sponsored threat group", date(2017, 5, 31)), lexicon)
    assert result.origin_countries == ("North Korea",)


def test_origin_year_from_activity_phrase(lexicon):
    result = attribute_group(
        _group("has been active since at least 2009", date(2017, 5, 31)), lexicon)
    assert result.origin_year == 2009


def test_origin_year_falls_back_to_created_date(lexicon):
    result = attribute_group(
        _group("A group with no notable geography.", date(2008, 6, 1)), lexicon)
    assert result.origin_countries == ()
    assert result.origin_year == 2008


def test_origin_year_ignores_out_of_range_years(lexicon):
    # 1969 predates the floor; created-year fallback applies
    result = attribute_group(_group("active since 1969", date(2015, 1, 1)), lexicon)
    assert result.origin_year == 2015


def test_origin_keeps_multiple_countries(lexicon):
    result = attribute_group(
        _group("A Russian-speaking group based in Ukraine.", date(2020, 1, 1)), lexicon)
    assert result.origin_countries == ("Russia", "Ukraine")


@pytest.mark.parametrize("dash", ["-", "\u2014"], ids=["ascii", "non_ascii"])
def test_a_targeted_country_is_not_an_origin(lexicon, dash):
    # Two overlapping target windows; the second sentence names an origin
    description = (f"A Chinese group {dash} it has targeted Russia, and it targets Iran and "
                   "the United States. Russian operators later joined it.")
    result = attribute_group(_group(description), lexicon)
    assert result.targeted_countries == ("Russia", "Iran", "United States")
    assert result.origin_countries == ("China", "Russia")
    assert ("origin_country:Russia", "Russian") in result.evidence


def test_targets_sentence(lexicon):
    result = attribute_group(_group(
        "The group targeted organizations in the financial services and "
        "government sectors in the United States."), lexicon)
    assert set(result.targeted_sectors) == {"Financial Services", "Government Facilities"}
    assert result.targeted_countries == ("United States",)


def test_targets_without_country(lexicon):
    result = attribute_group(_group("targeting aerospace manufacturing"), lexicon)
    assert result.targeted_countries == ()


def test_no_trigger_word_yields_nothing(lexicon):
    result = attribute_group(
        _group("Operates against the United States government."), lexicon)
    assert result.targeted_countries == () and result.targeted_sectors == ()


def test_window_clips_at_sentence_end(lexicon):
    text = "The group targeted retail chains. It also operates in China."
    result = attribute_group(_group(text), lexicon)
    assert result.targeted_sectors == ("Commercial Facilities",)
    assert result.targeted_countries == ()  # China sits past the sentence boundary


def test_window_is_bounded(lexicon):
    filler = "x" * (TARGET_WINDOW_CHARS + 5)
    text = f"targets {filler} United States"
    result = attribute_group(_group(text), lexicon)
    assert result.targeted_countries == ()


def test_case_insensitive_matching(lexicon):
    result = attribute_group(_group("TARGETED BANKS IN GERMANY"), lexicon)
    assert result.targeted_countries == ("Germany",)
    assert result.targeted_sectors == ("Financial Services",)


def test_scan_does_not_match_inside_words(lexicon):
    # "north korean" must not also produce a "north korea" name match
    matches = scan_terms("north korean actors", lexicon.country_terms)
    assert [m.canonical for m in matches] == ["North Korea"]
    assert matches[0].span_text == "north korean"


def test_unicode_fold_only_span_is_no_match(lexicon):
    # sre's IGNORECASE matches "russia" against "Ruſſia", but the span does
    # not lowercase to a lexicon term, so it attributes nothing.
    assert scan_terms("targets Ruſſia", lexicon.country_terms) == []
    result = attribute_group(_group("A Ruſſian group that targets Ruſſia."), lexicon)
    assert result.origin_countries == () and result.targeted_countries == ()


def _flat_scan(text, terms, flags=re.IGNORECASE):
    # The terms as one longest-first alternation; the oracle for the word
    # scan's matches.  IGNORECASE by default, which on ASCII text is the
    # case rule; without it, the scan of lower-cased text.
    ordered = sorted(terms, key=len, reverse=True)
    pattern = "|".join(re.escape(t) for t in ordered)
    regex = re.compile(rf"(?<!\w)(?:{pattern})(?!\w)", flags)
    return [(m.start(), m.end(), terms[m.group(0).lower()]) for m in regex.finditer(text)]


# Terms grow from a few short stems, so many share a prefix and many are
# prefixes of one another.  Some start with a non-word character, and some
# hold no word character, which the lexicon refuses.
_term_chars = st.sampled_from("abcz09 .-'")
_stems = st.lists(st.text(_term_chars, min_size=1, max_size=3), min_size=1, max_size=4)


@st.composite
def _lexicon_and_text(draw):
    stems = draw(_stems)
    terms = {}
    for _ in range(draw(st.integers(1, 12))):
        term = draw(st.sampled_from(stems)) + draw(st.text(_term_chars, max_size=4))
        terms[term] = f"C{len(terms)}"
    glue = st.sampled_from(["", " ", ".", "-", "'", ",", "a", "Z", "0", "_", "é", "zz ",
                            "\u2014", "\u00a0"])
    mixed_case = st.sampled_from(sorted(terms)).flatmap(lambda t: st.tuples(
        *(st.sampled_from([c.lower(), c.upper()]) for c in t)).map("".join))
    pieces = draw(st.lists(st.one_of(mixed_case, glue), max_size=12))
    return terms, "".join(pieces)


@given(_lexicon_and_text())
@settings(max_examples=500, deadline=None)
def test_word_scan_matches_longest_first_alternation(case):
    terms, text = case
    if not all(map(_has_word, terms)):
        with pytest.raises(DataError, match="has no letter, digit or '_'"):
            scan_terms(text, terms)
        return
    matches = scan_terms(text, terms)
    got = [(m.start, m.end, m.canonical) for m in matches]
    assert got == _flat_scan(_lowered(text), terms, 0)
    if text.isascii():
        assert got == _flat_scan(text, terms)
    assert [m.span_text for m in matches] == [text[m.start:m.end] for m in matches]


def test_word_scan_matches_alternation_on_packaged_lexicons(lexicon, case_config):
    from threatrank.cli import load_bundle

    bundle, _ = load_bundle(case_config)
    texts = [g.description for g in bundle[SourceKind.GROUP]] + [
        "North Koreans and north korea-based actors", "TARGETED THE U.S. AND U.K.",
        "south korean, south korea; korea.", "the united states' banks"]
    for terms in (lexicon.country_terms, lexicon.sector_terms):
        for text in texts:
            assert text.isascii()
            got = [(m.start, m.end, m.canonical) for m in scan_terms(text, terms)]
            assert got == _flat_scan(text, terms), text


# The activity-year pattern as a flat IGNORECASE alternation of its
# phrases; the oracle for attribute_group's scan of lower-cased text.
_OLD_PHRASES = ("since|active|as early as|beginning in|established in|formed in|"
                "founded in|created in|observed in|operating since|operated since|"
                "emerged in")
_FLAT_ACTIVITY_YEAR_RE = re.compile(
    rf"(?:{_OLD_PHRASES})[^.\d]{{0,30}}?(19[7-9]\d|20\d\d)(?!\d)", re.IGNORECASE)


def _year_matches(regex, text):
    return [(m.span(), m.group(1)) for m in regex.finditer(text)]


# Whole phrases, phrase prefixes, years in and out of range, and the
# fillers the window between them may hold.
_year_pieces = st.sampled_from([
    *_OLD_PHRASES.split("|"), "operat", "as early", "e", "fo", "found", "activ", "sinc",
    "1969", "1970", "1999", "2009", "2024", "20", "12009", "20091",
    " ", ".", ",", "at least ", "the ", "x", "9", "\n", "é"])


_activity_text = st.lists(_year_pieces.flatmap(lambda piece: st.tuples(
    *(st.sampled_from([c.lower(), c.upper()]) for c in piece)).map("".join)),
    max_size=14).map("".join)


@given(_activity_text)
@settings(max_examples=400, deadline=None)
def test_activity_year_trie_matches_flat_alternation(text):
    assert (_year_matches(_ACTIVITY_YEAR_RE, enrich._lower(text))
            == _year_matches(_FLAT_ACTIVITY_YEAR_RE, text))


def test_activity_year_trie_matches_flat_alternation_on_fixture_groups():
    descriptions = [json.loads(line)["description"]
                    for fixture in ("case_study", "synthetic52")
                    for line in (FIXTURES / fixture / "snapshots" / "group.jsonl")
                    .read_text(encoding="utf-8").splitlines() if line.strip()]
    assert descriptions
    found = 0
    for text in descriptions:
        matches = _year_matches(_ACTIVITY_YEAR_RE, enrich._lower(text))
        assert matches == _year_matches(_FLAT_ACTIVITY_YEAR_RE, text), text
        found += len(matches)
    assert found


def test_attribute_group_full(lexicon):
    group = _group(
        "Crimson Mantis is a Chinese state-sponsored threat group that has "
        "been active since at least 2012. The group has targeted education, "
        "government, and research organizations in the United States and "
        "South Korea.",
        created=date(2018, 4, 18),
    )
    attribution = attribute_group(group, lexicon)
    assert "China" in attribution.origin_countries
    assert attribution.origin_year == 2012
    assert set(attribution.targeted_sectors) == {"Education", "Government Facilities"}
    assert set(attribution.targeted_countries) == {"United States", "South Korea"}


def test_attribution_evidence_is_verbatim(lexicon, case_config):
    from threatrank.cli import load_bundle

    bundle, _ = load_bundle(case_config)
    for group in bundle[SourceKind.GROUP]:
        attribution = attribute_group(group, lexicon)
        for kind, span in attribution.evidence:
            if kind == "origin_year_default":
                continue  # creation-date fallback has no text span
            assert span in group.description, (kind, span)


# attribute_group with flat patterns and no word index: every scan runs
# over the description lower-cased (_lowered) with patterns that ignore no
# case, and each span is read back from the description.  The oracle for
# attribute_group.
_REFERENCE_TRIGGER_RE = re.compile(r"(?<!\w)(?:targets|targeted|targeting)(?!\w)")
_REFERENCE_SENTENCE_END_RE = re.compile(r"[.!?](?=\s|$)")
_REFERENCE_ACTIVITY_YEAR_RE = re.compile(
    rf"(?:{_OLD_PHRASES})[^.\d]{{0,30}}?(19[7-9]\d|20\d\d)(?!\d)")


def _reference_scan(text, terms, source):
    """(canonical, span) of each term match in lower-cased ``text``, the
    span read from ``source`` at the match's offsets."""
    if not terms:
        return []
    return [(value, source[start:end]) for start, end, value in _flat_scan(text, terms, 0)]


def _reference_attribute_group(group, lexicon):
    description = group.description
    text = _lowered(description)
    evidence = []
    windows = []
    for trigger in _REFERENCE_TRIGGER_RE.finditer(text):
        window = text[trigger.end():trigger.end() + TARGET_WINDOW_CHARS]
        sentence_end = _REFERENCE_SENTENCE_END_RE.search(window)
        if sentence_end is not None:
            window = window[:sentence_end.start()]
        windows.append((trigger.end(), trigger.end() + len(window)))
    # Origins: the country matches once every target window is blanked out
    untargeted = list(text)
    for start, end in windows:
        untargeted[start:end] = " " * (end - start)
    origin_matches = _reference_scan("".join(untargeted), lexicon.country_terms, description)
    origin_countries = list(dict.fromkeys(country for country, _ in origin_matches))
    for country in origin_countries:
        span = next(span for found, span in origin_matches if found == country)
        evidence.append((f"origin_country:{country}", span))
    year_matches = [m for m in _REFERENCE_ACTIVITY_YEAR_RE.finditer(text)
                    if 1970 <= int(m.group(1)) <= group.created.year]
    if year_matches:
        best = min(year_matches, key=lambda m: int(m.group(1)))
        origin_year = int(best.group(1))
        evidence.append(("origin_year", description[best.start():best.end()]))
    else:
        origin_year = group.created.year
        evidence.append(("origin_year_default", group.created.isoformat()))
    targeted_countries, targeted_sectors = [], []
    for start, end in windows:
        for terms, found, kind in ((lexicon.country_terms, targeted_countries, "country"),
                                   (lexicon.sector_terms, targeted_sectors, "sector")):
            for value, span in _reference_scan(text[start:end], terms, description[start:end]):
                if value not in found:
                    found.append(value)
                    evidence.append((f"targeted_{kind}:{value}", span))
    return GroupAttribution(group.group_id, tuple(origin_countries), origin_year,
                            tuple(targeted_countries), tuple(targeted_sectors), tuple(evidence))


# Lexicon terms from letters that sre folds non-ASCII letters onto (i, k,
# s), so the glue below can form fold-only spans, which match nothing.
# Some lexicons also hold one non-ASCII term, some terms start with a
# non-word character, and a term with no word character is refused.
_attribution_terms = st.text(st.sampled_from("aiksz .-'"), min_size=1, max_size=6)
_non_ascii_term = st.tuples(_attribution_terms, st.sampled_from(["ſ", "ı", "é", "ß", "\u0307"]),
                            st.integers(0, 6)).map(lambda t: t[0][:t[2]] + t[1] + t[0][t[2]:])
_ASCII_GLUE = [" ", ",", "a", "_", "9", "-", "x "]
_NON_ASCII_GLUE = ["ſ", "\u212a", "İ", "ı", "é", "ß", "\u2014", "\u00a0"]
_ATTRIBUTION_WORDS = [
    *_ACTIVITY_PHRASES, "at least ", "1969", "1970", "2009", "2024", "2031", "12009",
    "targets", "targeted", "targeting", "target", "targetſ", "retargeted", "targetings",
    ".", ". ", "!", "? ", ".\n", ".x"]


def _mixed_case(words):
    return st.sampled_from(sorted(words)).flatmap(lambda word: st.tuples(
        *(st.sampled_from([c.lower(), c.upper()]) for c in word)).map("".join))


@st.composite
def _attribution_case(draw):
    countries = draw(st.lists(_attribution_terms, min_size=1, max_size=8))
    sectors = draw(st.lists(_attribution_terms, min_size=1, max_size=4))
    if draw(st.booleans()):
        draw(st.sampled_from([countries, sectors])).append(draw(_non_ascii_term))
    glue = _ASCII_GLUE if draw(st.booleans()) else _ASCII_GLUE + _NON_ASCII_GLUE
    piece = st.one_of(_mixed_case(countries + sectors), _mixed_case(_ATTRIBUTION_WORDS),
                      st.sampled_from(glue))
    text = "".join(draw(st.lists(piece, max_size=30)))
    group = _group(text, created=date(draw(st.integers(1990, 2030)), 1, 1))
    return (group, {t: f"C{i}" for i, t in enumerate(countries)},
            {t: f"S{i}" for i, t in enumerate(sectors)})


@given(_attribution_case())
@settings(max_examples=1000, deadline=None)
def test_attribution_matches_reference(case):
    group, country_terms, sector_terms = case
    if not all(map(_has_word, [*country_terms, *sector_terms])):
        with pytest.raises(DataError, match="has no letter, digit or '_'"):
            Lexicon(country_terms=country_terms, sector_terms=sector_terms)
        return
    lexicon = Lexicon(country_terms=country_terms, sector_terms=sector_terms)
    assert attribute_group(group, lexicon) == _reference_attribute_group(group, lexicon)


def test_fold_only_span_does_not_hide_the_term_inside_it(lexicon):
    # "ſouth sudan" lower-cases to no term, so it matches nothing and the
    # scan goes on to find "sudan" inside its span.
    result = attribute_group(_group("A group that targets ſouth Sudan."), lexicon)
    assert result.targeted_countries == ("Sudan",)
    assert ("targeted_country:Sudan", "Sudan") in result.evidence
    # The same through a non-ASCII lexicon term and an ASCII description.
    folding = Lexicon(country_terms={"ſ a": "C0", "a": "C1"}, sector_terms={})
    assert attribute_group(_group("S a"), folding).origin_countries == ("C1",)
    assert attribute_group(_group("ſ A"), folding).origin_countries == ("C0",)


def test_fold_only_trigger_and_phrase_count_for_nothing(lexicon):
    result = attribute_group(_group("A group that targetſ banks, actıve 2009.",
                                    created=date(2015, 1, 1)), lexicon)
    assert result.targeted_sectors == () and result.origin_year == 2015
    result = attribute_group(_group("A group that TARGETS BAN\u212aS, ACTIVE 2009."), lexicon)
    assert result.targeted_sectors == ("Financial Services",) and result.origin_year == 2009


def test_lowering_keeps_every_offset():
    for text in ("İran", "ΟΔΟΣ İ", "ſ\u212aΣ", "plain ascii", ""):
        lowered = enrich._lower(text)
        assert lowered == _lowered(text) and len(lowered) == len(text)
    assert enrich._lower("İRAN") == "İran"


def test_attribution_matches_reference_on_fixture_groups(lexicon):
    groups = [group for fixture in ("case_study", "synthetic52")
              for group in parse_snapshot(FIXTURES / fixture / "snapshots" / "group.jsonl",
                                          SourceKind.GROUP).records]
    assert groups
    for group in groups:
        assert attribute_group(group, lexicon) == _reference_attribute_group(group, lexicon)


@pytest.mark.parametrize("description, targeted", [
    ("A group that targets the (PRC) government.", ("China",)),
    ("A group that targets the x(prc) government.", ()),
], ids=["after_a_space", "after_a_letter"])
def test_a_term_led_by_a_non_word_character_matches_at_a_word_boundary(description, targeted):
    prc = Lexicon(country_terms={"(prc)": "China"}, sector_terms={})
    assert attribute_group(_group(description), prc).targeted_countries == targeted


def test_ascii_attribution_compiles_no_regex(lexicon):
    compiler = getattr(re, "_compiler", None) or importlib.import_module("sre_compile")
    group = _group("A Chinese group, active since 2010, that targets banks in Germany. "
                   "It also TARGETED hospitals in North Korea.")
    expected = _reference_attribute_group(group, lexicon)
    non_ascii = _group("A Ruſſian group that targets banks in İran — and Germany.")
    expected_non_ascii = _reference_attribute_group(non_ascii, lexicon)
    with mock.patch.object(compiler, "compile", wraps=compiler.compile) as compile_:
        # Neither building a lexicon nor scanning with it compiles, whatever
        # its terms and the description hold.
        rebuilt = Lexicon(dict(lexicon.country_terms), dict(lexicon.sector_terms))
        assert rebuilt == lexicon
        assert attribute_group(group, rebuilt) == expected
        assert attribute_group(non_ascii, rebuilt) == expected_non_ascii
        prc = rebuilt._replace(country_terms={**lexicon.country_terms, "(prc)": "China"})
        assert attribute_group(group, prc) == expected
        assert attribute_group(_group("It targets the (PRC)."), prc).targeted_countries == (
            "China",)
        assert compile_.call_count == 0
    assert expected.targeted_countries == ("Germany", "North Korea")
    assert expected_non_ascii.targeted_countries == ("Germany",)


def test_attribution_deterministic(lexicon):
    group = _group("A Chinese group targeting universities in the United States.")
    assert attribute_group(group, lexicon) == attribute_group(group, lexicon)


def _attr(targets):
    return GroupAttribution(group_id="G0001", origin_countries=(), origin_year=2000,
                            targeted_countries=tuple(targets), targeted_sectors=(),
                            evidence=())


def test_filter_us_targeting_examples():
    kept = filter_us_targeting([_attr(["South Korea"]),
                                _attr(["United States", "Canada"])])
    assert [a.targeted_countries for a in kept] == [("United States", "Canada")]


@given(st.lists(st.lists(st.sampled_from(
    ["United States", "China", "Germany", "Japan", "Brazil"]), max_size=3)))
@settings(max_examples=100)
def test_filter_us_targeting_is_idempotent_subset(target_lists):
    attributions = [_attr(targets) for targets in target_lists]
    once = filter_us_targeting(attributions)
    assert set(id(a) for a in once) <= set(id(a) for a in attributions)
    assert filter_us_targeting(once) == once
    assert all("United States" in a.targeted_countries for a in once)


def test_lexicon_rejects_unknown_canonical_value(tmp_path):
    bad = tmp_path / "countries.tsv"
    bad.write_text("atlantis\tAtlantis\n", encoding="utf-8")
    with pytest.raises(DataError, match=re.escape(
            f"{bad}: 'atlantis' maps to unknown country 'Atlantis' (not in countries.txt)")):
        load_lexicon(countries=bad, vocab=VOCAB)


def test_vocabulary_errors_name_the_vocabulary_file(tmp_path):
    # A lexicon value outside a configured vocabulary names both files
    sectors = tmp_path / "sectors.txt"
    sectors.write_text("# only one sector\nEducation\n", encoding="utf-8")
    vocab = load_vocabulary(sectors=sectors)
    assert (vocab.countries_file, vocab.sectors_file) == ("countries.txt", str(sectors))
    with pytest.raises(DataError, match=re.escape(
            f"sector_terms.tsv: 'aerospace' maps to unknown sector 'Defense Industrial Base' "
            f"(not in {sectors})")):
        load_lexicon(vocab=vocab)
    # A vocabulary file with no entry names itself
    countries = tmp_path / "countries.txt"
    countries.write_text("# no country\n\n", encoding="utf-8")
    with pytest.raises(DataError, match=re.escape(
            f"{countries}: a vocabulary file must contain at least one entry")):
        load_vocabulary(countries=countries)


def test_lexicon_rejects_malformed_line(tmp_path):
    bad = tmp_path / "countries.tsv"
    bad.write_text("just-one-column\n", encoding="utf-8")
    with pytest.raises(DataError):
        load_lexicon(countries=bad, vocab=VOCAB)
