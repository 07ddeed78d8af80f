from __future__ import annotations

from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threatrank.enrich import (
    GroupAttribution,
    TARGET_WINDOW_CHARS,
    attribute_group,
    filter_us_targeting,
    load_lexicon,
    scan_terms,
)
from threatrank.errors import DataError
from threatrank.feeds import AttackGroupRaw


@pytest.fixture(scope="module")
def lexicon():
    return load_lexicon()


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
    for group in bundle.groups:
        attribution = attribute_group(group, lexicon)
        for kind, span in attribution.evidence:
            if kind == "origin_year_default":
                continue  # creation-date fallback has no text span
            assert span in group.description, (kind, span)


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
    with pytest.raises(DataError):
        load_lexicon(country_path=bad)


def test_lexicon_rejects_malformed_line(tmp_path):
    bad = tmp_path / "countries.tsv"
    bad.write_text("just-one-column\n", encoding="utf-8")
    with pytest.raises(DataError):
        load_lexicon(country_path=bad)
