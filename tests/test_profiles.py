from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threatrank.errors import DataError
from threatrank.feeds import CpeEntry, SourceKind
from threatrank.profiles import (
    OrganizationProfile,
    SoftwareItem,
    cpe_index,
    load_profile,
    normalize_token,
    resolve_cpes,
)
from tests.conftest import CASE_STUDY, VOCAB


def _unresolved(report):
    # Inventory items that matched no dictionary entry.
    return sum(1 for _, _, n in report.rows if n == 0)


def _entry(vendor, product, version="-"):
    return CpeEntry(cpe_id=f"cpe:2.3:a:{vendor}:{product}:{version}:*:*:*:*:*:*:*",
                    vendor=vendor, product=product)


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------


def test_load_case_study_profile():
    profile = load_profile(CASE_STUDY / "profiles" / "odu.json", VOCAB)
    assert profile.org_id == "ODU"
    assert profile.sector == "Education"
    assert profile.country == "United States"
    assert len(profile.software) == 69


def test_load_profile_rejects_unknown_sector(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({
        "org_id": "X", "name": "X", "sector": "Retail",
        "country": "United States", "software": [],
    }), encoding="utf-8")
    with pytest.raises(DataError,
                       match=r"'Retail' is not a DHS sector \(not in dhs_sectors\.txt\)"):
        load_profile(path, VOCAB)


def test_load_profile_rejects_unknown_country(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({
        "org_id": "X", "name": "X", "sector": "Education",
        "country": "Atlantis", "software": [],
    }), encoding="utf-8")
    with pytest.raises(DataError,
                       match=r"'Atlantis' is not a known country \(not in countries\.txt\)"):
        load_profile(path, VOCAB)


def test_load_profile_empty_software_is_valid(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({
        "org_id": "X", "name": "X", "sector": "Education",
        "country": "United States", "software": [],
    }), encoding="utf-8")
    assert load_profile(path, VOCAB).software == ()


def test_load_profile_version_is_a_string_pin_or_null(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({
        "org_id": "X", "name": "X", "sector": "Education", "country": "United States",
        "software": [{"vendor": "v", "product": "p", "version": None},
                     {"vendor": "v", "product": "q", "version": "1.10"},
                     {"vendor": "v", "product": "r"}],
    }), encoding="utf-8")
    assert [item.version for item in load_profile(path, VOCAB).software] == [None, "1.10", None]


_HEAD = b'{"org_id": "X", "name": "X", "sector": "Education", "country": "United States"'


@pytest.mark.parametrize("data", [
    b'{"org_id": "X", "name": "\xff", "sector": "Education", "country": "United States"}',
    b'["org_id"]',
    _HEAD + b', "software": 5}',
    # a pin is a JSON string: 1.10 would read as "1.1", and 0 as unpinned
    _HEAD + b', "software": [{"vendor": "v", "product": "p", "version": 1.10}]}',
    _HEAD + b', "software": [{"vendor": "v", "product": "p", "version": 0}]}',
    _HEAD + b', "software": [{"vendor": 7, "product": "p"}]}',
    _HEAD + b', "software": [{"vendor": "v", "product": ["p"]}]}',
], ids=["non_utf8", "not_an_object", "software_not_a_list", "version_float", "version_zero",
        "vendor_number", "product_array"])
def test_load_profile_rejects_misshapen_file(tmp_path, data):
    path = tmp_path / "p.json"
    path.write_bytes(data)
    with pytest.raises(DataError):
        load_profile(path, VOCAB)


@pytest.mark.parametrize("data, key", [
    # misspelt "software": not an empty inventory
    (_HEAD + b', "softwares": [{"vendor": "v", "product": "p"}]}',
     "unknown profile key 'softwares'"),
    # misspelt "version": not an unpinned item
    (_HEAD + b', "software": [{"vendor": "v", "product": "p", "versoin": "1.0"}]}',
     "unknown software[0] key 'versoin'"),
], ids=["profile_key", "software_key"])
def test_load_profile_rejects_unknown_keys(tmp_path, data, key):
    path = tmp_path / "p.json"
    path.write_bytes(data)
    with pytest.raises(DataError) as raised:
        load_profile(path, VOCAB)
    assert str(raised.value).startswith(f"{path}: {key} (known: ")


# ---------------------------------------------------------------------------
# CPE resolution
# ---------------------------------------------------------------------------


def test_resolution_normalizes_tokens():
    profile = OrganizationProfile(
        org_id="X", name="X", sector="Education", country="United States",
        software=(SoftwareItem(vendor="Google", product="Chrome"),
                  SoftwareItem(vendor="Adobe", product="Acrobat Reader")))
    resolved, report = resolve_cpes(profile, cpe_index([
        _entry("google", "chrome"), _entry("adobe", "acrobat_reader"),
    ]))
    assert all(item.resolved_cpes for item in resolved.software)
    assert report.resolved == 2 and _unresolved(report) == 0


def test_resolution_counts_unmatched_items():
    profile = OrganizationProfile(
        org_id="X", name="X", sector="Education", country="United States",
        software=(SoftwareItem(vendor="Obscure", product="Tool"),))
    resolved, report = resolve_cpes(profile, cpe_index([_entry("google", "chrome")]))
    assert resolved.software[0].resolved_cpes == ()
    assert _unresolved(report) == 1
    assert report.rows == [("Obscure", "Tool", 0)]


def test_case_study_inventory_coverage(case_config):
    from threatrank.cli import load_bundle

    profile = load_profile(CASE_STUDY / "profiles" / "odu.json", VOCAB)
    bundle, _ = load_bundle(case_config)
    resolved, report = resolve_cpes(profile, cpe_index(bundle[SourceKind.CPE]))
    assert report.resolved == 47
    assert _unresolved(report) == 22
    assert report.resolved + _unresolved(report) == len(profile.software)
    assert len({cpe for item in resolved.software for cpe in item.resolved_cpes}) == 47


def test_version_qualified_matching_prefers_exact():
    profile = OrganizationProfile(
        org_id="X", name="X", sector="Education", country="United States",
        software=(SoftwareItem(vendor="google", product="chrome", version="95.0"),))
    entries = [_entry("google", "chrome", "-"),
               _entry("google", "chrome", "95.0"),
               _entry("google", "chrome", "96.0")]
    resolved, _ = resolve_cpes(profile, cpe_index(entries))
    assert resolved.software[0].resolved_cpes == \
        ("cpe:2.3:a:google:chrome:95.0:*:*:*:*:*:*:*",)


def test_version_qualified_matching_falls_back():
    profile = OrganizationProfile(
        org_id="X", name="X", sector="Education", country="United States",
        software=(SoftwareItem(vendor="google", product="chrome", version="42.0"),))
    entries = [_entry("google", "chrome", "-"), _entry("google", "chrome", "95.0")]
    resolved, _ = resolve_cpes(profile, cpe_index(entries))
    assert len(resolved.software[0].resolved_cpes) == 2


_tokens = st.text(alphabet="abcdefgh", min_size=1, max_size=4)


@given(
    items=st.lists(st.tuples(_tokens, _tokens), min_size=1, max_size=6, unique=True),
    base=st.lists(st.tuples(_tokens, _tokens), max_size=6, unique=True),
    extra=st.lists(st.tuples(_tokens, _tokens), max_size=4, unique=True),
)
@settings(max_examples=120)
def test_resolution_monotone_per_item(items, base, extra):
    # adding dictionary entries never unmatches an item
    profile = OrganizationProfile(
        org_id="X", name="X", sector="Education", country="United States",
        software=tuple(SoftwareItem(vendor=v, product=p) for v, p in items))
    base_entries = [_entry(v, p) for v, p in base]
    more_entries = base_entries + [_entry(v, p, version="9") for v, p in extra]
    _, before = resolve_cpes(profile, cpe_index(base_entries))
    _, after = resolve_cpes(profile, cpe_index(more_entries))
    matched_before = {(v, p) for v, p, n in before.rows if n > 0}
    matched_after = {(v, p) for v, p, n in after.rows if n > 0}
    assert matched_before <= matched_after
    assert before.resolved + _unresolved(before) == len(items)


_items = st.lists(st.tuples(_tokens, _tokens, st.sampled_from([None, "1", "2"])),
                  max_size=5)


@given(
    inventories=st.lists(_items, min_size=1, max_size=4),
    entries=st.lists(st.tuples(_tokens, _tokens, st.sampled_from(["-", "1", "2"])),
                     max_size=10),
)
@settings(max_examples=120)
def test_one_index_serves_every_profile(inventories, entries):
    # Resolving several profiles against one shared index gives what each
    # gets from an index of its own, and leaves the shared index as built.
    dictionary = [_entry(v, p, version) for v, p, version in entries]
    shared = cpe_index(dictionary)
    before = {key: list(matches) for key, matches in shared.items()}
    for n, inventory in enumerate(inventories):
        profile = OrganizationProfile(
            org_id=f"X{n}", name="X", sector="Education", country="United States",
            software=tuple(SoftwareItem(vendor=v, product=p, version=version)
                           for v, p, version in inventory))
        assert resolve_cpes(profile, shared) == resolve_cpes(profile, cpe_index(dictionary))
    assert shared == before


def test_index_keys_are_normalized_in_dictionary_order():
    entries = [_entry("Google", "Chrome", "2"), _entry("adobe", "reader"),
               _entry("google", "chrome", "1")]
    index = cpe_index(entries)
    assert list(index) == [("google", "chrome"), ("adobe", "reader")]
    assert index[("google", "chrome")] == [entries[0], entries[2]]


def test_coverage_csv_format(tmp_path):
    profile = OrganizationProfile(
        org_id="X", name="X", sector="Education", country="United States",
        software=(SoftwareItem(vendor="Google", product="Chrome"),))
    _, report = resolve_cpes(profile, cpe_index([_entry("google", "chrome")]))
    out = tmp_path / "coverage.csv"
    report.write_csv(out)
    assert out.read_text(encoding="utf-8") == \
        "vendor,product,matched_cpe_count\nGoogle,Chrome,1\n"


def test_normalize_token():
    assert normalize_token("Acrobat Reader") == normalize_token("acrobat_reader")
    assert normalize_token("7-Zip") == "7zip"
    assert normalize_token("Node.js") == "nodejs"
