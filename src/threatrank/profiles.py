"""Organization profiles and software-inventory-to-CPE resolution.

A profile names the organization's DHS sector, country of residence, and
installed software.  Software is matched against the CPE dictionary by
case-insensitive, punctuation-stripped token equality on vendor and
product; when a version is supplied, exact-version dictionary entries are
preferred over product-level matches.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import DataError, reject_unknown, write_csv
from .feeds import CpeEntry
from .vocab import Vocabulary

_NON_ALNUM_RE = re.compile(r"[^a-z0-9]+")


class SoftwareItem(NamedTuple):
    vendor: str
    product: str
    version: str | None = None
    resolved_cpes: tuple[str, ...] = ()


class OrganizationProfile(NamedTuple):
    org_id: str
    name: str
    sector: str
    country: str
    software: tuple[SoftwareItem, ...] = ()


class CoverageReport(NamedTuple):
    """Per-item CPE match counts for one resolved profile."""

    rows: list[tuple[str, str, int]]

    @property  # bench/trace_cli.py is its only reader
    def resolved(self) -> int:
        return sum(1 for _, _, n in self.rows if n > 0)

    def write_csv(self, path: str | Path) -> None:
        write_csv(path, ["vendor", "product", "matched_cpe_count"], self.rows)


def normalize_token(value: str) -> str:
    """Lowercase and strip punctuation: 'Acrobat Reader' == 'acrobat_reader'."""
    return _NON_ALNUM_RE.sub("", value.lower())


def software_key(vendor: str, product: str) -> str:
    """Graph node key for a software item, shared across organizations."""
    return f"{normalize_token(vendor)}:{normalize_token(product)}"


# The keys of a profile and of each item of its "software" array.
_PROFILE_KEYS = ("org_id", "name", "sector", "country", "software")
_SOFTWARE_KEYS = ("vendor", "product", "version")


def load_profile(path: str | Path, vocab: Vocabulary) -> OrganizationProfile:
    """Load and validate one organization profile (JSON).

    Unknown sector or country names are fatal: downstream attribution
    queries silently return nothing for values outside the vocabularies.
    Vendor and product are JSON strings; a version is a string pin, or
    absent or null for none.  An unknown key is fatal, so a misspelt
    ``software`` is no empty inventory.
    """
    path = Path(path)
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    # JSONDecodeError or UnicodeDecodeError; RecursionError for nesting too deep to decode
    except (ValueError, RecursionError) as exc:
        raise DataError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(obj, dict) or not isinstance(obj.get("software", []), list):
        raise DataError(f"{path}: a profile is an object with a 'software' array")
    reject_unknown(obj, _PROFILE_KEYS, f"{path}: unknown profile key")
    for key in ("org_id", "name", "sector", "country"):
        if not isinstance(obj.get(key), str) or not obj[key]:
            raise DataError(f"{path}: missing or empty field {key!r}")
    if not vocab.is_sector(obj["sector"]):
        raise DataError(f"{path}: {obj['sector']!r} is not a DHS sector "
                        f"(not in {vocab.sectors_file})")
    if not vocab.is_country(obj["country"]):
        raise DataError(f"{path}: {obj['country']!r} is not a known country "
                        f"(not in {vocab.countries_file})")
    software = []
    for i, raw in enumerate(obj.get("software", [])):
        if not isinstance(raw, dict) or not all(
                isinstance(raw.get(key), str) and raw[key] for key in ("vendor", "product")):
            raise DataError(f"{path}: software[{i}] needs vendor and product strings")
        reject_unknown(raw, _SOFTWARE_KEYS, f"{path}: unknown software[{i}] key")
        version = raw.get("version")
        if version is not None and not isinstance(version, str):
            raise DataError(f"{path}: software[{i}] version must be a string or null")
        software.append(SoftwareItem(vendor=raw["vendor"], product=raw["product"],
                                     version=version or None))
    return OrganizationProfile(
        org_id=obj["org_id"],
        name=obj["name"],
        sector=obj["sector"],
        country=obj["country"],
        software=tuple(software),
    )


def _cpe_version(cpe_id: str) -> str | None:
    # cpe:2.3:part:vendor:product:version:... (escaped colons not handled;
    # dictionary snapshots normalize them out)
    parts = cpe_id.split(":")
    return parts[5] if len(parts) > 5 else None


def cpe_index(dictionary: Iterable[CpeEntry]) -> dict[tuple[str, str], list[CpeEntry]]:
    """The dictionary's entries by normalized (vendor, product), in dictionary order.

    Build it once and resolve every profile against it; ``resolve_cpes``
    only reads it.
    """
    index: dict[tuple[str, str], list[CpeEntry]] = {}
    token_of: dict[str, str] = {}  # each distinct vendor or product string, normalized once
    for entry in dictionary:
        vendor, product = entry.vendor, entry.product
        if vendor not in token_of:
            token_of[vendor] = normalize_token(vendor)
        if product not in token_of:
            token_of[product] = normalize_token(product)
        index.setdefault((token_of[vendor], token_of[product]), []).append(entry)
    return index


def resolve_cpes(
    profile: OrganizationProfile,
    index: Mapping[tuple[str, str], Sequence[CpeEntry]],
) -> tuple[OrganizationProfile, CoverageReport]:
    """Resolve each software item against a ``cpe_index`` of the dictionary.

    An item matches an entry when normalized vendor and product tokens are
    both equal.  Items remain in the profile when unresolved; the coverage
    report counts them.  Resolution is deterministic (dictionary order) and
    monotone at the item level: adding entries never unmatches an item.
    The index is not changed, so one index serves every profile.
    """
    resolved_items = []
    rows = []
    for item in profile.software:
        matches = index.get((normalize_token(item.vendor), normalize_token(item.product)), ())
        if item.version:
            exact = [e for e in matches if _cpe_version(e.cpe_id) == item.version]
            if exact:
                matches = exact
        cpe_ids = tuple(dict.fromkeys(e.cpe_id for e in matches))
        resolved_items.append(item._replace(resolved_cpes=cpe_ids))
        rows.append((item.vendor, item.product, len(cpe_ids)))
    return profile._replace(software=tuple(resolved_items)), CoverageReport(rows)
