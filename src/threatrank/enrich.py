"""Rule-based attribution of adversary groups from their descriptions.

Extracts origin countries, a year of origin, targeted countries, and
targeted DHS sectors using editable term lexicons.  Extraction is
deterministic and case-insensitive, and every attributed value carries an
evidence span so results can be audited against the source text.

No statistical NER or parsing: a bounded window after each targeting
trigger word, scanned with phrase lexicons, is reproducible and testable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from pathlib import Path

from .errors import DataError
from .feeds import AttackGroupRaw
from .vocab import UNITED_STATES, Vocabulary, default_vocabulary

# Window scanned for target subjects after `targets`/`targeted`/`targeting`;
# clipped at the end of the sentence containing the trigger.
TARGET_WINDOW_CHARS = 120

MIN_ORIGIN_YEAR = 1970

_TRIGGER_RE = re.compile(r"(?<!\w)(?:targets|targeted|targeting)(?!\w)", re.IGNORECASE)
_SENTENCE_END_RE = re.compile(r"[.!?](?=\s|$)")

# A year counts as an activity year only inside an activity phrase such as
# "active since at least 2009" or "formed in 2014".
_ACTIVITY_YEAR_RE = re.compile(
    r"(?:since|active|as early as|beginning in|established in|formed in|"
    r"founded in|created in|observed in|operating since|operated since|"
    r"emerged in)"
    r"[^.\d]{0,30}?(19[7-9]\d|20\d\d)(?!\d)",
    re.IGNORECASE,
)


@dataclass(frozen=True)
class TermMatch:
    term: str
    canonical: str
    span_text: str
    start: int
    end: int


@dataclass(frozen=True)
class Lexicon:
    """Lowercase term -> canonical value maps for countries and sectors."""

    country_terms: dict[str, str]
    sector_terms: dict[str, str]

    def __post_init__(self):
        for terms, kind in ((self.country_terms, "country"), (self.sector_terms, "sector")):
            for term in terms:
                if term != term.lower():
                    raise DataError(f"{kind} lexicon term {term!r} is not lowercase")


@dataclass(frozen=True)
class GroupAttribution:
    group_id: str
    origin_countries: tuple[str, ...]
    origin_year: int
    targeted_countries: tuple[str, ...]
    targeted_sectors: tuple[str, ...]
    evidence: tuple[tuple[str, str], ...]


def _parse_lexicon_file(text: str, source: str) -> dict[str, str]:
    terms: dict[str, str] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataError(f"{source}:{line_no}: expected 'term<TAB>value'")
        term, value = parts[0].strip().lower(), parts[1].strip()
        if not term or not value:
            raise DataError(f"{source}:{line_no}: empty term or value")
        terms[term] = value
    return terms


def load_lexicon(
    country_path: str | Path | None = None,
    sector_path: str | Path | None = None,
    vocab: Vocabulary | None = None,
) -> Lexicon:
    """Load term lexicons from files or the packaged defaults.

    Canonical values are validated against the controlled vocabularies.
    """
    vocab = vocab or default_vocabulary()
    if country_path is None:
        country_text = resources.files("threatrank.data").joinpath(
            "country_terms.tsv").read_text(encoding="utf-8")
        country_source = "country_terms.tsv"
    else:
        country_text = Path(country_path).read_text(encoding="utf-8")
        country_source = str(country_path)
    if sector_path is None:
        sector_text = resources.files("threatrank.data").joinpath(
            "sector_terms.tsv").read_text(encoding="utf-8")
        sector_source = "sector_terms.tsv"
    else:
        sector_text = Path(sector_path).read_text(encoding="utf-8")
        sector_source = str(sector_path)

    country_terms = _parse_lexicon_file(country_text, country_source)
    sector_terms = _parse_lexicon_file(sector_text, sector_source)
    for term, value in country_terms.items():
        if not vocab.is_country(value):
            raise DataError(f"{country_source}: {term!r} maps to unknown country {value!r}")
    for term, value in sector_terms.items():
        if not vocab.is_sector(value):
            raise DataError(f"{sector_source}: {term!r} maps to unknown sector {value!r}")
    return Lexicon(country_terms=country_terms, sector_terms=sector_terms)


@lru_cache(maxsize=32)
def _compiled(terms: tuple[str, ...]) -> re.Pattern:
    # Longest-first alternation so "north korean" wins over "north korea";
    # lookarounds instead of \b because terms may end in punctuation.
    ordered = sorted(terms, key=len, reverse=True)
    pattern = "|".join(re.escape(t) for t in ordered)
    return re.compile(rf"(?<!\w)(?:{pattern})(?!\w)", re.IGNORECASE)


def scan_terms(text: str, terms: dict[str, str]) -> list[TermMatch]:
    """All lexicon phrase matches in the text, in order of occurrence."""
    if not terms or not text:
        return []
    matches = []
    for m in _compiled(tuple(terms)).finditer(text):
        span = m.group(0)
        matches.append(TermMatch(
            term=span.lower(), canonical=terms[span.lower()],
            span_text=span, start=m.start(), end=m.end(),
        ))
    return matches


def _dedupe_keep_order(values):
    seen = set()
    out = []
    for v in values:
        if v not in seen:
            seen.add(v)
            out.append(v)
    return out


def _target_windows(description: str) -> list[str]:
    windows = []
    for trigger in _TRIGGER_RE.finditer(description):
        start = trigger.end()
        window = description[start:start + TARGET_WINDOW_CHARS]
        sentence_end = _SENTENCE_END_RE.search(window)
        if sentence_end is not None:
            window = window[:sentence_end.start()]
        windows.append(window)
    return windows


def attribute_group(group: AttackGroupRaw, lexicon: Lexicon) -> GroupAttribution:
    """Full attribution for one group, with evidence spans per value.

    Origin countries are all country-lexicon matches in the description
    (groups with several attributed origins keep all of them).  The origin
    year is the earliest year inside an activity phrase, or the creation
    year when there is none.  Targeted countries and sectors are matched
    in the windows after targeting trigger words.
    """
    evidence: list[tuple[str, str]] = []

    origin_matches = scan_terms(group.description, lexicon.country_terms)
    origin_countries = _dedupe_keep_order(m.canonical for m in origin_matches)
    for country in origin_countries:
        span = next(m.span_text for m in origin_matches if m.canonical == country)
        evidence.append((f"origin_country:{country}", span))

    year_matches = [
        m for m in _ACTIVITY_YEAR_RE.finditer(group.description)
        if MIN_ORIGIN_YEAR <= int(m.group(1)) <= group.created.year
    ]
    if year_matches:
        best = min(year_matches, key=lambda m: int(m.group(1)))
        origin_year = int(best.group(1))
        evidence.append(("origin_year", best.group(0)))
    else:
        origin_year = group.created.year
        # No activity phrase in the text; the creation date stands in.
        evidence.append(("origin_year_default", group.created.isoformat()))

    targeted_countries: list[str] = []
    targeted_sectors: list[str] = []
    for window in _target_windows(group.description):
        for m in scan_terms(window, lexicon.country_terms):
            if m.canonical not in targeted_countries:
                targeted_countries.append(m.canonical)
                evidence.append((f"targeted_country:{m.canonical}", m.span_text))
        for m in scan_terms(window, lexicon.sector_terms):
            if m.canonical not in targeted_sectors:
                targeted_sectors.append(m.canonical)
                evidence.append((f"targeted_sector:{m.canonical}", m.span_text))

    return GroupAttribution(
        group_id=group.group_id,
        origin_countries=tuple(origin_countries),
        origin_year=origin_year,
        targeted_countries=tuple(targeted_countries),
        targeted_sectors=tuple(targeted_sectors),
        evidence=tuple(evidence),
    )


def filter_us_targeting(attributions) -> list[GroupAttribution]:
    """Keep only groups whose targeted countries include the United States.

    A subset of its input and idempotent.
    """
    return [a for a in attributions if UNITED_STATES in a.targeted_countries]
