"""Rule-based attribution of adversary groups from their descriptions.

Extracts origin countries, a year of origin, targeted countries, and
targeted DHS sectors using editable term lexicons.  Extraction is
deterministic and case-insensitive, and every attributed value carries an
evidence span so results can be audited against the source text.

No statistical NER or parsing: a bounded window after each targeting
trigger word, scanned with phrase lexicons, is reproducible and testable.
A ``Lexicon`` indexes its terms by first word and compiles no regex.  A
description is lower-cased once, every offset kept, and every scan runs
over that text: a span matches a term, trigger or phrase when it
lower-cases to it.  A term scan looks up the words of the text in the
index and checks each candidate term with ``str.find`` and
``str.startswith``, each span read back from the description at the same
offsets.  It finds, at each position not preceded by a word character,
the longest term that ends at a word boundary, leftmost first, with no two
matches overlapping.  A word character is one for which ``isalnum()``
holds, or ``_``: what sre's ``\\w`` matches in a str.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import NamedTuple

from .errors import DataError
from .feeds import AttackGroupRaw
from .vocab import UNITED_STATES, Vocabulary, read_data_file

# Window scanned for target subjects after `targets`/`targeted`/`targeting`;
# clipped at the end of the sentence containing the trigger.
TARGET_WINDOW_CHARS = 120

MIN_ORIGIN_YEAR = 1970

# "targets", "targeted" or "targeting" as a word in lower-cased text; the
# literal comes first so that sre can search for it.
_TRIGGER_RE = re.compile(r"target(?<!\wtarget)(?:s|ed|ing)(?!\w)")
_SENTENCE_END_RE = re.compile(r"[.!?](?=\s|$)")

# A year counts as an activity year only inside one of these phrases, as
# in "active since at least 2009" or "formed in 2014" (_ACTIVITY_YEAR_RE).
_ACTIVITY_PHRASES = ("since", "active", "as early as", "beginning in", "established in",
                     "formed in", "founded in", "created in", "observed in",
                     "operating since", "operated since", "emerged in")
_ACTIVITY_YEAR_RE = re.compile(
    rf"(?:{'|'.join(_ACTIVITY_PHRASES)})[^.\d]{{0,30}}?(19[7-9]\d|20\d\d)(?!\d)")


class TermMatch(NamedTuple):
    term: str
    canonical: str
    span_text: str
    start: int
    end: int


def _blank_non_word(code: int) -> str:
    ch = chr(code)
    return ch if ch.isalnum() or ch == "_" else " "


class _WordTable(dict):
    """A ``str.translate`` table that keeps each word character and blanks
    every other one, so the words of a text are
    ``text.translate(_WORD_TABLE).split()`` and every offset is kept.  It
    holds ASCII from the start and adds any other code point the first
    time a text holds it."""

    def __missing__(self, code: int) -> str:
        self[code] = blanked = _blank_non_word(code)
        return blanked


_WORD_TABLE = _WordTable({code: _blank_non_word(code) for code in range(128)})


def _lower(text: str) -> str:
    """``text`` lower-cased with every offset kept: ``str.lower()`` unless
    that changes the length, else each character on its own, one whose
    lower case is longer (``İ``) left as it is."""
    lowered = text.lower()
    if len(lowered) == len(text):
        return lowered
    return "".join(low if len(low := ch.lower()) == 1 else ch for ch in text)


def _word_index(terms, kind: str) -> dict[str, tuple[tuple[int, str], ...]]:
    """Each term's first word -> (that word's offset in the term, the term)
    for the terms that hold it first, earliest start first, then longest.
    A term that is not lowercase or holds no word character is a
    DataError naming the ``kind`` lexicon."""
    by_word: dict[str, list[tuple[int, str]]] = {}
    for term in terms:
        if term != term.lower():
            raise DataError(f"{kind} lexicon term {term!r} is not lowercase")
        blanked = term.translate(_WORD_TABLE)
        words = blanked.split(None, 1)
        if not words:
            raise DataError(f"{kind} lexicon term {term!r} has no letter, digit or '_'")
        by_word.setdefault(words[0], []).append((blanked.find(words[0]), term))
    return {word: tuple(sorted(found, key=lambda entry: (-entry[0], -len(entry[1]))))
            for word, found in by_word.items()}


class _LexiconFields(NamedTuple):
    country_terms: dict[str, str]
    sector_terms: dict[str, str]
    # The country and sector terms by first word (``_word_index``).
    word_index: tuple[dict[str, tuple[tuple[int, str], ...]],
                      dict[str, tuple[tuple[int, str], ...]]]


class Lexicon(_LexiconFields):
    """Lowercase term -> canonical value maps for countries and sectors.

    Built from the two maps alone.  Every way of building one, the
    constructor and ``_make`` (so ``_replace``) alike, checks that each
    term is lowercase and holds a letter, digit or ``_``, and derives
    ``word_index`` from the terms.  Building one compiles no regex.
    """

    __slots__ = ()

    def __new__(cls, country_terms: dict[str, str], sector_terms: dict[str, str]):
        index = (_word_index(country_terms, "country"), _word_index(sector_terms, "sector"))
        return super().__new__(cls, country_terms, sector_terms, index)

    @classmethod
    def _make(cls, iterable) -> "Lexicon":
        country_terms, sector_terms, _derived = iterable
        return cls(country_terms, sector_terms)

    def __repr__(self) -> str:
        # The word index is left out, as it is derived from the terms.
        return f"Lexicon(country_terms={self.country_terms!r}, sector_terms={self.sector_terms!r})"


class GroupAttribution(NamedTuple):
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
        if not term.translate(_WORD_TABLE).split():
            raise DataError(f"{source}:{line_no}: term {term!r} has no letter, digit or '_'")
        terms[term] = value
    return terms


def load_lexicon(
    countries: str | Path | None = None,
    sectors: str | Path | None = None,
    *,
    vocab: Vocabulary,
) -> Lexicon:
    """Load term lexicons from files or the packaged defaults.

    Canonical values are validated against the controlled vocabularies.
    """
    tables = []
    for path, packaged, kind, known, vocab_file in (
        (countries, "country_terms.tsv", "country", vocab.is_country, vocab.countries_file),
        (sectors, "sector_terms.tsv", "sector", vocab.is_sector, vocab.sectors_file),
    ):
        source = packaged if path is None else str(path)
        terms = _parse_lexicon_file(read_data_file(path, packaged), source)
        for term, value in terms.items():
            if not known(value):
                raise DataError(f"{source}: {term!r} maps to unknown {kind} {value!r} "
                                f"(not in {vocab_file})")
        tables.append(terms)
    return Lexicon(*tables)


def _word_scan(index: dict[str, tuple[tuple[int, str], ...]], text: str, source: str,
               terms: dict[str, str]) -> list[TermMatch]:
    """The term matches in lower-cased ``text``, each span read from
    ``source`` at the same offsets.  Only the terms whose first word is a
    word of ``text`` are tried, and only where that word starts."""
    found: dict[int, str] = {}  # start -> the longest term that matches there
    words = text.translate(_WORD_TABLE)  # a blank at each non-word character
    size = len(text)
    for word in index.keys() & words.split():
        at = text.find(word)
        while at >= 0:
            if not at or words[at - 1] == " ":
                for offset, term in index[word]:
                    start = at - offset
                    end = start + len(term)
                    if (start not in found and start >= 0
                            and (not start or words[start - 1] == " ")
                            and text.startswith(term, start)
                            and (end == size or words[end] == " ")):
                        found[start] = term
            at = text.find(word, at + 1)
    matches = []
    at = 0  # matches do not overlap: the leftmost wins
    for start in sorted(found):
        if start >= at:
            term = found[start]
            at = start + len(term)
            matches.append(TermMatch(term=term, canonical=terms[term],
                                     span_text=source[start:at], start=start, end=at))
    return matches


def attribute_group(group: AttackGroupRaw, lexicon: Lexicon) -> GroupAttribution:
    """Full attribution for one group, with evidence spans per value.

    Targeted countries and sectors are matched in the windows after
    targeting trigger words.  Origin countries are the country-lexicon
    matches outside those windows (groups with several attributed origins
    keep all of them), so a targeted country is not an origin.  The origin
    year is the earliest year inside an activity phrase, or the creation
    year when there is none.

    The description is lower-cased once (``_lower``) and every scan reads
    that text, each evidence span read back from the description.
    """
    description = group.description
    text = _lower(description)
    country_terms, sector_terms = lexicon.country_terms, lexicon.sector_terms
    countries, sectors = lexicon.word_index
    evidence: list[tuple[str, str]] = []

    # Each target window runs from a trigger to the end of its sentence, or
    # for TARGET_WINDOW_CHARS at most.
    windows = []
    for trigger in _TRIGGER_RE.finditer(text):
        start = trigger.end()
        end = start + TARGET_WINDOW_CHARS
        sentence_end = _SENTENCE_END_RE.search(text, start, end)
        windows.append((start, end if sentence_end is None else sentence_end.start()))

    # The origin scan reads the text with every window blanked, which
    # keeps each span's offsets.
    pieces, at = [], 0
    for start, end in windows:
        start = max(start, at)  # windows may overlap
        pieces += (text[at:start], " " * len(text[start:end]))
        at = max(end, start)
    untargeted = "".join(pieces) + text[at:]

    origin_countries: list[str] = []
    for m in _word_scan(countries, untargeted, description, country_terms):
        if m.canonical not in origin_countries:
            origin_countries.append(m.canonical)
            evidence.append((f"origin_country:{m.canonical}", m.span_text))

    year_matches = [
        m for m in _ACTIVITY_YEAR_RE.finditer(text)
        if MIN_ORIGIN_YEAR <= int(m.group(1)) <= group.created.year
    ]
    if year_matches:
        best = min(year_matches, key=lambda m: int(m.group(1)))
        origin_year = int(best.group(1))
        evidence.append(("origin_year", description[best.start():best.end()]))
    else:
        origin_year = group.created.year
        # No activity phrase in the text; the creation date stands in.
        evidence.append(("origin_year_default", group.created.isoformat()))

    targeted_countries: list[str] = []
    targeted_sectors: list[str] = []
    for start, end in windows:
        window, source = text[start:end], description[start:end]
        for m in _word_scan(countries, window, source, country_terms):
            if m.canonical not in targeted_countries:
                targeted_countries.append(m.canonical)
                evidence.append((f"targeted_country:{m.canonical}", m.span_text))
        for m in _word_scan(sectors, window, source, sector_terms):
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
