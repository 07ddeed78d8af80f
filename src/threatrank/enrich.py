"""Rule-based attribution of adversary groups from their descriptions.

Extracts origin countries, a year of origin, targeted countries, and
targeted DHS sectors using editable term lexicons.  Extraction is
deterministic and case-insensitive, and every attributed value carries an
evidence span so results can be audited against the source text.

No statistical NER or parsing: a bounded window after each targeting
trigger word, scanned with phrase lexicons, is reproducible and testable.
An all-ASCII ``Lexicon`` indexes its terms by first word and compiles no
regex: an ASCII description is lower-cased once, and every scan looks up
the words of that text in the index and checks each candidate term with
``str.find`` and ``str.startswith``, each span read back from the
description at the same offsets.  Any other description or lexicon takes
the IGNORECASE prefix-trie regexes (``_compiled``), compiled on first use.
Both find the same spans on ASCII text: at each position not preceded by
a word character, the longest term that ends at a word boundary, leftmost
first, with no two matches overlapping.
"""

from __future__ import annotations

import re
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

from .errors import DataError
from .feeds import AttackGroupRaw
from .vocab import UNITED_STATES, Vocabulary, read_data_file

# Window scanned for target subjects after `targets`/`targeted`/`targeting`;
# clipped at the end of the sentence containing the trigger.
TARGET_WINDOW_CHARS = 120

MIN_ORIGIN_YEAR = 1970

# "targets", "targeted" or "targeting" as a word; the literal comes first
# so that sre can search for it.
_TRIGGER = r"target(?<!\wtarget)(?:s|ed|ing)(?!\w)"
_SENTENCE_END_RE = re.compile(r"[.!?](?=\s|$)")

# A year counts as an activity year only inside one of these phrases, as
# in "active since at least 2009" or "formed in 2014" (_ACTIVITY_YEAR).
_ACTIVITY_PHRASES = ("since", "active", "as early as", "beginning in", "established in",
                     "formed in", "founded in", "created in", "observed in",
                     "operating since", "operated since", "emerged in")


class TermMatch(NamedTuple):
    term: str
    canonical: str
    span_text: str
    start: int
    end: int


# The characters ``\w`` matches in ASCII text, and a table that blanks
# every other ASCII character, so the words of an ASCII text are
# ``text.translate(_BLANK_NON_WORD).split()``.
_WORD_CHARS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_")
_BLANK_NON_WORD = str.maketrans({chr(c): " " for c in range(128) if chr(c) not in _WORD_CHARS})


def _word_index(terms) -> dict[str, tuple[str, ...]]:
    """Each term's first word -> the terms that start with it, longest first."""
    by_word: dict[str, list[str]] = {}
    for term in terms:
        by_word.setdefault(term.translate(_BLANK_NON_WORD).split(None, 1)[0], []).append(term)
    return {word: tuple(sorted(found, key=len, reverse=True)) for word, found in by_word.items()}


class _LexiconFields(NamedTuple):
    country_terms: dict[str, str]
    sector_terms: dict[str, str]
    # The country and sector terms by first word, for lower-cased ASCII
    # text; None unless every term is ASCII and starts with a word character.
    word_index: tuple[dict[str, tuple[str, ...]], dict[str, tuple[str, ...]]] | None


class Lexicon(_LexiconFields):
    """Lowercase term -> canonical value maps for countries and sectors.

    Built from the two maps alone.  Every way of building one, the
    constructor and ``_make`` (so ``_replace``) alike, checks that each
    term is lowercase and derives ``word_index`` from the terms.  Building
    one compiles no regex.  A non-ASCII description, or any description
    when a term is empty, not ASCII or starts with a non-word character,
    is scanned with ``_compiled``'s tries.
    """

    __slots__ = ()

    def __new__(cls, country_terms: dict[str, str], sector_terms: dict[str, str]):
        for terms, kind in ((country_terms, "country"), (sector_terms, "sector")):
            for term in terms:
                if term != term.lower():
                    raise DataError(f"{kind} lexicon term {term!r} is not lowercase")
        tables = (country_terms, sector_terms)
        index = None
        if all(term[:1] in _WORD_CHARS and term.isascii() for terms in tables for term in terms):
            index = (_word_index(country_terms), _word_index(sector_terms))
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
        terms[term] = value
    return terms


def load_lexicon(
    country_path: str | Path | None = None,
    sector_path: str | Path | None = None,
    *,
    vocab: Vocabulary,
) -> Lexicon:
    """Load term lexicons from files or the packaged defaults.

    Canonical values are validated against the controlled vocabularies.
    """
    tables = []
    for path, packaged, kind, known in (
        (country_path, "country_terms.tsv", "country", vocab.is_country),
        (sector_path, "sector_terms.tsv", "sector", vocab.is_sector),
    ):
        source = packaged if path is None else str(path)
        terms = _parse_lexicon_file(read_data_file(path, packaged), source)
        for term, value in terms.items():
            if not known(value):
                raise DataError(f"{source}: {term!r} maps to unknown {kind} {value!r}")
        tables.append(terms)
    country_terms, sector_terms = tables
    return Lexicon(country_terms=country_terms, sector_terms=sector_terms)


def _trie_pattern(trie: dict) -> str:
    # A node maps each next character to its child; the "" key marks the
    # end of a term.  A term end's continuation is optional and greedy, so
    # a longer term is tried before the shorter one it extends.  A term may
    # be longer than the recursion limit, so each open node is a stack
    # frame: the escaped character into it, its children left, whether a
    # term ends there, and the patterns of its done children.
    stack = [("", iter(trie.items()), "" in trie, [])]
    while True:
        into, children, ends, branches = stack[-1]
        for ch, child in children:
            if ch:
                stack.append((re.escape(ch), iter(child.items()), "" in child, []))
                break
        else:
            stack.pop()
            if ends:
                pattern = f"(?:{'|'.join(branches)})?" if branches else ""
            else:
                pattern = branches[0] if len(branches) == 1 else f"(?:{'|'.join(branches)})"
            if not stack:
                return pattern
            stack[-1][3].append(into + pattern)


def _trie_regex(terms) -> str:
    """The terms as one regex alternation, rendered from their prefix trie;
    a regex that matches nothing when there are no terms."""
    trie: dict = {}
    for term in terms:
        node = trie
        for ch in term:
            node = node.setdefault(ch, {})
        node[""] = {}
    return _trie_pattern(trie) if trie else "(?!)"


def _term_regex(terms) -> str:
    # Lookarounds instead of \b because terms may end in punctuation.
    return rf"(?<!\w){_trie_regex(terms)}(?!\w)"


# No activity phrase is a prefix of another, so at any position at most one
# can match and the trie finds what a flat alternation of them finds.
_ACTIVITY_YEAR = rf"{_trie_regex(_ACTIVITY_PHRASES)}[^.\d]{{0,30}}?(19[7-9]\d|20\d\d)(?!\d)"

# The trigger and activity-year scans of lower-cased ASCII text.  For ASCII
# text and patterns, IGNORECASE matching is matching the lower-cased text.
_LOWER_TRIGGER_RE = re.compile(_TRIGGER)
_LOWER_ACTIVITY_YEAR_RE = re.compile(_ACTIVITY_YEAR)


@lru_cache(maxsize=32)
def _compiled(terms: tuple[str, ...], kind: str) -> re.Pattern:
    """One IGNORECASE regex for the ``kind`` lexicon: its terms as a prefix trie.

    It finds what a longest-first alternation of the terms finds, but
    ``sre`` follows one trie branch per text character instead of trying
    every term at every position.  At one position only terms that are
    prefixes of one another can match, and the greedy trie tries them
    longest first, so "north korean" wins over "north korea".  This needs
    that no two sibling characters fold together under IGNORECASE.  No two
    ASCII characters do, but ``sre`` folds a few non-ASCII letters onto
    ASCII ones (``ſ`` onto ``s``, the Kelvin sign onto ``k``), so the
    property test that checks the equivalence draws ASCII lexicons.

    Terms nested too deeply for ``sre`` to compile (hundreds of terms, each
    a prefix of the next) are a DataError naming the lexicon.
    """
    try:
        return re.compile(_term_regex(terms), re.IGNORECASE)
    except RecursionError:
        raise DataError(f"the {kind} lexicon's terms nest too deeply to compile") from None


def _scan(pattern: re.Pattern, text: str, source: str, terms: dict[str, str]) -> list[TermMatch]:
    """The term matches ``pattern`` finds in ``text``, each span read from
    ``source`` at the same offsets.  A span that only Unicode case folding
    matches ("Ruſſia" for "russia") is not a match."""
    if not terms or not text:
        return []
    matches = []
    for m in pattern.finditer(text):
        term = m.group().lower()
        if term in terms:
            start, end = m.span()
            matches.append(TermMatch(term=term, canonical=terms[term],
                                     span_text=source[start:end], start=start, end=end))
    return matches


def _word_scan(index: dict[str, tuple[str, ...]], text: str, source: str,
               terms: dict[str, str]) -> list[TermMatch]:
    """What ``_scan`` finds with the term trie in lower-cased ASCII ``text``,
    found through the word index: only the terms whose first word is a
    word of ``text`` are tried, and only where that word starts."""
    found: dict[int, str] = {}  # start -> the longest term that matches there
    size = len(text)
    for word in index.keys() & text.translate(_BLANK_NON_WORD).split():
        start = text.find(word)
        while start >= 0:
            if not start or text[start - 1] not in _WORD_CHARS:
                for term in index[word]:
                    end = start + len(term)
                    if text.startswith(term, start) and (
                            end == size or text[end] not in _WORD_CHARS):
                        found[start] = term
                        break
            start = text.find(word, start + 1)
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

    An ASCII description with an all-ASCII lexicon is scanned once
    lower-cased, through the lexicon's word index; any other takes the
    IGNORECASE patterns.  Both give the same spans on such input.
    """
    description = group.description
    country_terms, sector_terms = lexicon.country_terms, lexicon.sector_terms
    if lexicon.word_index is not None and description.isascii():
        text = description.lower()
        scan, (countries, sectors) = _word_scan, lexicon.word_index
        trigger_re, year_re = _LOWER_TRIGGER_RE, _LOWER_ACTIVITY_YEAR_RE
    else:
        text = description
        scan = _scan
        countries = _compiled(tuple(country_terms), "country")
        sectors = _compiled(tuple(sector_terms), "sector")
        trigger_re = re.compile(_TRIGGER, re.IGNORECASE)
        year_re = re.compile(_ACTIVITY_YEAR, re.IGNORECASE)
    evidence: list[tuple[str, str]] = []

    # Each target window runs from a trigger to the end of its sentence, or
    # for TARGET_WINDOW_CHARS at most.
    windows = []
    for trigger in trigger_re.finditer(text):
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
    for m in scan(countries, untargeted, description, country_terms):
        if m.canonical not in origin_countries:
            origin_countries.append(m.canonical)
            evidence.append((f"origin_country:{m.canonical}", m.span_text))

    year_matches = [
        m for m in year_re.finditer(text)
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
        for m in scan(countries, window, source, country_terms):
            if m.canonical not in targeted_countries:
                targeted_countries.append(m.canonical)
                evidence.append((f"targeted_country:{m.canonical}", m.span_text))
        for m in scan(sectors, window, source, sector_terms):
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
