"""Controlled vocabularies for countries and DHS sectors.

Both vocabularies ship as editable data files inside the package
(``data/countries.txt`` and ``data/dhs_sectors.txt``) so entries can be
added without code changes.  Organization profiles and group attributions
are validated against these lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import DataError

UNITED_STATES = "United States"


def _read_list(text: str) -> tuple[str, ...]:
    names = []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            names.append(line)
    return tuple(names)


def _packaged(name: str) -> str:
    return resources.files("threatrank.data").joinpath(name).read_text(encoding="utf-8")


@dataclass(frozen=True)
class Vocabulary:
    """Canonical country and sector names, preserving file order."""

    countries: tuple[str, ...]
    sectors: tuple[str, ...]

    def is_country(self, name: str) -> bool:
        return name in self.countries

    def is_sector(self, name: str) -> bool:
        return name in self.sectors


def load_vocabulary(
    countries_path: str | Path | None = None,
    sectors_path: str | Path | None = None,
) -> Vocabulary:
    """Load vocabularies from the given files, or the packaged defaults."""
    if countries_path is None:
        countries = _read_list(_packaged("countries.txt"))
    else:
        countries = _read_list(Path(countries_path).read_text(encoding="utf-8"))
    if sectors_path is None:
        sectors = _read_list(_packaged("dhs_sectors.txt"))
    else:
        sectors = _read_list(Path(sectors_path).read_text(encoding="utf-8"))
    if not countries or not sectors:
        raise DataError("vocabulary files must contain at least one entry")
    return Vocabulary(countries=countries, sectors=sectors)


_DEFAULT: Vocabulary | None = None


def default_vocabulary() -> Vocabulary:
    """Packaged vocabulary, loaded once per process."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = load_vocabulary()
    return _DEFAULT
