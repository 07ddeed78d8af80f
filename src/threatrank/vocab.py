"""Controlled vocabularies for countries and DHS sectors.

Both vocabularies ship as editable data files inside the package
(``data/countries.txt`` and ``data/dhs_sectors.txt``) so entries can be
added without code changes.  Organization profiles and group attributions
are validated against these lists.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path
from typing import NamedTuple

from .errors import BOM_AT_START, DataError

UNITED_STATES = "United States"


def read_data_file(path: str | Path | None, packaged: str) -> str:
    """Text of a configured data file, or of the packaged file ``packaged``.

    A configured file that is not UTF-8, or that starts with a byte order
    mark (which would join its first entry), is a DataError naming its path.
    """
    if path is None:
        return resources.files("threatrank.data").joinpath(packaged).read_text(encoding="utf-8")
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    if text.startswith("\ufeff"):
        raise DataError(f"{path}: {BOM_AT_START}")
    return text


class Vocabulary(NamedTuple):
    """Canonical country and sector names, preserving file order, and the
    file each list was read from: its configured path, or the packaged
    file's name."""

    countries: tuple[str, ...]
    sectors: tuple[str, ...]
    countries_file: str = "countries.txt"
    sectors_file: str = "dhs_sectors.txt"

    def is_country(self, name: str) -> bool:
        return name in self.countries

    def is_sector(self, name: str) -> bool:
        return name in self.sectors


def load_vocabulary(
    countries: str | Path | None = None,
    sectors: str | Path | None = None,
) -> Vocabulary:
    """Load vocabularies from the given files, or the packaged defaults: one
    name a line, blank lines and ``#`` comments aside."""
    lists = []
    for path, packaged in ((countries, "countries.txt"), (sectors, "dhs_sectors.txt")):
        source = packaged if path is None else str(path)
        names = tuple(line for line in map(str.strip, read_data_file(path, packaged).splitlines())
                      if line and not line.startswith("#"))
        if not names:
            raise DataError(f"{source}: a vocabulary file must contain at least one entry")
        lists.append((names, source))
    (country_names, countries_file), (sector_names, sectors_file) = lists
    return Vocabulary(country_names, sector_names, countries_file, sectors_file)
