"""Write canonical feed records as normalized snapshot files.

The fixture generators write their snapshots through ``dump_snapshot``;
the feed tests use it to check that a written record reads back equal.
``threatrank.feeds`` must be importable.
"""

from __future__ import annotations

import json
from datetime import date
from enum import Enum
from pathlib import Path
from typing import Iterable

from threatrank.feeds import SOURCES

_KIND_BY_TYPE = {source.record_type: kind for kind, source in SOURCES.items()}


def record_to_obj(record) -> dict:
    """Serialize a canonical record back to its normalized snapshot object."""
    obj: dict = {"kind": _KIND_BY_TYPE[type(record)].value}
    for name, value in zip(record._fields, record):
        if isinstance(value, date):
            value = value.isoformat()
        elif isinstance(value, Enum):
            value = value.value
        elif isinstance(value, tuple):
            value = [v.value if isinstance(v, Enum) else v for v in value]
        obj[name] = value
    return obj


def dump_snapshot(records: Iterable, path: str | Path) -> None:
    """Write canonical records in the normalized newline-delimited format."""
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        for record in records:
            fh.write(json.dumps(record_to_obj(record), sort_keys=False))
            fh.write("\n")
