"""Write the input files of a fixture project.

``SNAPSHOT_PATHS`` is the ``snapshots`` map of a fixture config: the
JSON-lines kinds in ``feeds.SOURCES`` order, then the EPSS and KEV CSV
exports.  ``write_snapshots`` writes records to their JSON-lines files,
``write_csv`` the rows of an export under the header ``feeds`` reads,
and ``write_json`` a profile or config.  A record field is written as
``feeds.json_field`` gives it, the rule ``build_graph`` gives node props
by.  The feed tests use ``dump_snapshot`` to check that a written record
reads back equal.  ``threatrank.feeds`` must be importable.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterable, Mapping

from threatrank.feeds import EPSS_CSV_HEADER, KEV_CSV_HEADER, SOURCES, json_field

_KIND_BY_TYPE = {source.record_type: kind for kind, source in SOURCES.items()}
_CSV_HEADERS = {"epss": EPSS_CSV_HEADER, "kev": KEV_CSV_HEADER}

SNAPSHOT_PATHS = {
    **{kind.value: f"snapshots/{kind.value}.jsonl" for kind in SOURCES
       if kind.value not in _CSV_HEADERS},
    **{kind: f"{kind}.csv" for kind in _CSV_HEADERS},
}


def record_to_obj(record) -> dict:
    """Serialize a canonical record back to its normalized snapshot object."""
    return {"kind": _KIND_BY_TYPE[type(record)].value,
            **{name: json_field(value) for name, value in zip(record._fields, record)}}


def dump_snapshot(records: Iterable, path: str | Path) -> None:
    """Write canonical records in the normalized newline-delimited format."""
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        for record in records:
            fh.write(json.dumps(record_to_obj(record), sort_keys=False))
            fh.write("\n")


def write_snapshots(out_dir: Path, records: Mapping[str, Iterable]) -> None:
    """Write each JSON-lines kind's records to its file under ``out_dir``."""
    (out_dir / "snapshots").mkdir(parents=True, exist_ok=True)
    for kind, kind_records in records.items():
        dump_snapshot(kind_records, out_dir / SNAPSHOT_PATHS[kind])


def write_csv(out_dir: Path, kind: str, rows: Iterable, comment: str | None = None) -> None:
    """Write the ``epss`` or ``kev`` export under ``out_dir``: an optional
    ``#`` comment line, the header, then ``rows``."""
    with (out_dir / SNAPSHOT_PATHS[kind]).open("w", encoding="utf-8", newline="") as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_CSV_HEADERS[kind])
        writer.writerows(rows)


def write_json(path: Path, obj) -> None:
    """Write ``obj`` as indented JSON, making the directory if need be."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")
