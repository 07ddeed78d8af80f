"""A fixed stdlib-only load that shows how fast the machine runs Python right now.

`run.py` times this script as a child process between refreshes.  It
decodes JSON lines, indexes them in dicts and sets, sorts them and formats
CSV rows, the kinds of work the CLI spends its time on, with none of the
program's code.  So its time changes only when the machine's speed does,
and refresh times divided by it stay comparable across minutes in which a
shared host runs faster or slower.
"""

from __future__ import annotations

import csv
import io
import json
from collections import defaultdict
from datetime import date, timedelta

LINES = 6000


def load() -> int:
    base = date(2021, 1, 4)
    lines = [json.dumps({"kind": "cve", "cve_id": f"CVE-2021-{i:06d}",
                         "modified": (base + timedelta(days=i % 180)).isoformat(),
                         "cvss_base": (i * 37 % 91 + 10) / 10,
                         "cwe_ids": [f"CWE-{i % 53}", f"CWE-{i % 17}"]})
             for i in range(LINES)]
    index, by_cwe = {}, defaultdict(set)
    for line in lines:
        record = json.loads(line)
        index[record["cve_id"]] = record
        for cwe in record["cwe_ids"]:
            by_cwe[cwe].add(record["cve_id"])
    ordered = sorted(index.values(), key=lambda r: (-r["cvss_base"], r["cve_id"]))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for rank, record in enumerate(ordered, start=1):
        week = date.fromisoformat(record["modified"]).isocalendar()[1]
        writer.writerow([rank, record["cve_id"], f"{record['cvss_base']:g}", week,
                         len(by_cwe[record["cwe_ids"][0]])])
    return len(out.getvalue())


if __name__ == "__main__":
    load()
