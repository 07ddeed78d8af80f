#!/usr/bin/env python3
"""Regenerate fixtures/synthetic52: a 52-week corpus for one organization.

Constructed so the vulnerabilities with exploit evidence carry
predominantly Medium CVSS scores while unexploited background noise skews
High/Critical.  Severity-ordered remediation therefore buries the
exploited items, and the threat-centric policy should beat it by a wide
nDCG margin; the margin itself is pinned by the test suite against an
independent oracle.

Generation uses a fixed RNG seed and is byte-stable across runs.
"""

from __future__ import annotations

import random
import sys
from datetime import date, timedelta
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from threatrank.feeds import (  # noqa: E402
    AttackGroupRaw,
    AttackTactic,
    AttackTechnique,
    AttackVector,
    CapecEntry,
    CpeEntry,
    CveRecord,
    CweEntry,
    ExploitRef,
    ReferenceRecord,
    SkillLevel,
    TechnicalImpact,
)
from scripts.snapshot_writer import (  # noqa: E402
    SNAPSHOT_PATHS,
    write_csv,
    write_json,
    write_snapshots,
)

OUT_DIR = ROOT / "fixtures" / "synthetic52"

SEED = 20201231
YEAR = 2020
WEEKS = 52

MEDIUM_SCORES = [4.3, 5.4, 6.1, 6.5, 6.8]
SEVERE_SCORES = [7.0, 7.2, 7.4, 7.5, 7.8, 8.1, 8.8, 9.0, 9.1, 9.8]

PRODUCTS = [
    ("google", "chrome"), ("mozilla", "firefox"), ("mozilla", "thunderbird"),
    ("adobe", "acrobat_reader"), ("microsoft", "office"), ("oracle", "jdk"),
    ("mathworks", "matlab"), ("videolan", "vlc_media_player"),
    ("mysql", "mysql"), ("apache", "tomcat"), ("python", "python"),
    ("wireshark", "wireshark"),
]

DISPLAY = {
    ("google", "chrome"): ("Google", "Chrome"),
    ("mozilla", "firefox"): ("Mozilla", "Firefox"),
    ("mozilla", "thunderbird"): ("Mozilla", "Thunderbird"),
    ("adobe", "acrobat_reader"): ("Adobe", "Acrobat Reader"),
    ("microsoft", "office"): ("Microsoft", "Office"),
    ("oracle", "jdk"): ("Oracle", "JDK"),
    ("mathworks", "matlab"): ("MathWorks", "MATLAB"),
    ("videolan", "vlc_media_player"): ("VideoLAN", "VLC Media Player"),
    ("mysql", "mysql"): ("MySQL", "MySQL"),
    ("apache", "tomcat"): ("Apache", "Tomcat"),
    ("python", "python"): ("Python", "Python"),
    ("wireshark", "wireshark"): ("Wireshark", "Wireshark"),
}


def cpe_id(vendor: str, product: str) -> str:
    return f"cpe:2.3:a:{vendor}:{product}:-:*:*:*:*:*:*:*"


def main() -> None:
    rng = random.Random(SEED)

    cves: list[CveRecord] = []
    epss_rows: list[tuple[str, float, float]] = []
    kev_rows: list[tuple] = []
    exploit_refs: list[ExploitRef] = []
    serial = 10000
    exploitdb_serial = 48000

    for week in range(1, WEEKS + 1):
        monday = date.fromisocalendar(YEAR, week, 1)
        n_threat = rng.randint(3, 5)
        n_noise = 20 + rng.randint(0, 6)

        for i in range(n_threat + n_noise):
            serial += 1
            cve = f"CVE-{YEAR}-{serial}"
            threat = i < n_threat
            modified = monday + timedelta(days=rng.randint(0, 6))
            published = modified - timedelta(days=rng.randint(1, 60))
            vendor, product = rng.choice(PRODUCTS)
            if threat:
                cvss = rng.choice(MEDIUM_SCORES)
                vector = AttackVector.NETWORK
                cwe = "CWE-79"
                # Most exploited items clear the EPSS gate; a few are
                # catalog-only so the threat ranking stays below 1.0.
                if rng.random() < 0.8:
                    probability = round(rng.uniform(0.88, 0.99), 3)
                    percentile = round(rng.uniform(0.95, 0.999), 3)
                else:
                    probability = round(rng.uniform(0.20, 0.40), 3)
                    percentile = round(rng.uniform(0.70, 0.85), 3)
                kev_rows.append((
                    cve, DISPLAY[(vendor, product)][0], DISPLAY[(vendor, product)][1],
                    f"{DISPLAY[(vendor, product)][1]} Remote Exploitation Vulnerability",
                    monday.isoformat(),
                    f"{cve} is exploited in the wild.",
                    "Apply updates per vendor instructions.",
                    (monday + timedelta(days=14)).isoformat(),
                ))
                if rng.random() < 0.3:
                    exploitdb_serial += 1
                    exploit_refs.append(ExploitRef(exploitdb_id=exploitdb_serial,
                                                   cve_ids=(cve,)))
            else:
                cvss = rng.choice(SEVERE_SCORES)
                vector = AttackVector.NETWORK if rng.random() < 0.8 else AttackVector.LOCAL
                cwe = "CWE-787"
                probability = round(rng.uniform(0.001, 0.30), 3)
                percentile = round(rng.uniform(0.05, 0.80), 3)
            cves.append(CveRecord(
                cve_id=cve,
                description=f"Synthetic advisory text for {cve}.",
                published=published,
                modified=modified,
                cvss_base=cvss,
                attack_vector=vector,
                cwe_ids=(cwe,),
                affected_cpes=(cpe_id(vendor, product),),
                reference_urls=(f"https://advisories.example.org/{cve}",),
            ))
            epss_rows.append((cve, probability, percentile))

    write_snapshots(OUT_DIR, {
        "cve": cves,
        "cpe": [CpeEntry(cpe_id=cpe_id(v, p), vendor=v, product=p) for v, p in PRODUCTS],
        "cwe": [
            CweEntry("CWE-79", "Improper Neutralization of Input During Web Page Generation",
                     (TechnicalImpact.EXECUTE_UNAUTHORIZED_CODE,), ("CAPEC-63",)),
            CweEntry("CWE-787", "Out-of-bounds Write",
                     (TechnicalImpact.EXECUTE_UNAUTHORIZED_CODE,), ()),
        ],
        "capec": [CapecEntry("CAPEC-63", "Cross-Site Scripting", SkillLevel.HIGH, ("T1059",))],
        "technique": [AttackTechnique("T1059", "Command and Scripting Interpreter",
                                      ("TA0002",))],
        "tactic": [AttackTactic("TA0002", "Execution")],
        "group": [AttackGroupRaw(
            group_id="G0910",
            name="Molten Crane",
            description=(
                "Molten Crane is a Chinese state-sponsored threat group that has "
                "been active since at least 2011. The group has targeted "
                "universities and government agencies in the United States."
            ),
            created=date(2016, 1, 14),
            technique_ids=("T1059",),
        )],
        "exploit": exploit_refs,
        "reference": [ReferenceRecord(url=f"https://advisories.example.org/{c.cve_id}")
                      for c in cves],
    })
    write_csv(OUT_DIR, "epss", epss_rows)
    write_csv(OUT_DIR, "kev", kev_rows)

    profile = {
        "org_id": "SYNTHU",
        "name": "Synthetic State University",
        "sector": "Education",
        "country": "United States",
        "software": [
            {"vendor": DISPLAY[(v, p)][0], "product": DISPLAY[(v, p)][1]}
            for v, p in PRODUCTS
        ],
    }
    write_json(OUT_DIR / "profiles" / "synthu.json", profile)

    start = date.fromisocalendar(YEAR, 1, 1)
    end = date.fromisocalendar(YEAR, WEEKS, 7)
    config = {
        "snapshots": SNAPSHOT_PATHS,
        "profiles": ["profiles/synthu.json"],
        "policies": {
            "apt_threat": {"k": 20},
            "general_threat": {"skill_level": "High", "k": 20},
        },
        "date_range": {"from": start.isoformat(), "to": end.isoformat()},
        "output_dir": "out",
    }
    write_json(OUT_DIR / "config.json", config)
    print(f"synthetic corpus written to {OUT_DIR}")
    print(f"  {len(cves)} CVEs over {WEEKS} weeks, {len(kev_rows)} KEV entries, "
          f"{len(exploit_refs)} exploit refs")


if __name__ == "__main__":
    main()
