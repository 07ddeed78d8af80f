#!/usr/bin/env python3
"""Regenerate fixtures/case_study: one university, one week, 39 candidates.

The cohort reproduces a published week of vulnerability traffic against an
Extra-Large academic software inventory (69 products, 47 CPE-resolved):
20 chromium/zoom CVEs whose CVSS scores and relevance outcomes are pinned
by tests, plus 19 background CVEs whose scores fill the remaining
CVSS-rank slots, three KEV entries, and a China-attributed group focused
on the education sector.

Everything is hand-specified; re-running the script is byte-stable.
"""

from __future__ import annotations

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

OUT_DIR = ROOT / "fixtures" / "case_study"

WEEK_MONDAY = date(2021, 11, 22)  # ISO week 2021-W47


def cpe(vendor: str, product: str) -> str:
    return f"cpe:2.3:a:{vendor}:{product}:-:*:*:*:*:*:*:*"


CHROME = cpe("google", "chrome")
ZOOM = cpe("zoom", "zoom")

# Resolvable inventory: display vendor/product -> CPE vendor/product tokens.
RESOLVABLE = [
    ("Google", "Chrome", "google", "chrome"),
    ("Mozilla", "Firefox", "mozilla", "firefox"),
    ("Mozilla", "Thunderbird", "mozilla", "thunderbird"),
    ("Zoom", "Zoom", "zoom", "zoom"),
    ("Adobe", "Acrobat Reader", "adobe", "acrobat_reader"),
    ("Microsoft", "Office", "microsoft", "office"),
    ("Microsoft", "Teams", "microsoft", "teams"),
    ("Oracle", "JDK", "oracle", "jdk"),
    ("Python", "Python", "python", "python"),
    ("MathWorks", "MATLAB", "mathworks", "matlab"),
    ("VideoLAN", "VLC Media Player", "videolan", "vlc_media_player"),
    ("7-Zip", "7-Zip", "7-zip", "7-zip"),
    ("Apple", "Safari", "apple", "safari"),
    ("TeamViewer", "TeamViewer", "teamviewer", "teamviewer"),
    ("Cisco", "Webex", "cisco", "webex"),
    ("Slack", "Slack", "slack", "slack"),
    ("Dropbox", "Dropbox", "dropbox", "dropbox"),
    ("Box", "Box Drive", "box", "box_drive"),
    ("Git", "Git", "git", "git"),
    ("Apache", "HTTP Server", "apache", "http_server"),
    ("Apache", "Tomcat", "apache", "tomcat"),
    ("MySQL", "MySQL", "mysql", "mysql"),
    ("PostgreSQL", "PostgreSQL", "postgresql", "postgresql"),
    ("MongoDB", "MongoDB", "mongodb", "mongodb"),
    ("Docker", "Docker", "docker", "docker"),
    ("Oracle", "VM VirtualBox", "oracle", "vm_virtualbox"),
    ("VMware", "Workstation", "vmware", "workstation"),
    ("R Project", "R", "r-project", "r"),
    ("RStudio", "RStudio", "rstudio", "rstudio"),
    ("IBM", "SPSS", "ibm", "spss"),
    ("SAS", "SAS", "sas", "sas"),
    ("StataCorp", "Stata", "statacorp", "stata"),
    ("Wolfram", "Mathematica", "wolfram", "mathematica"),
    ("Autodesk", "AutoCAD", "autodesk", "autocad"),
    ("Blender", "Blender", "blender", "blender"),
    ("GIMP", "GIMP", "gimp", "gimp"),
    ("Inkscape", "Inkscape", "inkscape", "inkscape"),
    ("Audacity Team", "Audacity", "audacityteam", "audacity"),
    ("OBS Project", "OBS Studio", "obsproject", "obs_studio"),
    ("FileZilla Project", "FileZilla", "filezilla-project", "filezilla"),
    ("PuTTY", "PuTTY", "putty", "putty"),
    ("WinSCP", "WinSCP", "winscp", "winscp"),
    ("Wireshark", "Wireshark", "wireshark", "wireshark"),
    ("Node.js", "Node.js", "nodejs", "node.js"),
    ("Eclipse", "Eclipse IDE", "eclipse", "eclipse_ide"),
    ("JetBrains", "IntelliJ IDEA", "jetbrains", "intellij_idea"),
    ("LibreOffice", "LibreOffice", "libreoffice", "libreoffice"),
]

# Campus tools without dictionary coverage; they stay unresolved.
UNRESOLVED = [
    ("Respondus", "LockDown Browser"),
    ("Instructure", "Canvas"),
    ("Blackboard", "Learn"),
    ("Qualtrics", "Qualtrics"),
    ("Ellucian", "Banner"),
    ("Turnitin", "Turnitin"),
    ("Panopto", "Panopto"),
    ("Kaltura", "MediaSpace"),
    ("Clarivate", "EndNote"),
    ("ProQuest", "RefWorks"),
    ("Esri", "ArcGIS"),
    ("Maplesoft", "Maple"),
    ("National Instruments", "LabVIEW"),
    ("Dassault Systemes", "SolidWorks"),
    ("Minitab", "Minitab"),
    ("QSR", "NVivo"),
    ("Gradescope", "Gradescope"),
    ("Piazza", "Piazza"),
    ("Poll Everywhere", "Poll Everywhere"),
    ("Examity", "Examity"),
    ("Duo Security", "Duo"),
    ("Zotero", "Zotero"),
]

# The pinned cohort: cve -> (cvss, vector, cwe, affected cpe, epss prob, epss pct,
#                            published, weekday offset of the modification date)
N = AttackVector.NETWORK
L = AttackVector.LOCAL

LISTED = {
    "CVE-2021-37966": (4.3, N, "CWE-79",   CHROME, 0.901, 0.95, "2021-09-24", 1),
    "CVE-2021-37999": (6.1, N, "CWE-1021", CHROME, 0.887, 0.95, "2021-10-08", 1),
    "CVE-2021-38000": (6.1, N, "CWE-601",  CHROME, 0.876, 0.94, "2021-10-08", 1),
    "CVE-2021-30542": (8.8, N, "CWE-787",  CHROME, 0.012, 0.61, "2021-06-07", 0),
    "CVE-2021-30543": (8.8, N, "CWE-416",  CHROME, 0.015, 0.63, "2021-06-07", 0),
    "CVE-2021-30626": (8.8, N, "CWE-787",  CHROME, 0.021, 0.66, "2021-06-15", 0),
    "CVE-2021-30627": (8.8, N, "CWE-416",  CHROME, 0.017, 0.64, "2021-06-15", 0),
    "CVE-2021-30628": (8.8, N, "CWE-787",  CHROME, 0.024, 0.67, "2021-06-15", 2),
    "CVE-2021-30629": (8.8, N, "CWE-416",  CHROME, 0.026, 0.68, "2021-06-15", 2),
    "CVE-2021-30630": (4.3, N, "CWE-20",   CHROME, 0.008, 0.52, "2021-06-15", 2),
    "CVE-2021-30632": (8.8, N, "CWE-787",  CHROME, 0.388, 0.86, "2021-09-13", 2),
    "CVE-2021-30633": (9.6, N, "CWE-416",  CHROME, 0.402, 0.87, "2021-09-13", 2),
    "CVE-2021-34423": (9.8, N, "CWE-787",  ZOOM,   0.051, 0.74, "2021-11-11", 3),
    "CVE-2021-34424": (7.5, N, "CWE-125",  ZOOM,   0.034, 0.70, "2021-11-11", 3),
    "CVE-2021-37956": (8.8, N, "CWE-416",  CHROME, 0.019, 0.65, "2021-09-21", 3),
    "CVE-2021-37957": (8.8, N, "CWE-416",  CHROME, 0.018, 0.64, "2021-09-21", 3),
    "CVE-2021-37958": (5.4, N, "CWE-20",   CHROME, 0.006, 0.49, "2021-09-21", 4),
    "CVE-2021-37959": (8.8, N, "CWE-416",  CHROME, 0.016, 0.63, "2021-09-21", 4),
    "CVE-2021-37961": (8.8, N, "CWE-416",  CHROME, 0.014, 0.62, "2021-09-24", 4),
    "CVE-2021-37962": (8.8, N, "CWE-416",  CHROME, 0.013, 0.61, "2021-09-24", 4),
}

# Background traffic that fills the remaining CVSS-rank slots.  Local
# vectors and chain-free weaknesses keep their relevance at the floor.
FILLERS = {
    "CVE-2021-40121": (9.4, L, "CWE-787", cpe("mozilla", "firefox"),        0.009, 0.54, "2021-10-18", 0),
    "CVE-2021-40890": (9.0, L, "CWE-416", cpe("mozilla", "firefox"),        0.011, 0.57, "2021-10-18", 0),
    "CVE-2021-41001": (8.6, L, "CWE-787", cpe("mozilla", "firefox"),        0.007, 0.50, "2021-10-25", 1),
    "CVE-2021-41002": (8.5, L, "CWE-787", cpe("adobe", "acrobat_reader"),   0.010, 0.55, "2021-10-25", 1),
    "CVE-2021-41003": (8.4, L, "CWE-416", cpe("adobe", "acrobat_reader"),   0.005, 0.45, "2021-10-25", 2),
    "CVE-2021-41004": (8.3, L, "CWE-125", cpe("adobe", "acrobat_reader"),   0.006, 0.47, "2021-10-25", 2),
    "CVE-2021-41005": (8.2, L, "CWE-787", cpe("microsoft", "office"),       0.004, 0.42, "2021-11-01", 3),
    "CVE-2021-41006": (8.1, L, "CWE-416", cpe("microsoft", "office"),       0.008, 0.51, "2021-11-01", 3),
    "CVE-2021-41007": (8.0, L, "CWE-125", cpe("oracle", "jdk"),             0.005, 0.44, "2021-11-01", 4),
    "CVE-2021-41008": (7.9, L, "CWE-20",  cpe("oracle", "jdk"),             0.003, 0.38, "2021-11-01", 4),
    "CVE-2021-41009": (7.8, L, "CWE-787", cpe("mathworks", "matlab"),       0.004, 0.41, "2021-11-08", 5),
    "CVE-2021-42377": (7.2, L, "CWE-20",  cpe("mathworks", "matlab"),       0.002, 0.33, "2021-11-08", 5),
    "CVE-2021-31990": (4.3, L, "CWE-20",  cpe("videolan", "vlc_media_player"), 0.002, 0.31, "2021-05-03", 5),
    "CVE-2021-33550": (4.3, L, "CWE-125", cpe("videolan", "vlc_media_player"), 0.003, 0.36, "2021-05-24", 6),
    "CVE-2021-43777": (3.9, L, "CWE-20",  cpe("mysql", "mysql"),            0.001, 0.22, "2021-11-15", 6),
    "CVE-2021-44800": (3.5, L, "CWE-20",  cpe("apache", "tomcat"),          0.001, 0.20, "2021-11-15", 6),
    "CVE-2021-45012": (3.1, L, "CWE-125", cpe("wireshark", "wireshark"),    0.001, 0.18, "2021-11-15", 0),
    "CVE-2021-45990": (2.5, L, "CWE-20",  cpe("7-zip", "7-zip"),            0.001, 0.15, "2021-11-15", 1),
    "CVE-2021-46880": (2.0, L, "CWE-20",  cpe("mozilla", "thunderbird"),    0.001, 0.12, "2021-11-15", 2),
}

# Affects software outside the university inventory; must never surface
# as a candidate.
OUT_OF_INVENTORY = {
    "CVE-2021-90500": (7.0, L, "CWE-20", cpe("solarwinds", "orion_platform"),
                       0.100, 0.40, "2021-11-01", 3),
}

KEV_ROWS = [
    ("CVE-2021-38000", "Google", "Chromium",
     "Google Chromium Insufficient Validation of Untrusted Input",
     "2021-11-03",
     "Chromium allows a remote attacker to redirect users to arbitrary "
     "content via a crafted HTML page.",
     "Apply updates per vendor instructions.", "2021-11-17"),
    ("CVE-2021-30632", "Google", "Chromium",
     "Google Chromium V8 Out-of-Bounds Write",
     "2021-11-03",
     "Chromium V8 contains an out-of-bounds write that allows remote code "
     "execution via a crafted HTML page.",
     "Apply updates per vendor instructions.", "2021-11-17"),
    ("CVE-2021-30633", "Google", "Chromium",
     "Google Chromium Indexed DB Use-After-Free",
     "2021-11-03",
     "Chromium Indexed DB contains a use-after-free that allows sandbox "
     "escape via a crafted HTML page.",
     "Apply updates per vendor instructions.", "2021-11-17"),
]


def build_cves() -> list[CveRecord]:
    records = []
    for table in (LISTED, FILLERS, OUT_OF_INVENTORY):
        for cve_id, (cvss, vector, cwe_id, cpe_id, _p, _pct, published, offset) in table.items():
            records.append(CveRecord(
                cve_id=cve_id,
                description=f"Synthetic advisory text for {cve_id}.",
                published=date.fromisoformat(published),
                modified=WEEK_MONDAY + timedelta(days=offset),
                cvss_base=cvss,
                attack_vector=vector,
                cwe_ids=(cwe_id,),
                affected_cpes=(cpe_id,),
                reference_urls=(f"https://advisories.example.org/{cve_id}",),
            ))
    return sorted(records, key=lambda r: r.cve_id)


def build_cpes() -> list[CpeEntry]:
    entries = [
        CpeEntry(cpe_id=cpe(vendor_tok, product_tok), vendor=vendor_tok, product=product_tok)
        for _v, _p, vendor_tok, product_tok in RESOLVABLE
    ]
    entries.append(CpeEntry(cpe_id=cpe("solarwinds", "orion_platform"),
                            vendor="solarwinds", product="orion_platform"))
    return entries


def build_weakness_chain():
    cwes = [
        CweEntry("CWE-79", "Improper Neutralization of Input During Web Page Generation",
                 (TechnicalImpact.EXECUTE_UNAUTHORIZED_CODE,), ("CAPEC-63",)),
        CweEntry("CWE-1021", "Improper Restriction of Rendered UI Layers or Frames",
                 (TechnicalImpact.BYPASS_PROTECTION,), ("CAPEC-103",)),
        CweEntry("CWE-601", "URL Redirection to Untrusted Site",
                 (TechnicalImpact.BYPASS_PROTECTION,), ("CAPEC-194",)),
        CweEntry("CWE-787", "Out-of-bounds Write",
                 (TechnicalImpact.EXECUTE_UNAUTHORIZED_CODE,), ()),
        CweEntry("CWE-416", "Use After Free",
                 (TechnicalImpact.EXECUTE_UNAUTHORIZED_CODE,), ()),
        CweEntry("CWE-125", "Out-of-bounds Read",
                 (TechnicalImpact.READ_DATA,), ()),
        CweEntry("CWE-20", "Improper Input Validation", (), ()),
    ]
    capecs = [
        CapecEntry("CAPEC-63", "Cross-Site Scripting", SkillLevel.LOW, ("T1059",)),
        CapecEntry("CAPEC-103", "Clickjacking", SkillLevel.LOW, ("T1204",)),
        CapecEntry("CAPEC-194", "Fake the Source of Data", SkillLevel.MEDIUM, ("T1566",)),
    ]
    techniques = [
        AttackTechnique("T1059", "Command and Scripting Interpreter", ("TA0002",)),
        AttackTechnique("T1204", "User Execution", ("TA0002",)),
        AttackTechnique("T1566", "Phishing", ("TA0001",)),
        AttackTechnique("T1486", "Data Encrypted for Impact", ("TA0040",)),
    ]
    tactics = [
        AttackTactic("TA0001", "Initial Access"),
        AttackTactic("TA0002", "Execution"),
        AttackTactic("TA0040", "Impact"),
    ]
    return cwes, capecs, techniques, tactics


def build_groups() -> list[AttackGroupRaw]:
    return [
        AttackGroupRaw(
            group_id="G0901",
            name="Crimson Mantis",
            description=(
                "Crimson Mantis is a Chinese state-sponsored threat group that "
                "has been active since at least 2012. The group has targeted "
                "education, government, and research organizations in the "
                "United States and South Korea."
            ),
            created=date(2018, 4, 18),
            technique_ids=("T1059", "T1204", "T1566"),
        ),
        AttackGroupRaw(
            group_id="G0902",
            name="Static Viper",
            description=(
                "Static Viper is a Russian-speaking cybercriminal group first "
                "observed in 2015. It has targeted financial institutions and "
                "banks in the United States and Europe."
            ),
            created=date(2019, 7, 2),
            technique_ids=("T1486",),
        ),
        AttackGroupRaw(
            group_id="G0903",
            name="Grey Heron",
            description=(
                "Grey Heron is a North Korean state-sponsored threat group "
                "that has been active since at least 2009. It has targeted "
                "financial institutions in South Korea."
            ),
            created=date(2017, 5, 31),
            technique_ids=("T1566",),
        ),
    ]


def epss_rows() -> list[tuple[str, float, float]]:
    rows = {}
    for table in (LISTED, FILLERS, OUT_OF_INVENTORY):
        for cve_id, (_c, _v, _w, _cpe, prob, pct, _pub, _off) in table.items():
            rows[cve_id] = (prob, pct)
    return [(cve_id, *rows[cve_id]) for cve_id in sorted(rows)]


def profile() -> dict:
    software = [{"vendor": vendor, "product": product}
                for vendor, product, _vt, _pt in RESOLVABLE]
    software += [{"vendor": vendor, "product": product} for vendor, product in UNRESOLVED]
    return {
        "org_id": "ODU",
        "name": "Old Dominion University",
        "sector": "Education",
        "country": "United States",
        "software": software,
    }


CONFIG = {
    "snapshots": SNAPSHOT_PATHS,
    "profiles": ["profiles/odu.json"],
    "policies": {
        "apt_threat": {
            "origin_countries": ["China", "Russia", "Iran"],
            "epss_threshold": 0.876,
            "risk_appetite": 100,
            "k": 20,
        },
        "general_threat": {"skill_level": "High", "k": 20},
    },
    "date_range": {"from": "2021-11-22", "to": "2021-11-28"},
    "output_dir": "out",
}


def main() -> None:
    cves = build_cves()
    cwes, capecs, techniques, tactics = build_weakness_chain()
    write_snapshots(OUT_DIR, {
        "cve": cves,
        "cpe": build_cpes(),
        "cwe": cwes,
        "capec": capecs,
        "technique": techniques,
        "tactic": tactics,
        "group": build_groups(),
        "exploit": [ExploitRef(exploitdb_id=50432, cve_ids=("CVE-2021-38000",))],
        "reference": [ReferenceRecord(url=f"https://advisories.example.org/{c.cve_id}")
                      for c in cves],
    })
    write_csv(OUT_DIR, "epss", epss_rows(), comment="EPSS snapshot frozen for the case-study week")
    write_csv(OUT_DIR, "kev", KEV_ROWS)
    write_json(OUT_DIR / "profiles" / "odu.json", profile())
    write_json(OUT_DIR / "config.json", CONFIG)
    print(f"case-study fixture written to {OUT_DIR}")
    print(f"  {len(cves)} CVEs, {len(RESOLVABLE) + len(UNRESOLVED)} software items")


if __name__ == "__main__":
    main()
