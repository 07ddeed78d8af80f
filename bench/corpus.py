"""Seeded workload corpora for the threatrank benchmark, and their ground truth.

``generate(workload, seed, out_dir)`` writes a project directory that the
threatrank CLI reads (normalized JSONL snapshots, EPSS/KEV CSVs, profiles,
``config.json``) with nothing but stdlib ``json``/``csv``, so every version
of the program under test sees byte-identical inputs for one seed.  The
returned :class:`Corpus` keeps the model the files were rendered from; the
oracle derives expected outputs from that model, never from threatrank.

Sizes are fixed per workload and only content varies with the seed, so
the work a run measures does not depend on which seed is chosen.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
from collections import defaultdict
from dataclasses import dataclass, field
from datetime import date, timedelta
from pathlib import Path

PRIMARY_ORG = "ORG01"

# Country names the descriptions render, with the canonical vocabulary value
# each lexicon term maps to.  Targeted countries never overlap the policy's
# origin countries, so an origin match always comes from the home country.
HOMES = [
    ("Chinese", "China"), ("Russian", "Russia"), ("Iranian", "Iran"),
    ("North Korean", "North Korea"), ("Vietnamese", "Vietnam"), ("Pakistani", "Pakistan"),
]
ORIGIN_COUNTRIES = frozenset({"China", "Russia", "Iran"})
UNITED_STATES = "United States"
TARGET_COUNTRIES = [
    ("the United States", UNITED_STATES), ("the United Kingdom", "United Kingdom"),
    ("Germany", "Germany"), ("Japan", "Japan"), ("Canada", "Canada"),
    ("France", "France"), ("Australia", "Australia"),
]
ORG_COUNTRIES = [UNITED_STATES, "United Kingdom", "Germany", "Japan", "Canada", "France"]
SECTOR_PHRASES = {
    "Education": "universities",
    "Financial Services": "banks",
    "Energy": "electric utilities",
    "Healthcare and Public Health": "hospitals",
    "Government Facilities": "embassies",
    "Information Technology": "software companies",
    "Communications": "telecommunications providers",
    "Transportation Systems": "shipping firms",
    "Defense Industrial Base": "defense contractors",
    "Commercial Facilities": "hotels",
}
SECTORS = sorted(SECTOR_PHRASES)
# Neutral sentences: no country or sector term, no targeting trigger, no year.
FILLER = [
    "Its operators favour spearphishing emails that carry weaponized documents.",
    "The group maintains a rotating pool of command servers.",
    "Public reporting links it to several custom backdoors and loaders.",
    "Its campaigns often begin with credential harvesting.",
    "Analysts have seen the group reuse code across its toolsets.",
    "Operators frequently pivot through compromised service providers.",
    "The group has used living-off-the-land binaries to evade detection.",
    "Intrusions are typically followed by long periods of quiet reconnaissance.",
    "Stolen data is staged in encrypted archives before exfiltration.",
    "The operators are known to rebuild their tooling after public disclosure.",
]
NAME_WORDS = (["Amber", "Cobalt", "Crimson", "Silver", "Onyx", "Scarlet", "Azure", "Umber"],
              ["Heron", "Falcon", "Lynx", "Viper", "Otter", "Badger", "Raven", "Marten"])
VECTORS = ["NETWORK"] * 14 + ["LOCAL"] * 3 + ["ADJACENT"] * 2 + ["PHYSICAL"]
IMPACTS = ["ReadData", "ModifyData", "DenyServiceUnreliableExecution",
           "DenyServiceResourceConsumption", "ExecuteUnauthorizedCode", "GainPrivileges",
           "BypassProtection", "HideActivities"]
FAILURE_IMPACTS = frozenset({"ExecuteUnauthorizedCode", "GainPrivileges",
                             "ModifyData", "BypassProtection"})
SKILLS = ["Low", "Medium", "High", "Unknown"]
EPSS_THRESHOLD = 0.876
SKILL_LEVEL = "High"
K = 20


@dataclass(frozen=True)
class Shape:
    """Fixed sizes of one workload; the seed only varies content."""

    start_year: int
    weeks: int                 # ISO weeks of feed history
    query_weeks: int           # trailing weeks the read commands ask for
    orgs: int
    items_per_org: int         # resolvable software items per inventory
    unresolved_per_org: int    # inventory items with no dictionary entry
    versions: int              # dictionary versions per product
    extra_cpes: int            # dictionary entries no inventory installs
    applicable_per_week: int   # CVEs per org per week on its software
    noise_per_week: int        # CVEs per week on software nobody installs
    groups: int
    filler_sentences: int
    cwes: int
    capecs: int
    techniques: int
    refs_per_cve: int
    override_range: bool       # pass the query range as --from/--to


WORKLOADS = {
    # One org, twenty weekly cohorts larger than K_max, a tiny ATT&CK/group
    # set: the time goes to ranking, nDCG@1..100 and the per-cohort scans.
    # Sizes across workloads are set so a refresh takes a few seconds and a
    # run holds enough refreshes for a steady median.
    "year_deep": Shape(start_year=2021, weeks=20, query_weeks=20, orgs=1,
                       items_per_org=30, unresolved_per_org=2, versions=3, extra_cpes=300,
                       applicable_per_week=104, noise_per_week=10, groups=4,
                       filler_sentences=1, cwes=6, capecs=5, techniques=5,
                       refs_per_cve=0, override_range=False),
    # Many orgs, large inventories and CPE dictionary, hundreds of verbose
    # groups over a CWE->CAPEC->technique mesh; cohorts stay below K.
    "wide_intel": Shape(start_year=2021, weeks=4, query_weeks=4, orgs=10,
                        items_per_org=40, unresolved_per_org=4, versions=4, extra_cpes=4000,
                        applicable_per_week=14, noise_per_week=30, groups=500,
                        filler_sentences=8, cwes=120, capecs=160, techniques=220,
                        refs_per_cve=1, override_range=False),
    # Years of feed history, mostly not applicable, queried for one week:
    # a large build/save, and every read command is mostly graph load.
    "weekly_refresh": Shape(start_year=2019, weeks=104, query_weeks=1, orgs=3,
                            items_per_org=40, unresolved_per_org=3, versions=4,
                            extra_cpes=2400, applicable_per_week=4, noise_per_week=12,
                            groups=40, filler_sentences=2, cwes=60, capecs=60,
                            techniques=80, refs_per_cve=1, override_range=True),
}

# Deliberately dirty feed content, identical in every workload: malformed
# CVE lines are skipped and counted, EPSS rows and an exploit reference
# naming absent CVEs are dangling references that build drops.
DIRTY_CVE_LINES = 4
DANGLING_EPSS = 3


@dataclass
class Cve:
    cve_id: str
    modified: date
    published: date
    cvss: float
    vector: str
    cwes: tuple[str, ...]
    cpes: tuple[str, ...]
    refs: tuple[str, ...]
    epss: tuple[float, float] | None
    kev: bool
    exploitdb: bool


@dataclass
class Group:
    group_id: str
    techniques: tuple[str, ...]
    home: str
    targets: tuple[str, ...]
    sectors: tuple[str, ...]

    @property
    def kept(self) -> bool:
        return UNITED_STATES in self.targets

    @property
    def origins(self) -> frozenset[str]:
        # Attribution takes every country the description names as an origin.
        return frozenset((self.home, *self.targets))


@dataclass
class Org:
    org_id: str
    sector: str
    country: str
    products: tuple[str, ...]
    # The graph keeps one Software node per product for every org, linked to
    # the versions any org's profile resolved, so an org's graph CPE set can
    # be wider than its own profile's version pins.
    cpes: frozenset[str] = frozenset()


@dataclass
class Corpus:
    """Generated project plus the model it was rendered from."""

    config: Path
    out_dir: Path
    read_args: list[str]
    query: tuple[date, date]
    cves: dict[str, Cve]
    cwes: dict[str, tuple[frozenset[str], tuple[str, ...]]]     # impacts, capecs
    capecs: dict[str, tuple[str, tuple[str, ...]]]              # skill, techniques
    groups: list[Group]
    orgs: dict[str, Org]
    sizes: dict[str, int] = field(default_factory=dict)
    input_sha256: str = ""


def _cpe(vendor: str, product: str, version: str) -> str:
    return f"cpe:2.3:a:{vendor}:{product}:{version}:*:*:*:*:*:*:*"


def _write_jsonl(path: Path, kind: str, rows) -> None:
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            fh.write(json.dumps({"kind": kind, **row}))
            fh.write("\n")


def _join(words: list[str]) -> str:
    return words[0] if len(words) == 1 else ", ".join(words[:-1]) + " and " + words[-1]


def _mesh(rng: random.Random, shape: Shape):
    """CWE->CAPEC->technique mesh; shared targets give diamond paths.

    Degrees follow the index so every seed builds a mesh of the same size.
    """
    techniques = [f"T{1000 + i}" for i in range(shape.techniques)]
    capecs = {}
    for i in range(shape.capecs):
        linked = rng.sample(techniques, min(i % 3, len(techniques)))
        capecs[f"CAPEC-{100 + i}"] = (rng.choice(SKILLS), tuple(sorted(linked)))
    capec_ids = list(capecs)
    cwes = {}
    for i in range(shape.cwes):
        impacts = frozenset(rng.sample(IMPACTS, 1 + i % 2))
        linked = rng.sample(capec_ids, min(1 + i % 3, len(capec_ids)))
        cwes[f"CWE-{20 + i}"] = (impacts, tuple(sorted(linked)))
    return techniques, capecs, cwes


def _groups(rng: random.Random, shape: Shape, techniques: list[str]) -> list[Group]:
    others = [c for _, c in TARGET_COUNTRIES if c != UNITED_STATES]
    groups = []
    for i in range(shape.groups):
        # Seven in ten groups target the United States, so attribution keeps them.
        targets = [UNITED_STATES] + rng.sample(others, i % 3) if i % 10 < 7 \
            else rng.sample(others, 1 + i % 2)
        groups.append(Group(
            group_id=f"G{1000 + i}",
            techniques=tuple(sorted(rng.sample(techniques, min(1 + i % 4, len(techniques))))),
            home=rng.choice(HOMES)[1],
            targets=tuple(targets),
            sectors=tuple(rng.sample(SECTORS, 1 + i % 3)),
        ))
    return groups


def _describe(rng: random.Random, group: Group, shape: Shape) -> str:
    adjective = next(adj for adj, country in HOMES if country == group.home)
    name = f"{rng.choice(NAME_WORDS[0])} {rng.choice(NAME_WORDS[1])}"
    country_names = {c: text for text, c in TARGET_COUNTRIES}
    sentences = [
        f"{name} is a {adjective} threat group that has been active since at least "
        f"{rng.randint(2005, 2018)}.",
        f"It has targeted {_join([SECTOR_PHRASES[s] for s in group.sectors])}.",
        f"Its victims were targeted in {_join([country_names[c] for c in group.targets])}.",
    ]
    sentences[1:1] = rng.sample(FILLER, shape.filler_sentences)
    return " ".join(sentences)


def _orgs(rng: random.Random, shape: Shape):
    """Inventories, the CPE dictionary, and each org's resolved CPE set."""
    dictionary: list[tuple[str, str, str]] = []   # (cpe id, vendor, product)
    profiles = []
    orgs = {}
    product_serial = 0

    def new_product():
        nonlocal product_serial
        product_serial += 1
        vendor = f"vendor{product_serial:05d}_labs"
        product = f"product_{product_serial:05d}"
        versions = [f"{major}.{rng.randint(0, 9)}" for major in range(1, shape.versions + 1)]
        for version in versions:
            dictionary.append((_cpe(vendor, product, version), vendor, product))
        display = (f"Vendor{product_serial:05d} Labs", f"Product {product_serial:05d}")
        return display[0], display[1], [_cpe(vendor, product, v) for v in versions]

    previous: list[tuple[str, str, list[str]]] = []
    product_cpes: dict[str, set[str]] = defaultdict(set)
    for n in range(shape.orgs):
        org_id = f"ORG{n + 1:02d}"
        sector = "Education" if n == 0 else SECTORS[(n * 3) % len(SECTORS)]
        country = UNITED_STATES if n == 0 else ORG_COUNTRIES[n % len(ORG_COUNTRIES)]
        # Two products of each inventory also appear in the next one.
        products = previous + [new_product()
                               for _ in range(shape.items_per_org - len(previous))]
        previous = products[-2:] if shape.orgs > 1 else []
        software = []
        for i, (vendor, product, versions) in enumerate(products):
            item = {"vendor": vendor, "product": product}
            if i % 4 == 3:
                chosen = rng.choice(versions)
                item["version"] = chosen.split(":")[5]
                product_cpes[product].add(chosen)
            else:
                product_cpes[product].update(versions)
            software.append(item)
        for i in range(shape.unresolved_per_org):
            software.append({"vendor": f"Inhouse{n:02d}", "product": f"Tool {i}"})
        rng.shuffle(software)
        orgs[org_id] = Org(org_id, sector, country, tuple(p for _, p, _ in products))
        profiles.append({"org_id": org_id, "name": f"Organization {n + 1}",
                         "sector": sector, "country": country, "software": software})
    for org in orgs.values():
        org.cpes = frozenset(cpe for product in org.products for cpe in product_cpes[product])
    noise_cpes = []
    for _ in range(max(1, shape.extra_cpes // shape.versions)):
        noise_cpes.extend(new_product()[2])
    return dictionary, profiles, orgs, noise_cpes


def _cve(rng: random.Random, serial: int, monday: date, cpes: tuple[str, ...],
         cwe_ids: list[str], shape: Shape, applicable: bool) -> Cve:
    cve_id = f"CVE-2021-{serial:06d}"
    modified = monday + timedelta(days=rng.randint(0, 6))
    if rng.random() < 0.95:
        high = rng.random() < 0.3
        probability = round(rng.uniform(0.88, 0.99) if high else rng.uniform(0.001, 0.8), 3)
        epss = (probability, round(rng.uniform(0.0, 1.0), 3))
    else:
        epss = None
    return Cve(
        cve_id=cve_id,
        modified=modified,
        published=modified - timedelta(days=rng.randint(0, 60)),
        cvss=rng.randint(10, 100) / 10,
        vector=rng.choice(VECTORS),
        cwes=tuple(sorted(rng.sample(cwe_ids, rng.randint(1, 2)))),
        cpes=cpes,
        refs=tuple(f"https://advisories.example.org/{cve_id}/{r}"
                   for r in range(shape.refs_per_cve)),
        epss=epss,
        kev=applicable and rng.random() < 0.15,
        exploitdb=applicable and rng.random() < 0.1,
    )


def generate(workload: str, seed: int, out_dir: Path, shape: Shape | None = None) -> Corpus:
    """Write the workload's project under ``out_dir`` and return its model.

    ``shape`` replaces the workload's sizes (the tests use tiny ones).
    """
    shape = shape or WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    out_dir.mkdir(parents=True, exist_ok=True)
    snapshots = out_dir / "snapshots"
    snapshots.mkdir(exist_ok=True)
    (out_dir / "profiles").mkdir(exist_ok=True)

    techniques, capecs, cwes = _mesh(rng, shape)
    groups = _groups(rng, shape, techniques)
    dictionary, profiles, orgs, noise_cpes = _orgs(rng, shape)

    first_monday = date.fromisocalendar(shape.start_year, 1, 1)
    mondays = [first_monday + timedelta(weeks=w) for w in range(shape.weeks)]
    cwe_ids = list(cwes)
    org_cpes = {org_id: sorted(org.cpes) for org_id, org in orgs.items()}
    cves: dict[str, Cve] = {}
    serial = 100000
    for monday in mondays:
        batch = [(org_id, True) for org_id in orgs for _ in range(shape.applicable_per_week)]
        batch += [(None, False)] * shape.noise_per_week
        for org_id, applicable in batch:
            serial += 1
            pool = org_cpes[org_id] if applicable else noise_cpes
            cpes = tuple(sorted({rng.choice(pool), rng.choice(noise_cpes)}))
            cve = _cve(rng, serial, monday, cpes, cwe_ids, shape, applicable)
            cves[cve.cve_id] = cve

    query = (mondays[-shape.query_weeks], mondays[-1] + timedelta(days=6))
    history = (mondays[0], mondays[-1] + timedelta(days=6))

    cve_rows = [{
        "cve_id": c.cve_id, "description": f"Synthetic advisory for {c.cve_id}.",
        "published": c.published.isoformat(), "modified": c.modified.isoformat(),
        "cvss_base": c.cvss, "attack_vector": c.vector, "cwe_ids": list(c.cwes),
        "affected_cpes": list(c.cpes), "reference_urls": list(c.refs),
    } for c in cves.values()]
    with (snapshots / "cve.jsonl").open("w", encoding="utf-8", newline="\n") as fh:
        step = max(1, len(cve_rows) // DIRTY_CVE_LINES)
        for i, row in enumerate(cve_rows):
            fh.write(json.dumps({"kind": "cve", **row}) + "\n")
            if i % step == 0 and i // step < DIRTY_CVE_LINES:
                fh.write(json.dumps({"kind": "cve", **row, "cve_id": f"CVE-9999-{i:06d}",
                                     "cvss_base": "n/a"}) + "\n")
    _write_jsonl(snapshots / "cpe.jsonl", "cpe", (
        {"cpe_id": cpe, "vendor": vendor, "product": product, "deprecated": False,
         "language_tag": "en-US"} for cpe, vendor, product in dictionary))
    _write_jsonl(snapshots / "cwe.jsonl", "cwe", (
        {"cwe_id": cwe_id, "name": f"Weakness {cwe_id}", "technical_impacts": sorted(impacts),
         "related_capecs": list(linked)} for cwe_id, (impacts, linked) in cwes.items()))
    _write_jsonl(snapshots / "capec.jsonl", "capec", (
        {"capec_id": capec_id, "name": f"Pattern {capec_id}", "skill_level": skill,
         "related_techniques": list(linked)} for capec_id, (skill, linked) in capecs.items()))
    _write_jsonl(snapshots / "technique.jsonl", "technique", (
        {"technique_id": t, "name": f"Technique {t}", "tactic_ids": [f"TA{1 + i % 4:04d}"]}
        for i, t in enumerate(techniques)))
    _write_jsonl(snapshots / "tactic.jsonl", "tactic", (
        {"tactic_id": f"TA{i:04d}", "name": f"Tactic {i}"} for i in range(1, 5)))
    _write_jsonl(snapshots / "group.jsonl", "group", (
        {"group_id": g.group_id, "name": g.group_id, "description": _describe(rng, g, shape),
         "created": "2019-06-01", "technique_ids": list(g.techniques)} for g in groups))
    exploit_rows = [{"exploitdb_id": 50000 + i, "cve_ids": [c.cve_id]}
                    for i, c in enumerate(c for c in cves.values() if c.exploitdb)]
    exploit_rows.append({"exploitdb_id": 49999, "cve_ids": ["CVE-2000-000001"]})
    _write_jsonl(snapshots / "exploit.jsonl", "exploit", exploit_rows)
    _write_jsonl(snapshots / "reference.jsonl", "reference", (
        {"url": url} for c in cves.values() for url in c.refs))

    with (out_dir / "epss.csv").open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["cve", "epss", "percentile"])
        writer.writerows((c.cve_id, *c.epss) for c in cves.values() if c.epss)
        writer.writerows((f"CVE-2000-{i:06d}", 0.5, 0.5) for i in range(DANGLING_EPSS))
    with (out_dir / "kev.csv").open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["cveID", "vendorProject", "product", "vulnerabilityName",
                         "dateAdded", "shortDescription", "requiredAction", "dueDate"])
        for c in cves.values():
            if c.kev:
                added = c.modified
                writer.writerow([c.cve_id, "Vendor", "Product", f"{c.cve_id} exploitation",
                                 added.isoformat(), "Exploited in the wild.",
                                 "Apply updates.", (added + timedelta(days=14)).isoformat()])
    profile_paths = []
    for profile in profiles:
        rel = f"profiles/{profile['org_id'].lower()}.json"
        (out_dir / rel).write_text(json.dumps(profile, indent=2) + "\n", encoding="utf-8")
        profile_paths.append(rel)
    config_range = query if not shape.override_range else history
    config = {
        "snapshots": {kind: f"snapshots/{kind}.jsonl" for kind in (
            "cve", "cpe", "cwe", "capec", "technique", "tactic", "group", "exploit",
            "reference")} | {"epss": "epss.csv", "kev": "kev.csv"},
        "profiles": profile_paths,
        "policies": {"apt_threat": {"k": K},
                     "general_threat": {"skill_level": SKILL_LEVEL, "k": K}},
        "date_range": {"from": config_range[0].isoformat(), "to": config_range[1].isoformat()},
        "output_dir": "out",
    }
    config_path = out_dir / "config.json"
    config_path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")

    corpus = Corpus(
        config=config_path,
        out_dir=out_dir / "out",
        read_args=["--from", query[0].isoformat(), "--to", query[1].isoformat()]
        if shape.override_range else [],
        query=query, cves=cves, cwes=cwes, capecs=capecs, groups=groups, orgs=orgs,
    )
    applicable = [c for c in cves.values()
                  if query[0] <= c.modified <= query[1] and set(c.cpes) & orgs[PRIMARY_ORG].cpes]
    corpus.sizes = {
        "cves": len(cves),
        "applicable_per_week": round(len(applicable) / shape.query_weeks),
        "orgs": len(orgs),
        "groups": len(groups),
        "cpes": len(dictionary),
        "weeks": shape.weeks,
        "query_weeks": shape.query_weeks,
    }
    corpus.input_sha256 = inputs_sha256(out_dir)
    return corpus


def inputs_sha256(root: Path) -> str:
    """One digest over every generated input file, paths included."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file() and "out" not in
                       p.relative_to(root).parts):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()
