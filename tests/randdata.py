"""Deterministic random record generators for fuzz tests."""

from __future__ import annotations

import random
from datetime import date, timedelta

from threatrank.enrich import GroupAttribution
from threatrank.feeds import (
    AttackGroupRaw,
    AttackTactic,
    AttackTechnique,
    AttackVector,
    CapecEntry,
    CpeEntry,
    CveRecord,
    CweEntry,
    EpssScore,
    ExploitRef,
    KevEntry,
    ReferenceRecord,
    SkillLevel,
    SourceKind,
    TechnicalImpact,
)
from threatrank.profiles import OrganizationProfile, SoftwareItem
from tests.conftest import VOCAB

EPOCH = date(2019, 1, 1)


def _some(rng: random.Random, pool: list[str], lo: int, hi: int,
          dangling: str | None = None) -> tuple[str, ...]:
    picked = rng.sample(pool, k=min(len(pool), rng.randint(lo, hi)))
    if dangling and rng.random() < 0.02:
        picked.append(dangling)
    return tuple(picked)


def random_bundle(seed: int, scale: int = 1) -> dict[SourceKind, list]:
    """A random but well-formed snapshot with ~10,000*scale records.

    Cross-references are mostly valid with a small dangling fraction, so
    graph builds exercise both edge creation and dangling drops.
    """
    rng = random.Random(seed)
    n = lambda base: base * scale  # noqa: E731

    tactic_ids = [f"TA{i:04d}" for i in range(1, n(30) + 1)]
    technique_ids = [f"T{1000 + i}" for i in range(n(300))]
    capec_ids = [f"CAPEC-{i}" for i in range(1, n(600) + 1)]
    cwe_ids = [f"CWE-{i}" for i in range(1, n(800) + 1)]
    cpe_ids = [f"cpe:2.3:a:vendor{i}:product{i}:-:*:*:*:*:*:*:*" for i in range(n(1500))]
    cve_ids = [f"CVE-2020-{10000 + i}" for i in range(n(5000))]
    group_ids = [f"G{i:04d}" for i in range(1, n(120) + 1)]

    bundle: dict[SourceKind, list] = {}
    bundle[SourceKind.TACTIC] = [AttackTactic(t, f"Tactic {t}") for t in tactic_ids]
    bundle[SourceKind.TECHNIQUE] = [
        AttackTechnique(t, f"Technique {t}", _some(rng, tactic_ids, 1, 2, "TA9999"))
        for t in technique_ids
    ]
    bundle[SourceKind.CAPEC] = [
        CapecEntry(c, f"Pattern {c}", rng.choice(list(SkillLevel)),
                   _some(rng, technique_ids, 0, 3, "T9999"))
        for c in capec_ids
    ]
    bundle[SourceKind.CWE] = [
        CweEntry(w, f"Weakness {w}",
                 tuple(rng.sample(list(TechnicalImpact), k=rng.randint(0, 3))),
                 _some(rng, capec_ids, 0, 3, "CAPEC-99999"))
        for w in cwe_ids
    ]
    bundle[SourceKind.CPE] = [
        CpeEntry(cpe_id=c, vendor=c.split(":")[3], product=c.split(":")[4])
        for c in cpe_ids
    ]
    cves = bundle[SourceKind.CVE] = []
    for i, cve_id in enumerate(cve_ids):
        published = EPOCH + timedelta(days=rng.randint(0, 700))
        cves.append(CveRecord(
            cve_id=cve_id,
            description=f"record {i}",
            published=published,
            modified=published + timedelta(days=rng.randint(0, 90)),
            cvss_base=round(rng.uniform(0.1, 10.0), 1),
            attack_vector=rng.choice(list(AttackVector)),
            cwe_ids=_some(rng, cwe_ids, 0, 3, "CWE-999999"),
            affected_cpes=_some(rng, cpe_ids, 0, 4),
            reference_urls=(f"https://advisories.example.org/{cve_id}",)
            if rng.random() < 0.3 else (),
        ))
    bundle[SourceKind.GROUP] = [
        AttackGroupRaw(g, f"Group {g}", f"Synthetic description for {g}.",
                       EPOCH + timedelta(days=rng.randint(0, 600)),
                       _some(rng, technique_ids, 0, 6))
        for g in group_ids
    ]
    bundle[SourceKind.EPSS] = [
        EpssScore(cve_id, round(rng.random(), 3), round(rng.random(), 3))
        for cve_id in rng.sample(cve_ids, k=min(len(cve_ids), n(1000)))
    ]
    kev = bundle[SourceKind.KEV] = []
    for cve_id in rng.sample(cve_ids, k=min(len(cve_ids), n(200))):
        added = EPOCH + timedelta(days=rng.randint(0, 700))
        kev.append(KevEntry(cve_id, "vendor", "product", "name", added,
                            "short", "patch", added + timedelta(days=14)))
    bundle[SourceKind.EXPLOIT] = [ExploitRef(40000 + i, _some(rng, cve_ids, 1, 3))
                                  for i in range(n(150))]
    bundle[SourceKind.REFERENCE] = [
        ReferenceRecord(url=f"https://advisories.example.org/{c}")
        for c in rng.sample(cve_ids, k=min(len(cve_ids), n(300)))
    ]
    return bundle


def random_attributions(seed: int, bundle: dict[SourceKind, list]) -> list[GroupAttribution]:
    rng = random.Random(seed)
    attributions = []
    for group in bundle[SourceKind.GROUP]:
        attributions.append(GroupAttribution(
            group_id=group.group_id,
            origin_countries=tuple(rng.sample(VOCAB.countries, k=rng.randint(0, 2))),
            origin_year=rng.randint(1990, group.created.year),
            targeted_countries=tuple(rng.sample(VOCAB.countries, k=rng.randint(0, 3))),
            targeted_sectors=tuple(rng.sample(VOCAB.sectors, k=rng.randint(0, 3))),
            evidence=(),
        ))
    return attributions


def random_profiles(seed: int, bundle: dict[SourceKind, list]) -> list[OrganizationProfile]:
    """One to four organizations whose inventories resolve to the bundle's
    CPEs, with a few unresolved items and CPE ids the bundle lacks."""
    rng = random.Random(seed)
    cpes = bundle[SourceKind.CPE]
    profiles = []
    for i in range(rng.randint(1, 4)):
        software = []
        for entry in rng.sample(cpes, k=min(len(cpes), rng.randint(0, 20))):
            resolved = () if rng.random() < 0.1 else (entry.cpe_id,)
            if rng.random() < 0.02:
                resolved += ("cpe:2.3:a:nobody:nothing:-:*:*:*:*:*:*:*",)
            software.append(SoftwareItem(vendor=entry.vendor, product=entry.product,
                                         version=rng.choice([None, "1.0"]),
                                         resolved_cpes=resolved))
        profiles.append(OrganizationProfile(
            org_id=f"ORG{i}", name=f"Organization {i}", sector=rng.choice(VOCAB.sectors),
            country=rng.choice(VOCAB.countries), software=tuple(software)))
    return profiles
