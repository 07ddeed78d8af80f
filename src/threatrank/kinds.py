"""The enumerations and policy settings shared by config parsing, feeds and ranking.

They live apart from ``feeds`` and ``ranking``, so config parsing imports
neither and a read command no feed parser; ``feeds`` re-exports the four
feed enumerations and ``ranking`` the policy settings.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple


class AttackVector(str, Enum):
    NETWORK = "NETWORK"
    ADJACENT = "ADJACENT"
    LOCAL = "LOCAL"
    PHYSICAL = "PHYSICAL"


class TechnicalImpact(str, Enum):
    """The eight weakness impacts that lead to system failure."""

    READ_DATA = "ReadData"
    MODIFY_DATA = "ModifyData"
    DENY_SERVICE_UNRELIABLE_EXECUTION = "DenyServiceUnreliableExecution"
    DENY_SERVICE_RESOURCE_CONSUMPTION = "DenyServiceResourceConsumption"
    EXECUTE_UNAUTHORIZED_CODE = "ExecuteUnauthorizedCode"
    GAIN_PRIVILEGES = "GainPrivileges"
    BYPASS_PROTECTION = "BypassProtection"
    HIDE_ACTIVITIES = "HideActivities"


class SkillLevel(str, Enum):
    LOW = "Low"
    MEDIUM = "Medium"
    HIGH = "High"
    UNKNOWN = "Unknown"


class SourceKind(str, Enum):
    CVE = "cve"
    CPE = "cpe"
    CWE = "cwe"
    CAPEC = "capec"
    TECHNIQUE = "technique"
    TACTIC = "tactic"
    GROUP = "group"
    EPSS = "epss"
    KEV = "kev"
    EXPLOIT = "exploit"
    REFERENCE = "reference"


DEFAULT_ORIGIN_COUNTRIES = frozenset({"China", "Russia", "Iran"})
DEFAULT_EPSS_THRESHOLD = 0.876


class Policy(Enum):
    CVSS_BASE = "cvss_base"
    APT_THREAT = "apt_threat"
    GENERAL_THREAT = "general_threat"
    IDEAL = "ideal"


class Family(Enum):
    """A feature family; the value labels its rows in ``ndcg_by_k.csv``."""

    APT = "apt"
    GENERAL = "general"


class _PolicyFields(NamedTuple):
    family: Family
    origin_countries: frozenset[str] = DEFAULT_ORIGIN_COUNTRIES
    skill_level: SkillLevel = SkillLevel.HIGH
    epss_threshold: float = DEFAULT_EPSS_THRESHOLD
    risk_appetite: int = 100
    k: int = 20


class PolicyConfig(_PolicyFields):
    """One family's settings, as a ``policies.<threat>`` config object sets them.

    Every way of building one checks the settings: the constructor, and
    ``_make``, through which ``_replace`` builds its copy.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 0.0 <= self.epss_threshold <= 1.0:
            raise ValueError(f"epss_threshold outside [0,1]: {self.epss_threshold}")
        if not 0 <= self.risk_appetite <= 100:
            raise ValueError(f"risk_appetite outside [0,100]: {self.risk_appetite}")
        if self.k < 1:
            raise ValueError(f"k must be positive: {self.k}")
        if self.skill_level not in (SkillLevel.LOW, SkillLevel.HIGH):
            raise ValueError("skill_level must be Low or High")
        return self

    @classmethod
    def _make(cls, iterable) -> "PolicyConfig":
        return cls(*iterable)


# Policies are sums over these names; the tuple order is the order the
# ``feature_bits`` column of the ranked CSVs prints.
APT_BITS = ("av_network", "sector_focus", "targets_country", "origin_match",
            "epss_gate", "affects_software")
GENERAL_BITS = ("av_network", "skill_match", "technique_link", "failure_impact",
                "epss_gate", "affects_software")
# Each family's threat policy and the bits it sums.
FAMILIES = {Family.APT: (Policy.APT_THREAT, APT_BITS),
            Family.GENERAL: (Policy.GENERAL_THREAT, GENERAL_BITS)}
