"""The enumerations shared by the feed records and the ranking policies.

They live apart from ``feeds`` so that a read command, which ranks from
the graph snapshot, need not import the feed record types and parsers.
``feeds`` re-exports every name here.
"""

from __future__ import annotations

from enum import Enum


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
