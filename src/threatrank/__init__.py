"""threatrank: fuse public CTI snapshots into a typed knowledge graph,
rank an organization's applicable vulnerabilities under threat-centric
policies, and evaluate the rankings with nDCG, patch cost, and paired
t-tests.

Every public name imports from the package (``from threatrank import
rank``) and loads its module on first use (PEP 562), so importing one
module, as each CLI command does, does not import all of them.
"""

import importlib

__version__ = "0.1.0"

# The module that defines each group of public names.
_MODULES = {
    "enrich": ("GroupAttribution", "Lexicon", "attribute_group", "filter_us_targeting",
               "load_lexicon"),
    "errors": ("DataError", "ThreatRankError", "UsageError"),
    "evaluation": ("EvaluationReport", "Severity", "annualized_cost", "generate_report",
                   "ndcg_at_k", "patch_cost", "severity_band"),
    "feeds": ("AttackGroupRaw", "AttackTactic", "AttackTechnique", "CapecEntry", "CpeEntry",
              "CveRecord", "CweEntry", "EpssScore", "ExploitRef", "KevEntry", "ParseResult",
              "ReferenceRecord", "ValidationReport", "parse_epss_csv", "parse_kev_csv",
              "parse_snapshot", "validate_snapshot"),
    "kgraph": ("EdgeType", "NodeLabel", "PropertyGraph", "build_graph", "load_graph",
               "save_graph", "techniques_for_cve"),
    "kinds": ("AttackVector", "Family", "Policy", "PolicyConfig", "SkillLevel", "SourceKind",
              "TechnicalImpact"),
    "profiles": ("OrganizationProfile", "SoftwareItem", "cpe_index", "load_profile",
                 "resolve_cpes"),
    "ranking": ("FeatureRow", "OrgContext", "RankedItem", "RankedList", "WeeklyCohort",
                "feature_table", "generate_candidates", "org_ids", "org_rows", "rank"),
    "stats": ("TTestResult", "paired_t_test", "student_t_cdf"),
    "vocab": ("Vocabulary", "load_vocabulary"),
}
_MODULE_OF = {name: module for module, names in _MODULES.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
