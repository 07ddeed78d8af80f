"""threatrank: fuse public CTI snapshots into a typed knowledge graph,
rank an organization's applicable vulnerabilities under threat-centric
policies, and evaluate the rankings with nDCG, patch cost, and paired
t-tests."""

from .enrich import (
    GroupAttribution,
    Lexicon,
    attribute_group,
    filter_us_targeting,
    load_lexicon,
)
from .errors import DataError, ThreatRankError, UsageError
from .evaluation import (
    EvaluationReport,
    Severity,
    annualized_cost,
    generate_report,
    ndcg_at_k,
    patch_cost,
    severity_band,
)
from .feeds import (
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
    ParseResult,
    ReferenceRecord,
    SkillLevel,
    SnapshotBundle,
    SourceKind,
    TechnicalImpact,
    ValidationReport,
    parse_epss_csv,
    parse_kev_csv,
    parse_snapshot,
    validate_snapshot,
)
from .kgraph import (
    EdgeType,
    NodeLabel,
    PropertyGraph,
    build_graph,
    load_graph,
    save_graph,
    techniques_for_cve,
)
from .profiles import (
    OrganizationProfile,
    SoftwareItem,
    cpe_index,
    load_profile,
    resolve_cpes,
)
from .ranking import (
    Family,
    FeatureRow,
    OrgContext,
    Policy,
    PolicyConfig,
    RankedItem,
    RankedList,
    WeeklyCohort,
    feature_bits,
    feature_table,
    generate_candidates,
    rank,
)
from .stats import TTestResult, paired_t_test, student_t_cdf
from .vocab import Vocabulary, default_vocabulary, load_vocabulary

__version__ = "0.1.0"
