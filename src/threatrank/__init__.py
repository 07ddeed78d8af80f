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
    CostModel,
    EvaluationReport,
    NdcgResult,
    Severity,
    annualized_cost,
    dcg_at_k,
    generate_report,
    ndcg_at_k,
    ndcg_from_gains,
    patch_cost,
    severity_band,
    weekly_average_ndcg,
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
    SizeClass,
    SoftwareItem,
    load_profile,
    resolve_cpes,
    size_class,
)
from .ranking import (
    FeatureRow,
    IdealMode,
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
