"""Toolkit for cleaning a multi-label attribute vocabulary and evaluating
predictions against it, including relatedness-graph partial credit and
metric-consistency comparison."""

__version__ = "0.1.0"

from .catalog import (
    AnnotationSet,
    CorpusStats,
    LabelCatalog,
    LabelRecord,
    canonicalize,
    compute_stats,
    cooccurrence,
    coverage,
    parse_annotations,
    parse_labels,
    write_annotations,
    write_labels,
)
from .cleanse import (
    AndSplit,
    ConnectiveTally,
    DuplicatePair,
    HierarchyCandidate,
    Merge,
    OrGroup,
    TransformPlan,
    and_splits_from_tally,
    apply_and_splits,
    apply_merges,
    classify_connectives,
    find_duplicates,
    find_hierarchy_candidates,
    load_plan,
    or_groups_from_tally,
    propagate_supercategories,
    split_label,
    validate_plan,
    write_plan,
)
from .errors import EvalError, LabelKitError, ParseError, PlanError
from .metricmp import (
    ComparisonReport,
    FamilyEntry,
    ModelFamily,
    compare,
    family_from_sweep,
    interpret,
    parse_family,
    write_family,
)
from .metrics import (
    MetricReport,
    ScoreSet,
    default_threshold_grid,
    deviation_report,
    enforce_exclusion,
    fbeta,
    fbeta_report,
    graph_fbeta_report,
    or_aware_report,
    parse_scores,
    sweep,
    threshold,
)
from .relgraph import (
    INFINITE,
    RelationGraph,
    build_graph,
    graph_summary,
    parse_curated_edges,
)
from .textkit import (
    EDITDIST_BACKEND,
    Connective,
    ConnectiveSplit,
    SplitClass,
    edit_distance,
    edit_distance_capped,
    resolve_split,
    similarity_ratio,
    split_connective,
    tokenize,
)
