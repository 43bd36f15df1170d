"""Toolkit for cleaning a multi-label attribute vocabulary and evaluating
predictions against it, including relatedness-graph partial credit and
metric-consistency comparison.

Importing the package loads none of its modules: each exported name, and each
submodule as ``labelkit.<name>``, is imported on first use (PEP 562), so a CLI
command pays only for the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "catalog": (
        "AnnotationSet", "CorpusStats", "LabelCatalog", "LabelRecord", "canonicalize",
        "compute_stats", "cooccurrence", "parse_annotations", "parse_labels", "write_annotations",
        "write_labels",
    ),
    "cleanse": (
        "AndSplit", "ConnectiveTally", "DuplicatePair", "HierarchyCandidate", "Merge", "OrGroup",
        "TransformPlan", "and_splits_from_tally", "apply_plan", "classify_connectives",
        "find_duplicates", "find_hierarchy_candidates", "load_plan", "or_groups_from_tally",
        "split_label", "validate_plan", "write_plan",
    ),
    "errors": ("EvalError", "LabelKitError", "ParseError", "PlanError"),
    "metricmp": (
        "ComparisonReport", "FamilyEntry", "ModelFamily", "compare", "family_from_sweep",
        "interpret", "parse_family", "write_family",
    ),
    "metrics": (
        "MetricReport", "ScoreSet", "default_threshold_grid", "enforce_exclusion", "fbeta",
        "fbeta_report", "graph_fbeta_report", "or_aware_report", "parse_scores", "sweep",
        "threshold",
    ),
    "relgraph": ("RelationGraph", "build_graph", "graph_summary", "parse_curated_edges"),
    "textkit": (
        "EDITDIST_BACKEND", "Connective", "ConnectiveSplit", "SplitClass", "edit_distance_capped",
        "split_connective", "tokenize",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "csvio", "defaults", "reports", "scorecache"}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")  # the import binds it here
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _MODULE_OF.keys() | _SUBMODULES)
