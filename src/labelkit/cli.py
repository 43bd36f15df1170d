"""Command-line surface for the cleaning and evaluation pipeline.

Subcommands map one-to-one onto library operations: inspect, dupes,
hierarchy and connectives read the corpus and propose; apply executes a
reviewed plan; graph materializes the relatedness graph; the eval family
scores predictions; sweep and compare study metrics across thresholds.

Every report is written atomically and is byte-identical given the same
inputs and configuration. Errors leave a single JSON object on stderr and a
nonzero exit status.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from . import __version__
from .catalog import (
    compute_stats,
    cooccurrence,
    parse_annotations,
    parse_labels,
    write_annotations,
    write_labels,
)
from .cleanse import (
    and_splits_from_tally,
    apply_and_splits,
    apply_merges,
    classify_connectives,
    find_duplicates,
    find_hierarchy_candidates,
    load_plan,
    or_groups_from_tally,
    propagate_supercategories,
    tally_as_dict,
    write_duplicate_candidates,
    write_hierarchy_candidates,
)
from .errors import LabelKitError
from .metricmp import compare, family_from_sweep, parse_family, write_family
from .metrics import (
    DEFAULT_BETA,
    DEFAULT_DECISION_THRESHOLD,
    enforce_exclusion,
    fbeta_report,
    graph_fbeta_report,
    or_aware_report,
    parse_scores,
    sweep,
    threshold as binarize,
    write_sweep,
)
from .metricmp import DEFAULT_EPSILON
from .relgraph import build_graph, graph_summary, parse_curated_edges, write_edge_list
from .reports import provenance, render_json, write_json, write_text
from .textkit import Connective

DEFAULT_SIMILARITY = 0.90


@dataclass
class RunConfig:
    """Effective settings after merging flags, config file, and defaults."""

    labels: str | None = None
    annotations: str | None = None
    scores: str | None = None
    predictions: str | None = None
    plan: str | None = None
    graph_edges: str | None = None
    family: str | None = None
    out: str | None = None
    threshold: float = DEFAULT_DECISION_THRESHOLD
    beta: float = DEFAULT_BETA
    similarity: float = DEFAULT_SIMILARITY
    fp_mode: str = "literal"
    epsilon: float = DEFAULT_EPSILON
    category: str | None = None
    which: str = "both"
    threads: int = 0  # accepted for compatibility; scoring runs in one thread
    thresholds: list[float] | None = None
    cross_category: bool = False


_CONFIG_KEYS = {f.name for f in fields(RunConfig)}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# What a config-file value must be, by the annotation of its RunConfig field.
_VALUE_CHECKS = {
    "float": ("a number", _is_number),
    "int": ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "str": ("a string", lambda v: isinstance(v, str)),
    "str | None": ("a string or null", lambda v: v is None or isinstance(v, str)),
    "list[float] | None": (
        "a list of numbers or null",
        lambda v: v is None or (isinstance(v, list) and all(map(_is_number, v))),
    ),
}


def _load_config_file(path: str) -> dict:
    with open(path, encoding="utf-8-sig") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise LabelKitError(f"config file {path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise LabelKitError(f"config file {path}: expected a JSON object")
    unknown = set(doc) - _CONFIG_KEYS
    if unknown:
        raise LabelKitError(
            f"config file {path}: unknown keys {', '.join(sorted(unknown))}"
        )
    for f in fields(RunConfig):
        if f.name in doc:
            expected, valid = _VALUE_CHECKS[f.type]
            if not valid(doc[f.name]):
                raise LabelKitError(
                    f"config file {path}: {f.name} must be {expected}, "
                    f"got {json.dumps(doc[f.name])}"
                )
    return doc


def _merge_config(args: argparse.Namespace) -> RunConfig:
    """Flags beat the config file, the config file beats defaults."""
    file_values = _load_config_file(args.config) if getattr(args, "config", None) else {}
    cfg = RunConfig()
    for name in _CONFIG_KEYS:
        flag_value = getattr(args, name, None)
        if flag_value is not None:
            setattr(cfg, name, flag_value)
        elif name in file_values:
            setattr(cfg, name, file_values[name])
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: RunConfig) -> None:
    if not 0.0 <= cfg.threshold <= 1.0:
        raise LabelKitError(f"threshold {cfg.threshold} outside [0, 1]")
    if cfg.beta <= 0:
        raise LabelKitError(f"beta must be positive, got {cfg.beta}")
    if not 0.0 < cfg.similarity <= 1.0:
        raise LabelKitError(f"similarity {cfg.similarity} outside (0, 1]")
    if cfg.fp_mode not in ("literal", "complement"):
        raise LabelKitError(f"fp_mode must be literal or complement, got {cfg.fp_mode!r}")
    if cfg.epsilon < 0:
        raise LabelKitError(f"epsilon must be nonnegative, got {cfg.epsilon}")
    if cfg.which not in ("and", "or", "both"):
        raise LabelKitError(f"--which must be and, or, or both, got {cfg.which!r}")
    if cfg.threads < 0:
        raise LabelKitError(f"threads must be positive, got {cfg.threads}")
    if cfg.thresholds is not None:
        for value in cfg.thresholds:
            if not 0.0 <= value <= 1.0:
                raise LabelKitError(f"sweep threshold {value} outside [0, 1]")


def _knob_block(cfg: RunConfig) -> dict:
    # Result-affecting knobs only; threads has no effect on results and
    # stays out so reports are byte-identical at any --threads.
    return {
        "threshold": cfg.threshold,
        "beta": cfg.beta,
        "similarity": cfg.similarity,
        "fp_mode": cfg.fp_mode,
        "epsilon": cfg.epsilon,
        "category": cfg.category,
        "which": cfg.which,
        "thresholds": cfg.thresholds,
        "cross_category": cfg.cross_category,
    }


def _provenance(cfg: RunConfig, **paths: str | None) -> dict:
    inputs = {name: path for name, path in paths.items() if path is not None}
    return provenance(inputs, _knob_block(cfg))


def _require(cfg: RunConfig, *names: str) -> None:
    missing = [name for name in names if getattr(cfg, name) is None]
    if missing:
        raise LabelKitError(
            "missing required input(s): " + ", ".join(f"--{n.replace('_', '-')}" for n in missing)
        )


def _open_text(path: str):
    # utf-8-sig drops a leading byte-order mark, which would otherwise
    # become part of the first header name.
    return open(path, encoding="utf-8-sig", newline="")


def _read_catalog(cfg: RunConfig):
    _require(cfg, "labels")
    with _open_text(cfg.labels) as handle:
        return parse_labels(handle)


def _read_annotations(cfg: RunConfig, catalog, path: str):
    with _open_text(path) as handle:
        return parse_annotations(handle, catalog)


def _emit_json(doc, out: str | None) -> None:
    if out is None:
        sys.stdout.write(render_json(doc))
    else:
        write_json(doc, out)
        print(f"wrote {out}")


def _emit_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        write_text(text, out)
        print(f"wrote {out}")


# ---------------------------------------------------------------------------
# Subcommands


def cmd_inspect(cfg: RunConfig) -> int:
    catalog = _read_catalog(cfg)
    doc: dict = {
        "n_labels": len(catalog),
        "per_category_counts": {
            c: len(catalog.category_ids(c)) for c in catalog.categories()
        },
    }
    if cfg.annotations:
        annotations = _read_annotations(cfg, catalog, cfg.annotations)
        stats = compute_stats(annotations, catalog)
        doc.update(
            {
                "n_samples": stats.n_samples,
                "median_labels_per_sample": stats.median_labels_per_sample,
                "labels_per_sample_histogram": sorted(
                    stats.labels_per_sample_histogram.items()
                ),
                "category_coverage": stats.category_coverage,
                "per_label_frequency": {
                    str(i): n for i, n in stats.per_label_frequency.items()
                },
            }
        )
    doc["provenance"] = _provenance(cfg, labels=cfg.labels, annotations=cfg.annotations)
    _emit_json(doc, cfg.out)
    return 0


def cmd_dupes(cfg: RunConfig) -> int:
    catalog = _read_catalog(cfg)
    pairs = find_duplicates(
        catalog,
        threshold=cfg.similarity,
        same_category_only=not cfg.cross_category,
        category=cfg.category,
    )
    print(f"{len(pairs)} duplicate candidates at similarity >= {cfg.similarity}")
    buffer = io.StringIO()
    write_duplicate_candidates(pairs, buffer)
    _emit_text(buffer.getvalue(), cfg.out)
    return 0


def cmd_hierarchy(cfg: RunConfig) -> int:
    catalog = _read_catalog(cfg)
    candidates = find_hierarchy_candidates(catalog, category=cfg.category)
    print(f"{len(candidates)} hierarchy candidates")
    buffer = io.StringIO()
    write_hierarchy_candidates(candidates, buffer)
    _emit_text(buffer.getvalue(), cfg.out)
    return 0


def cmd_connectives(cfg: RunConfig) -> int:
    catalog = _read_catalog(cfg)
    doc: dict = {}
    wanted = ("and", "or") if cfg.which == "both" else (cfg.which,)
    for word in wanted:
        tally = classify_connectives(catalog, Connective(word))
        doc[word] = tally_as_dict(tally, catalog)
        print(
            f"{word}: total={tally.total} all_resolved={tally.all_resolved} "
            f"none_resolved={tally.none_resolved} partial={tally.partial}"
        )
    doc["provenance"] = _provenance(cfg, labels=cfg.labels)
    _emit_json(doc, cfg.out)
    return 0


def cmd_apply(cfg: RunConfig) -> int:
    _require(cfg, "labels", "annotations", "plan", "out")
    catalog = _read_catalog(cfg)
    annotations = _read_annotations(cfg, catalog, cfg.annotations)
    with _open_text(cfg.plan) as handle:
        plan = load_plan(handle, catalog)

    before_labels, before_samples = len(catalog), len(annotations)
    annotations, catalog = apply_merges(annotations, catalog, plan.merges)
    annotations, catalog = apply_and_splits(annotations, catalog, plan.and_splits)
    if plan.hierarchy_edges:
        annotations = propagate_supercategories(annotations, plan.hierarchy_edges)

    out_dir = Path(cfg.out)
    labels_path = out_dir / "labels.csv"
    annotations_path = out_dir / "annotations.csv"
    buffer = io.StringIO()
    write_labels(catalog, buffer)
    write_text(buffer.getvalue(), labels_path)
    buffer = io.StringIO()
    write_annotations(annotations, buffer)
    write_text(buffer.getvalue(), annotations_path)
    summary = {
        "labels_before": before_labels,
        "labels_after": len(catalog),
        "samples": before_samples,
        "plan": {
            "merges": len(plan.merges),
            "hierarchy_edges": len(plan.hierarchy_edges),
            "and_splits": len(plan.and_splits),
            "or_groups": len(plan.or_groups),
            "exclusion_groups": len(plan.exclusion_groups),
        },
        "provenance": _provenance(
            cfg, labels=cfg.labels, annotations=cfg.annotations, plan=cfg.plan
        ),
    }
    write_json(summary, out_dir / "summary.json")
    print(f"applied plan: {before_labels} -> {len(catalog)} labels; wrote {out_dir}")
    return 0


def _build_graph(cfg: RunConfig, catalog):
    """Graph assembly shared by graph, eval-graph, and sweep: connective
    relations from the plan when given, otherwise derived from the catalog,
    plus optional curated edges."""
    if cfg.plan:
        with _open_text(cfg.plan) as handle:
            plan = load_plan(handle, catalog, sections=("or_groups", "and_splits"))
        or_groups = plan.or_groups
        and_splits = plan.and_splits
    else:
        or_groups = or_groups_from_tally(classify_connectives(catalog, Connective.OR))
        and_splits = and_splits_from_tally(classify_connectives(catalog, Connective.AND))
    curated: list[tuple[int, int]] = []
    if cfg.graph_edges:
        with _open_text(cfg.graph_edges) as handle:
            curated = parse_curated_edges(handle, catalog)
    return build_graph(
        catalog,
        or_groups=or_groups,
        and_splits=and_splits,
        curated_edges=curated,
        scope=cfg.category,
    )


def cmd_graph(cfg: RunConfig) -> int:
    _require(cfg, "labels", "out")
    catalog = _read_catalog(cfg)
    graph = _build_graph(cfg, catalog)
    out_dir = Path(cfg.out)
    buffer = io.StringIO()
    write_edge_list(graph, catalog, buffer)
    write_text(buffer.getvalue(), out_dir / "edges.txt")
    doc = graph_summary(graph)
    doc["provenance"] = _provenance(
        cfg, labels=cfg.labels, plan=cfg.plan, graph_edges=cfg.graph_edges
    )
    write_json(doc, out_dir / "graph.json")
    print(
        f"graph: {doc['nodes']} nodes, {doc['edges']} edges, "
        f"{doc['components']} components; wrote {out_dir}"
    )
    return 0


def _load_eval_pair(cfg: RunConfig):
    """Catalog, truth, predictions, and the score set when one was given."""
    _require(cfg, "labels", "annotations")
    catalog = _read_catalog(cfg)
    truth = _read_annotations(cfg, catalog, cfg.annotations)
    if (cfg.scores is None) == (cfg.predictions is None):
        raise LabelKitError("provide exactly one of --scores or --predictions")
    if cfg.scores:
        with _open_text(cfg.scores) as handle:
            scores = parse_scores(handle, catalog)
        predictions = binarize(scores, cfg.threshold, truth.sample_ids())
    else:
        scores = None
        predictions = _read_annotations(cfg, catalog, cfg.predictions)
    return catalog, truth, predictions, scores


def _scope_from_category(cfg: RunConfig, catalog):
    if cfg.category is None:
        return None
    if cfg.category not in catalog.categories():
        raise LabelKitError(f"unknown category {cfg.category!r}")
    return catalog.category_ids(cfg.category)


def _finish_eval(cfg: RunConfig, report, extra: dict | None = None, **input_paths) -> int:
    doc = report.as_dict()
    if extra:
        doc.update(extra)
    doc["provenance"] = _provenance(cfg, **input_paths)
    micro = doc.get("micro_f")
    macro = doc.get("macro_f")
    fmt = lambda v: "nan" if v is None else f"{v:.6f}"  # noqa: E731
    print(f"{report.kind}: micro_f={fmt(micro)} macro_f={fmt(macro)}")
    _emit_json(doc, cfg.out)
    return 0


def cmd_eval(cfg: RunConfig) -> int:
    catalog, truth, predictions, _ = _load_eval_pair(cfg)
    report = fbeta_report(
        predictions, truth, beta=cfg.beta, scope=_scope_from_category(cfg, catalog)
    )
    return _finish_eval(
        cfg,
        report,
        labels=cfg.labels,
        annotations=cfg.annotations,
        scores=cfg.scores,
        predictions=cfg.predictions,
    )


def cmd_eval_graph(cfg: RunConfig) -> int:
    catalog, truth, predictions, _ = _load_eval_pair(cfg)
    graph = _build_graph(cfg, catalog)
    report = graph_fbeta_report(
        predictions,
        truth,
        graph,
        beta=cfg.beta,
        fp_mode=cfg.fp_mode,
        scope=_scope_from_category(cfg, catalog),
    )
    return _finish_eval(
        cfg,
        report,
        labels=cfg.labels,
        annotations=cfg.annotations,
        scores=cfg.scores,
        predictions=cfg.predictions,
        plan=cfg.plan,
        graph_edges=cfg.graph_edges,
    )


def cmd_eval_or(cfg: RunConfig) -> int:
    catalog, truth, predictions, _ = _load_eval_pair(cfg)
    if cfg.plan:
        with _open_text(cfg.plan) as handle:
            or_groups = load_plan(handle, catalog, sections=("or_groups",)).or_groups
    else:
        or_groups = or_groups_from_tally(classify_connectives(catalog, Connective.OR))
    report = or_aware_report(
        predictions,
        truth,
        or_groups,
        beta=cfg.beta,
        scope=_scope_from_category(cfg, catalog),
    )
    return _finish_eval(
        cfg,
        report,
        extra={"or_groups": len(or_groups)},
        labels=cfg.labels,
        annotations=cfg.annotations,
        scores=cfg.scores,
        predictions=cfg.predictions,
        plan=cfg.plan,
    )


def cmd_eval_excl(cfg: RunConfig) -> int:
    _require(cfg, "plan")
    catalog, truth, predictions, scores = _load_eval_pair(cfg)
    with _open_text(cfg.plan) as handle:
        groups = load_plan(handle, catalog, sections=("exclusion_groups",)).exclusion_groups
    if not groups:
        raise LabelKitError("plan has no exclusion groups")
    predictions = enforce_exclusion(predictions, scores, groups)
    scope = frozenset().union(*groups)
    report = fbeta_report(
        predictions,
        truth,
        beta=cfg.beta,
        scope=scope,
        sample_filter=lambda sid: bool(truth.labels_for(sid) & scope),
    )
    return _finish_eval(
        cfg,
        report,
        extra={"exclusion_groups": len(groups), "exclusion_labels": len(scope)},
        labels=cfg.labels,
        annotations=cfg.annotations,
        scores=cfg.scores,
        predictions=cfg.predictions,
        plan=cfg.plan,
    )


def cmd_sweep(cfg: RunConfig) -> int:
    _require(cfg, "labels", "annotations", "scores", "out")
    catalog = _read_catalog(cfg)
    truth = _read_annotations(cfg, catalog, cfg.annotations)
    with _open_text(cfg.scores) as handle:
        scores = parse_scores(handle, catalog)
    use_graph = bool(cfg.plan or cfg.graph_edges)
    graph = _build_graph(cfg, catalog) if use_graph else None
    rows = sweep(
        scores,
        truth,
        thresholds=cfg.thresholds,
        graph=graph,
        beta=cfg.beta,
        fp_mode=cfg.fp_mode,
        scope=_scope_from_category(cfg, catalog),
    )
    out_dir = Path(cfg.out)
    buffer = io.StringIO()
    write_sweep(rows, buffer)
    write_text(buffer.getvalue(), out_dir / "sweep.csv")
    doc = {
        "rows": rows,
        "provenance": _provenance(
            cfg,
            labels=cfg.labels,
            annotations=cfg.annotations,
            scores=cfg.scores,
            plan=cfg.plan,
            graph_edges=cfg.graph_edges,
        ),
    }
    write_json(doc, out_dir / "sweep.json")
    if graph is not None:
        family = family_from_sweep(rows)
        buffer = io.StringIO()
        write_family(family, buffer)
        write_text(buffer.getvalue(), out_dir / "family.csv")
    print(f"swept {len(rows)} thresholds; wrote {out_dir}")
    return 0


def cmd_compare(cfg: RunConfig) -> int:
    _require(cfg, "family")
    with _open_text(cfg.family) as handle:
        family = parse_family(handle)
    report = compare(family, epsilon=cfg.epsilon)
    doc = report.as_dict()
    doc["provenance"] = _provenance(cfg, family=cfg.family)
    print(
        f"doc={'undefined' if report.doc is None else f'{report.doc:.6f}'} "
        f"dod={'undefined' if report.dod is None else report.dod} "
        f"verdict={doc['verdict']}"
    )
    _emit_json(doc, cfg.out)
    return 0


_COMMANDS = {
    "inspect": cmd_inspect,
    "dupes": cmd_dupes,
    "hierarchy": cmd_hierarchy,
    "connectives": cmd_connectives,
    "apply": cmd_apply,
    "graph": cmd_graph,
    "eval": cmd_eval,
    "eval-graph": cmd_eval_graph,
    "eval-or": cmd_eval_or,
    "eval-excl": cmd_eval_excl,
    "sweep": cmd_sweep,
    "compare": cmd_compare,
}


def _comma_floats(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="labelkit",
        description="Clean a multi-label vocabulary and evaluate predictions against it.",
    )
    parser.add_argument("--version", action="version", version=f"labelkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--labels", help="label vocabulary CSV")
    common.add_argument("--annotations", help="sample annotation CSV")
    common.add_argument("--scores", help="per-sample per-label score CSV")
    common.add_argument("--predictions", help="binarized prediction CSV")
    common.add_argument("--plan", help="transformation plan JSON")
    common.add_argument("--graph-edges", dest="graph_edges", help="curated edge file")
    common.add_argument("--family", help="model family CSV for compare")
    common.add_argument("--out", help="output file (or directory for apply/graph/sweep)")
    common.add_argument("--config", help="JSON config file; flags take precedence")
    common.add_argument("--threshold", type=float, help="decision threshold (default 0.1)")
    common.add_argument("--beta", type=float, help="F-beta weight (default 2)")
    common.add_argument(
        "--similarity", type=float, help="duplicate similarity threshold (default 0.9)"
    )
    common.add_argument("--fp-mode", dest="fp_mode", choices=["literal", "complement"])
    common.add_argument("--epsilon", type=float, help="tie tolerance for compare")
    common.add_argument("--category", help="restrict to one category")
    common.add_argument(
        "--threads", type=int, help="accepted for compatibility; has no effect"
    )
    common.add_argument(
        "--thresholds", type=_comma_floats, help="explicit sweep grid, comma-separated"
    )
    common.add_argument(
        "--which", choices=["and", "or", "both"], help="connective(s) to classify"
    )
    common.add_argument(
        "--cross-category",
        dest="cross_category",
        action="store_const",
        const=True,
        help="also pair labels across categories when finding duplicates",
    )

    for name in _COMMANDS:
        sub.add_parser(name, parents=[common])
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args)
        return _COMMANDS[args.command](cfg)
    except (LabelKitError, OSError, ValueError, KeyError) as exc:
        message = exc.args[0] if exc.args and isinstance(exc.args[0], str) else str(exc)
        sys.stderr.write(json.dumps({"error": message}) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
