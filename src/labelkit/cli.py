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
import math
import os
import sys

from . import __version__
from .defaults import (
    DEFAULT_BETA,
    DEFAULT_DECISION_THRESHOLD,
    DEFAULT_EPSILON,
    DEFAULT_SIMILARITY,
)
from .errors import LabelKitError, SampleMismatch, undecodable

# Each subcommand imports the library modules (and the heavier stdlib ones)
# it runs when it runs, so --version, --help and usage errors load none of
# them, and no command loads another's scoring code.


class RunConfig:
    """Effective settings after merging flags, config file, and defaults.
    Each annotated class attribute is a setting, with its default."""

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

    def __init__(self) -> None:
        # Neither is a setting: the config file the settings come from, and
        # option name -> (path given, file holding the bytes read) of each
        # file read, the config file included.
        self.config: str | None = None
        self.inputs_read: dict[str, tuple[str, str]] = {}


# Setting name -> its annotation, which says what a config-file value must be.
_SETTINGS = dict(RunConfig.__annotations__)
_CONFIG_KEYS = set(_SETTINGS)
# Settings that provenance leaves out of its config block: the files, which
# it lists by path and digest, and threads, which has no effect on results,
# so reports are byte-identical at any --threads.
_NOT_KNOBS = {
    "labels", "annotations", "scores", "predictions", "plan", "graph_edges", "family", "out",
    "threads",
}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# What a config-file value must be, by the annotation of its RunConfig setting.
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


def _parse_config(handle) -> dict:
    import json

    path = handle.name
    text = handle.read()  # outside the try: _read names a bad byte's line
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad syntax, over 4300 digits, too deep
        raise LabelKitError(f"config file {path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise LabelKitError(f"config file {path}: expected a JSON object")
    unknown = set(doc) - _CONFIG_KEYS
    if unknown:
        raise LabelKitError(
            f"config file {path}: unknown keys {', '.join(sorted(unknown))}"
        )
    for name, annotation in _SETTINGS.items():
        if name in doc:
            expected, valid = _VALUE_CHECKS[annotation]
            if not valid(doc[name]):
                raise LabelKitError(
                    f"config file {path}: {name} must be {expected}, "
                    f"got {json.dumps(doc[name])}"
                )
            # A number becomes the float its flag gives for the same digits
            # (1 -> 1.0, too large -> inf), so both write the same bytes.
            if annotation == "float":
                doc[name] = float(str(doc[name]))
            elif annotation == "list[float] | None" and doc[name] is not None:
                doc[name] = [float(str(value)) for value in doc[name]]
    return doc


def _merge_config(cfg: RunConfig, args: argparse.Namespace) -> None:
    """Flags beat the config file, the config file beats defaults."""
    file_values = _read(cfg, "config", _parse_config) if cfg.config else {}
    for name in _CONFIG_KEYS:
        flag_value = getattr(args, name, None)
        if flag_value is not None:
            setattr(cfg, name, flag_value)
        elif name in file_values:
            setattr(cfg, name, file_values[name])
    _validate_config(cfg)


def _validate_config(cfg: RunConfig) -> None:
    if not 0.0 <= cfg.threshold <= 1.0:
        raise LabelKitError(f"threshold {cfg.threshold} outside [0, 1]")
    if not 0.0 < cfg.beta < math.inf:
        raise LabelKitError(f"beta must be positive and finite, got {cfg.beta}")
    if not 0.0 < cfg.similarity <= 1.0:
        raise LabelKitError(f"similarity {cfg.similarity} outside (0, 1]")
    if cfg.fp_mode not in ("literal", "complement"):
        raise LabelKitError(f"fp_mode must be literal or complement, got {cfg.fp_mode!r}")
    if not 0.0 <= cfg.epsilon < math.inf:
        raise LabelKitError(f"epsilon must be nonnegative and finite, got {cfg.epsilon}")
    if cfg.which not in ("and", "or", "both"):
        raise LabelKitError(f"--which must be and, or, or both, got {cfg.which!r}")
    if cfg.threads < 0:
        raise LabelKitError(f"threads must be nonnegative, got {cfg.threads}")
    if cfg.thresholds is not None:
        for value in cfg.thresholds:
            if not 0.0 <= value <= 1.0:
                raise LabelKitError(f"sweep threshold {value} outside [0, 1]")


def _provenance(cfg: RunConfig) -> dict:
    from .reports import provenance

    knobs = {name: getattr(cfg, name) for name in _SETTINGS if name not in _NOT_KNOBS}
    # The config file's settings are listed as knobs, not the file itself.
    inputs = {name: read for name, read in cfg.inputs_read.items() if name != "config"}
    return provenance(inputs, knobs)


def _require(cfg: RunConfig, *names: str) -> None:
    missing = [name for name in names if getattr(cfg, name) is None]
    if missing:
        raise LabelKitError(
            "missing required input(s): " + ", ".join(f"--{n.replace('_', '-')}" for n in missing)
        )


def _read(cfg: RunConfig, name: str, parse, *args, **kwargs):
    """``parse`` applied to the file given as option ``name``, which is
    recorded so the provenance block lists exactly the files the command
    read. A file that is not a regular one, such as a pipe, can be read only
    once: it is first copied to a temporary file, which :func:`main`
    removes, so the digest and a decode error read the bytes that were
    parsed. utf-8-sig drops a leading byte-order mark, which would otherwise
    become part of the first header name."""
    _require(cfg, name)
    path = source = getattr(cfg, name)
    if not os.path.isfile(path):
        import shutil
        import tempfile

        fd, source = tempfile.mkstemp(prefix="labelkit-")
        cfg.inputs_read[name] = (path, source)  # main removes it even if the copy fails
        with os.fdopen(fd, "wb") as copy, open(path, "rb") as stream:
            shutil.copyfileobj(stream, copy)
    cfg.inputs_read[name] = (path, source)
    with open(source, encoding="utf-8-sig", newline="") as handle:
        handle.buffer.raw.name = path  # parse errors name the input as given
        try:
            return parse(handle, *args, **kwargs)
        except UnicodeDecodeError:
            raise undecodable(path, source) from None


def _render(write, *args) -> str:
    """The text a stream writer such as ``write_sweep`` produces."""
    buffer = io.StringIO()
    write(*args, buffer)
    return buffer.getvalue()


def _emit_text(text: str, out: str | None) -> None:
    from .reports import write_text

    if out is None:
        sys.stdout.write(text)
    else:
        write_text(text, out)
        print(f"wrote {out}")


def _write_report(cfg: RunConfig, before: str | None, doc: dict, out, after: str | None) -> None:
    """Stamp ``doc`` with the provenance of the files ``cfg`` read, print
    ``before``, then print ``doc`` as a JSON report, or stream it into the
    file ``out`` and print ``after`` (by default, that ``out`` was written).
    :func:`main` calls this once the command has returned, so the command's
    parsed inputs are freed before any of them is digested."""
    from .reports import render_json, write_json

    doc["provenance"] = _provenance(cfg)
    if before:
        print(before)
    if out is None:
        sys.stdout.write(render_json(doc))
    else:
        write_json(doc, out)
        print(after or f"wrote {out}")


# ---------------------------------------------------------------------------
# Subcommands. One whose report carries provenance returns what
# :func:`_write_report` takes after ``cfg``: the line to print first, the
# report, the file it goes to (stdout when None), and the line to print once
# it is written. Files without provenance are written before it returns.


def cmd_inspect(cfg: RunConfig):
    from .catalog import compute_stats, parse_annotations, parse_labels

    catalog = _read(cfg, "labels", parse_labels)
    doc: dict = {
        "n_labels": len(catalog),
        "per_category_counts": {
            c: len(catalog.category_ids(c)) for c in catalog.categories()
        },
    }
    if cfg.annotations:
        annotations = _read(cfg, "annotations", parse_annotations, catalog)
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
    return None, doc, cfg.out, None


def cmd_dupes(cfg: RunConfig) -> None:
    from .catalog import parse_labels
    from .cleanse import find_duplicates, write_duplicate_candidates

    catalog = _read(cfg, "labels", parse_labels)
    pairs = find_duplicates(
        catalog,
        threshold=cfg.similarity,
        same_category_only=not cfg.cross_category,
        category=cfg.category,
    )
    print(f"{len(pairs)} duplicate candidates at similarity >= {cfg.similarity}")
    _emit_text(_render(write_duplicate_candidates, pairs), cfg.out)


def cmd_hierarchy(cfg: RunConfig) -> None:
    from .catalog import parse_labels
    from .cleanse import find_hierarchy_candidates, write_hierarchy_candidates

    catalog = _read(cfg, "labels", parse_labels)
    candidates = find_hierarchy_candidates(catalog, category=cfg.category)
    print(f"{len(candidates)} hierarchy candidates")
    _emit_text(_render(write_hierarchy_candidates, candidates), cfg.out)


def cmd_connectives(cfg: RunConfig):
    from .catalog import parse_labels
    from .cleanse import classify_connectives, tally_as_dict
    from .textkit import Connective

    catalog = _read(cfg, "labels", parse_labels)
    doc: dict = {}
    lines = []
    wanted = ("and", "or") if cfg.which == "both" else (cfg.which,)
    for word in wanted:
        tally = classify_connectives(catalog, Connective(word))
        doc[word] = tally_as_dict(tally, catalog)
        lines.append(
            f"{word}: total={tally.total} all_resolved={tally.all_resolved} "
            f"none_resolved={tally.none_resolved} partial={tally.partial}"
        )
    return "\n".join(lines), doc, cfg.out, None


def cmd_apply(cfg: RunConfig):
    from pathlib import Path

    from .catalog import parse_annotations, parse_labels, write_annotations, write_labels
    from .cleanse import apply_plan, load_plan
    from .reports import write_text

    _require(cfg, "labels", "annotations", "plan", "out")
    catalog = _read(cfg, "labels", parse_labels)
    annotations = _read(cfg, "annotations", parse_annotations, catalog)
    plan = _read(cfg, "plan", load_plan, catalog)

    before_labels, before_samples = len(catalog), len(annotations)
    annotations, catalog = apply_plan(annotations, catalog, plan)

    out_dir = Path(cfg.out)
    write_text(_render(write_labels, catalog), out_dir / "labels.csv")
    write_text(_render(write_annotations, annotations), out_dir / "annotations.csv")
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
    }
    done = f"applied plan: {before_labels} -> {len(catalog)} labels; wrote {out_dir}"
    return None, summary, out_dir / "summary.json", done


def _connective_relations(cfg: RunConfig, catalog, *sections: str) -> list[list]:
    """The connective relations named in ``sections`` (``or_groups``,
    ``and_splits``), in that order: read from the plan when --plan is
    given, otherwise derived from the catalog's connective labels."""
    from .cleanse import and_splits_from_tally, classify_connectives, load_plan, or_groups_from_tally
    from .textkit import Connective

    if cfg.plan:
        plan = _read(cfg, "plan", load_plan, catalog, sections=sections)
        return [getattr(plan, section) for section in sections]
    words = {"or_groups": Connective.OR, "and_splits": Connective.AND}
    entries = {"or_groups": or_groups_from_tally, "and_splits": and_splits_from_tally}
    return [entries[s](classify_connectives(catalog, words[s])) for s in sections]


def _build_graph(cfg: RunConfig, catalog):
    """Graph assembly shared by graph, eval-graph, and sweep: the connective
    relations (:func:`_connective_relations`) plus optional curated edges."""
    from .relgraph import build_graph, parse_curated_edges

    or_groups, and_splits = _connective_relations(cfg, catalog, "or_groups", "and_splits")
    curated: list[tuple[int, int]] = []
    if cfg.graph_edges:
        curated = _read(cfg, "graph_edges", parse_curated_edges, catalog)
    return build_graph(
        catalog,
        or_groups=or_groups,
        and_splits=and_splits,
        curated_edges=curated,
        scope=cfg.category,
    )


def cmd_graph(cfg: RunConfig):
    from pathlib import Path

    from .catalog import parse_labels
    from .relgraph import graph_summary, write_edge_list
    from .reports import write_text

    _require(cfg, "labels", "out")
    catalog = _read(cfg, "labels", parse_labels)
    graph = _build_graph(cfg, catalog)
    out_dir = Path(cfg.out)
    write_text(_render(write_edge_list, graph, catalog), out_dir / "edges.txt")
    doc = graph_summary(graph)
    done = (
        f"graph: {doc['nodes']} nodes, {doc['edges']} edges, "
        f"{doc['components']} components; wrote {out_dir}"
    )
    return None, doc, out_dir / "graph.json", done


def _load_eval_pair(cfg: RunConfig):
    """Catalog, truth, predictions, and the score set when one was given."""
    from .catalog import parse_annotations, parse_labels
    from .metrics import parse_scores, threshold as binarize

    _require(cfg, "labels", "annotations")
    catalog = _read(cfg, "labels", parse_labels)
    truth = _read(cfg, "annotations", parse_annotations, catalog)
    if (cfg.scores is None) == (cfg.predictions is None):
        raise LabelKitError("provide exactly one of --scores or --predictions")
    if cfg.scores:
        scores = _read(cfg, "scores", parse_scores, catalog)
        predictions = binarize(scores, cfg.threshold, truth.sample_ids())
    else:
        scores = None
        predictions = _read(cfg, "predictions", parse_annotations, catalog)
    return catalog, truth, predictions, scores


def _scope_from_category(cfg: RunConfig, catalog):
    return None if cfg.category is None else catalog.category_ids(cfg.category)


def _finish_eval(cfg: RunConfig, report, extra: dict | None = None):
    doc = report.as_dict()
    if extra:
        doc.update(extra)
    micro = doc.get("micro_f")
    macro = doc.get("macro_f")
    fmt = lambda v: "nan" if v is None else f"{v:.6f}"  # noqa: E731
    return f"{report.kind}: micro_f={fmt(micro)} macro_f={fmt(macro)}", doc, cfg.out, None


def cmd_eval(cfg: RunConfig):
    from .metrics import fbeta_report

    catalog, truth, predictions, _ = _load_eval_pair(cfg)
    report = fbeta_report(
        predictions, truth, beta=cfg.beta, scope=_scope_from_category(cfg, catalog)
    )
    return _finish_eval(cfg, report)


def cmd_eval_graph(cfg: RunConfig):
    from .metrics import graph_fbeta_report

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
    return _finish_eval(cfg, report)


def cmd_eval_or(cfg: RunConfig):
    from .metrics import or_aware_report

    catalog, truth, predictions, _ = _load_eval_pair(cfg)
    (or_groups,) = _connective_relations(cfg, catalog, "or_groups")
    report = or_aware_report(
        predictions,
        truth,
        or_groups,
        beta=cfg.beta,
        scope=_scope_from_category(cfg, catalog),
    )
    return _finish_eval(cfg, report, extra={"or_groups": len(or_groups)})


def cmd_eval_excl(cfg: RunConfig):
    from .cleanse import load_plan
    from .metrics import enforce_exclusion, fbeta_report

    _require(cfg, "plan")
    catalog, truth, predictions, scores = _load_eval_pair(cfg)
    plan = _read(cfg, "plan", load_plan, catalog, sections=("exclusion_groups",))
    groups = plan.exclusion_groups
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
        cfg, report, extra={"exclusion_groups": len(groups), "exclusion_labels": len(scope)}
    )


def cmd_sweep(cfg: RunConfig):
    from pathlib import Path

    from .catalog import parse_annotations, parse_labels
    from .metricmp import family_from_sweep, write_family
    from .metrics import parse_scores, sweep, write_sweep
    from .reports import write_text

    _require(cfg, "labels", "annotations", "scores", "out")
    catalog = _read(cfg, "labels", parse_labels)
    truth = _read(cfg, "annotations", parse_annotations, catalog)
    scores = _read(cfg, "scores", parse_scores, catalog)
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
    write_text(_render(write_sweep, rows), out_dir / "sweep.csv")
    if graph is not None:
        write_text(_render(write_family, family_from_sweep(rows)), out_dir / "family.csv")
    done = f"swept {len(rows)} thresholds; wrote {out_dir}"
    return None, {"rows": rows}, out_dir / "sweep.json", done


def cmd_compare(cfg: RunConfig):
    from .metricmp import compare, parse_family

    report = compare(_read(cfg, "family", parse_family), epsilon=cfg.epsilon)
    doc = report.as_dict()
    line = (
        f"doc={'undefined' if report.doc is None else f'{report.doc:.6f}'} "
        f"dod={'undefined' if report.dod is None else report.dod} "
        f"verdict={doc['verdict']}"
    )
    return line, doc, cfg.out, None


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


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # a usage error becomes main's one JSON error line
        raise LabelKitError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    common.add_argument(
        "--threshold", type=float, help=f"decision threshold (default {DEFAULT_DECISION_THRESHOLD})"
    )
    common.add_argument("--beta", type=float, help=f"F-beta weight (default {DEFAULT_BETA})")
    common.add_argument(
        "--similarity", type=float,
        help=f"duplicate similarity threshold (default {DEFAULT_SIMILARITY})",
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
    cfg = RunConfig()
    try:
        args = build_parser().parse_args(argv)
        cfg.config = args.config
        _merge_config(cfg, args)
        report = _COMMANDS[args.command](cfg)
        if report is not None:
            _write_report(cfg, *report)
        if sys.stdout is not None:  # None when started with stdout closed
            sys.stdout.flush()  # so a reader that closed early is seen here, not at exit
        return 0
    except BrokenPipeError:
        # Stdout is the one pipe labelkit writes to. Its reader stopped early
        # (`| head`), which is not an error; what is left goes nowhere.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())  # so the flush at exit cannot fail again
        os.close(devnull)
        return 0
    except (LabelKitError, OSError, ValueError, KeyError) as exc:
        import json

        message = exc.args[0] if exc.args and isinstance(exc.args[0], str) else str(exc)
        if isinstance(exc, SampleMismatch):  # the scores or predictions against the truth
            message = f"{cfg.scores or cfg.predictions} and {cfg.annotations}: {message}"
        sys.stderr.write(json.dumps({"error": message}) + "\n")
        return 2
    finally:
        for path, source in cfg.inputs_read.values():
            if source != path:
                os.unlink(source)


if __name__ == "__main__":
    sys.exit(main())
