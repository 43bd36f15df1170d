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
        # None is a setting: the config file the settings come from; option
        # name -> (path given, file holding the bytes read) of each file
        # read, the config file included; and option name -> digest of each
        # input digested before an output replaced it.
        self.config: str | None = None
        self.inputs_read: dict[str, tuple[str, str]] = {}
        self.digests: dict[str, str] = {}


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
    """Flags beat the config file, the config file beats defaults. A value
    out of range fails, naming the config file if it came from there."""
    file_values = _read(cfg, "config", _parse_config) if cfg.config else {}
    for name in _CONFIG_KEYS:
        flag_value = getattr(args, name, None)
        if flag_value is not None:
            setattr(cfg, name, flag_value)
            file_values.pop(name, None)
        elif name in file_values:
            setattr(cfg, name, file_values[name])

    def check(name: str, valid: bool, message: str) -> None:
        if not valid:  # a value taken from the config file names the file
            where = f"config file {cfg.config}: " if name in file_values else ""
            raise LabelKitError(where + message)

    check("threshold", 0.0 <= cfg.threshold <= 1.0, f"threshold {cfg.threshold} outside [0, 1]")
    check("beta", 0.0 < cfg.beta < math.inf, f"beta must be positive and finite, got {cfg.beta}")
    check("similarity", 0.0 < cfg.similarity <= 1.0, f"similarity {cfg.similarity} outside (0, 1]")
    check("fp_mode", cfg.fp_mode in ("literal", "complement"),
          f"fp_mode must be literal or complement, got {cfg.fp_mode!r}")
    check("epsilon", 0.0 <= cfg.epsilon < math.inf,
          f"epsilon must be nonnegative and finite, got {cfg.epsilon}")
    check("which", cfg.which in ("and", "or", "both"),
          f"which must be and, or, or both, got {cfg.which!r}")
    check("threads", cfg.threads >= 0, f"threads must be nonnegative, got {cfg.threads}")
    check("thresholds", cfg.thresholds != [], "empty sweep")
    for value in cfg.thresholds or ():
        check("thresholds", 0.0 <= value <= 1.0, f"sweep threshold {value} outside [0, 1]")


def _provenance(cfg: RunConfig) -> dict:
    from .reports import file_digest, provenance

    knobs = {name: getattr(cfg, name) for name in _SETTINGS if name not in _NOT_KNOBS}
    # The config file's settings are listed as knobs, not the file itself.
    inputs = {
        name: (path, cfg.digests.get(name) or file_digest(source))
        for name, (path, source) in sorted(cfg.inputs_read.items()) if name != "config"
    }
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


def _output(cfg: RunConfig, out, write, *args, done: str | None = None) -> None:
    """The one way a command writes a report: the stream writer ``write``,
    such as ``write_sweep`` or ``dump_json``, writes it as it is produced to
    stdout when ``out`` is None, or else into the atomic write of the file
    ``out``, after which ``done`` is printed. An input that the file
    replaces is digested first, so provenance lists the bytes parsed."""
    from .reports import file_digest, write_file

    if out is None:
        write(*args, sys.stdout)
        return
    if os.path.exists(out):
        for name, (_, source) in cfg.inputs_read.items():
            if os.path.samefile(out, source):
                cfg.digests[name] = file_digest(source)
    write_file(out, write, *args)
    if done:
        print(done)


def _write_report(cfg: RunConfig, before: str | None, doc: dict, out, after: str | None) -> None:
    """Stamp ``doc`` with the provenance of the files ``cfg`` read, print
    ``before``, then write ``doc`` as a JSON report to stdout, or to the
    file ``out`` and print ``after`` (by default, that ``out`` was written).
    :func:`main` calls this once the command has returned, so the command's
    parsed inputs are freed before any of them is digested."""
    from .reports import dump_json

    doc["provenance"] = _provenance(cfg)
    if before:
        print(before)
    _output(cfg, out, dump_json, doc, done=after or f"wrote {out}")


# ---------------------------------------------------------------------------
# One load order for every command: the settings (main), --labels and
# --category (_load_catalog), the inputs checked against the catalog alone,
# the annotations, the scores or predictions (_load_eval); then compute, then
# write. A bad small input fails before a large one is parsed or any output
# exists.


def _load_catalog(cfg: RunConfig, *required: str):
    """Check that --labels and the ``required`` inputs are given, then read
    the catalog and the label ids --category restricts to (None for every
    label). An unknown category fails here, before any other input is read."""
    from .catalog import parse_labels

    _require(cfg, "labels", *required)
    catalog = _read(cfg, "labels", parse_labels)
    return catalog, None if cfg.category is None else catalog.category_ids(cfg.category)


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


def _exclusion_groups(cfg: RunConfig, catalog):
    """The plan's exclusion groups, of which there must be at least one."""
    from .cleanse import load_plan

    groups = _read(cfg, "plan", load_plan, catalog, sections=("exclusion_groups",)).exclusion_groups
    if not groups:
        raise LabelKitError(f"{cfg.plan}: plan has no exclusion groups")
    return groups


def _load_eval(cfg: RunConfig, *required: str, relations=None, floor: float | None = None):
    """(scope, relations, truth, predictions, scores) of an eval command or
    sweep, which needs --annotations and the ``required`` inputs, read in the
    load order: --category's scope, ``relations(cfg, catalog)``, the truth,
    then the scores or predictions. An eval command takes exactly one of
    --predictions and --scores, kept from --threshold; sweep gives ``floor``
    and gets no predictions: it thresholds the scores itself."""
    from .catalog import parse_annotations
    from .metrics import parse_scores, threshold as binarize

    catalog, scope = _load_catalog(cfg, "annotations", *required)
    sweep = floor is not None
    if not sweep and (cfg.scores is None) == (cfg.predictions is None):
        raise LabelKitError("provide exactly one of --scores or --predictions")
    related = relations(cfg, catalog) if relations else None
    truth = _read(cfg, "annotations", parse_annotations, catalog)
    if cfg.scores is None:
        return scope, related, truth, _read(cfg, "predictions", parse_annotations, catalog), None
    scores = _read(cfg, "scores", parse_scores, catalog, at_least=floor if sweep else cfg.threshold)
    predictions = None if sweep else binarize(scores, cfg.threshold, truth.sample_ids())
    return scope, related, truth, predictions, scores


# ---------------------------------------------------------------------------
# Subcommands. One whose report carries provenance returns what
# :func:`_write_report` takes after ``cfg``: the line to print first, the
# report, the file it goes to (stdout when None), and the line to print once
# it is written. Files without provenance are written before it returns.


def cmd_inspect(cfg: RunConfig):
    from .catalog import compute_stats, parse_annotations

    catalog, _ = _load_catalog(cfg)
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
    from .cleanse import find_duplicates, write_duplicate_candidates

    catalog, _ = _load_catalog(cfg)
    pairs = find_duplicates(
        catalog,
        threshold=cfg.similarity,
        same_category_only=not cfg.cross_category,
        category=cfg.category,
    )
    print(f"{len(pairs)} duplicate candidates at similarity >= {cfg.similarity}")
    _output(cfg, cfg.out, write_duplicate_candidates, pairs, done=f"wrote {cfg.out}")


def cmd_hierarchy(cfg: RunConfig) -> None:
    from .cleanse import find_hierarchy_candidates, write_hierarchy_candidates

    catalog, _ = _load_catalog(cfg)
    candidates = find_hierarchy_candidates(catalog, category=cfg.category)
    print(f"{len(candidates)} hierarchy candidates")
    _output(cfg, cfg.out, write_hierarchy_candidates, candidates, done=f"wrote {cfg.out}")


def cmd_connectives(cfg: RunConfig):
    from .cleanse import classify_connectives, tally_as_dict
    from .textkit import Connective

    catalog, _ = _load_catalog(cfg)
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

    from .catalog import parse_annotations, write_annotations, write_labels
    from .cleanse import apply_plan, load_plan

    catalog, _ = _load_catalog(cfg, "annotations", "plan", "out")
    plan = _read(cfg, "plan", load_plan, catalog)
    annotations = _read(cfg, "annotations", parse_annotations, catalog)

    before_labels, before_samples = len(catalog), len(annotations)
    annotations, catalog = apply_plan(annotations, catalog, plan)

    out_dir = Path(cfg.out)
    _output(cfg, out_dir / "labels.csv", write_labels, catalog)
    _output(cfg, out_dir / "annotations.csv", write_annotations, annotations)
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


def cmd_graph(cfg: RunConfig):
    from pathlib import Path

    from .relgraph import graph_summary, write_edge_list

    catalog, _ = _load_catalog(cfg, "out")
    graph = _build_graph(cfg, catalog)
    out_dir = Path(cfg.out)
    _output(cfg, out_dir / "edges.txt", write_edge_list, graph, catalog)
    doc = graph_summary(graph)
    done = (
        f"graph: {doc['nodes']} nodes, {doc['edges']} edges, "
        f"{doc['components']} components; wrote {out_dir}"
    )
    return None, doc, out_dir / "graph.json", done


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

    scope, _, truth, predictions, _ = _load_eval(cfg)
    return _finish_eval(cfg, fbeta_report(predictions, truth, beta=cfg.beta, scope=scope))


def cmd_eval_graph(cfg: RunConfig):
    from .metrics import graph_fbeta_report

    scope, graph, truth, predictions, _ = _load_eval(cfg, relations=_build_graph)
    report = graph_fbeta_report(
        predictions, truth, graph, beta=cfg.beta, fp_mode=cfg.fp_mode, scope=scope
    )
    return _finish_eval(cfg, report)


def cmd_eval_or(cfg: RunConfig):
    from .metrics import or_aware_report

    scope, or_groups, truth, predictions, _ = _load_eval(
        cfg, relations=lambda cfg, catalog: _connective_relations(cfg, catalog, "or_groups")[0]
    )
    report = or_aware_report(predictions, truth, or_groups, beta=cfg.beta, scope=scope)
    return _finish_eval(cfg, report, extra={"or_groups": len(or_groups)})


def cmd_eval_excl(cfg: RunConfig):
    from .metrics import enforce_exclusion, fbeta_report

    scope, groups, truth, predictions, scores = _load_eval(cfg, "plan", relations=_exclusion_groups)
    predictions = enforce_exclusion(predictions, scores, groups)
    labels = frozenset().union(*groups)  # the exclusion labels, within --category
    if scope is not None:
        labels &= scope
    touched = lambda sid: bool(truth.labels_for(sid) & labels)  # noqa: E731
    report = fbeta_report(predictions, truth, beta=cfg.beta, scope=labels, sample_filter=touched)
    return _finish_eval(
        cfg, report, extra={"exclusion_groups": len(groups), "exclusion_labels": len(labels)}
    )


def cmd_sweep(cfg: RunConfig):
    from pathlib import Path

    from .metricmp import family_from_sweep, write_family
    from .metrics import default_threshold_grid, sweep, write_sweep

    grid = default_threshold_grid() if cfg.thresholds is None else cfg.thresholds
    relations = _build_graph if cfg.plan or cfg.graph_edges else None
    scope, graph, truth, _, scores = _load_eval(
        cfg, "scores", "out", relations=relations, floor=min(grid)
    )
    rows = sweep(scores, truth, grid, graph=graph, beta=cfg.beta, fp_mode=cfg.fp_mode, scope=scope)
    family = None if graph is None else family_from_sweep(rows)  # can fail, so before any write
    out_dir = Path(cfg.out)
    _output(cfg, out_dir / "sweep.csv", write_sweep, rows)
    if family is not None:
        _output(cfg, out_dir / "family.csv", write_family, family)
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
    except (LabelKitError, OSError) as exc:  # anything else is a bug: a traceback
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
