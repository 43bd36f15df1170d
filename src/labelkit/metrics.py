"""Multi-label scoring: flat F-beta reports, or-aware and graph-aware
variants, run-to-run deviation, and threshold sweeps.

Counts for the flat reports are plain integers. Per-sample graph values are
summed in ascending label order and their totals are correctly rounded
(``math.fsum``, or the exact integer sums of :func:`sweep`), so a report is
byte-identical across repeated runs and does not depend on sample order.
Scoring runs in one thread; the ``threads`` parameters are accepted for
compatibility and have no effect.

A parsed score set keeps each sample's scores as two columns in file order
(:class:`ScoreRow`: a list of the catalog's label ids and an ``array('d')``
of scores), the CSR sparse layout split by sample, rather than a dict per
sample. Readers use its mapping interface, which plain dicts share.
"""

from __future__ import annotations

import math
import shutil
import tempfile
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field, replace
from statistics import pstdev
from typing import IO, Callable, Iterable, Sequence

from .catalog import AnnotationSet, LabelCatalog, SampleTable
from .cleanse import OrGroup
from .csvio import CsvTable, csv_writer
from .errors import EvalError, ParseError
from .relgraph import RelationGraph

NAN = float("nan")

DEFAULT_BETA = 2.0
DEFAULT_DECISION_THRESHOLD = 0.1


# ---------------------------------------------------------------------------
# Scores and thresholding


class ScoreRow(Mapping):
    """One sample's scores as two columns in file order: ``labels`` holds the
    label ids (a parsed row shares the catalog's own int objects) and
    ``scores`` the matching scores as C doubles in an ``array('d')``. A cell
    costs an 8-byte list slot and an 8-byte double, about 24 bytes with each
    row's own overhead, where a dict entry and its float object cost about
    70. Lookups by label scan the column, which suits the few dozen labels a
    sample holds; :meth:`items` zips the two columns."""

    __slots__ = ("labels", "scores")

    def __init__(self) -> None:
        self.labels: list[int] = []
        self.scores = array("d")

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self) -> Iterator[int]:
        return iter(self.labels)

    def __getitem__(self, label_id: int) -> float:
        try:
            return self.scores[self.labels.index(label_id)]
        except ValueError:
            raise KeyError(label_id) from None

    def __setitem__(self, label_id: int, score: float) -> None:
        if label_id in self.labels:
            self.scores[self.labels.index(label_id)] = score
        else:
            self.labels.append(label_id)
            self.scores.append(score)

    def items(self) -> Iterator[tuple[int, float]]:
        return zip(self.labels, self.scores)


class ScoreSet(SampleTable):
    """Per-sample, per-label prediction scores in [0, 1], one :class:`ScoreRow`
    per sample. The constructor checks every cell of each sample's mapping and
    copies it into a new row; :func:`parse_scores` validates while reading and
    hands its rows over through :meth:`_trusted` instead. Readers go through
    the mapping interface, so a table adopted over plain dicts works too."""

    def _checked(self, sample_id: str, scores: Mapping[int, float]) -> ScoreRow:
        row = ScoreRow()
        for label_id, score in scores.items():
            if label_id not in self.known_labels:
                raise ValueError(f"sample {sample_id!r} scores unknown label id {label_id}")
            if not 0.0 <= score <= 1.0:
                raise ValueError(
                    f"sample {sample_id!r} label {label_id} score {score!r} outside [0, 1]"
                )
            row.labels.append(label_id)
            row.scores.append(score)
        return row

    def scores_for(self, sample_id: str) -> Mapping[int, float]:
        return self._index[sample_id]


def parse_scores(stream: IO[str], catalog: LabelCatalog) -> ScoreSet:
    """Read a score file with header id,attribute_id,score. Rows for one
    sample need not be contiguous; a repeated (sample, label) cell is a hard
    error because silently keeping either value would hide a producer bug.
    Every row is validated here, once, and errors name its physical line.

    Each sample's cells are appended to its :class:`ScoreRow` in file order;
    no per-sample dict is built, and each row does the same work whatever
    order the file is in. Repeated cells are looked for once the rows are
    read (or when a row fails, so the first error in the file is the one
    reported), one sample at a time; only when one is found is the file read
    again, to name its line. A stream that cannot seek is first copied to a
    temporary file for that."""
    source = getattr(stream, "name", "<scores>")
    if stream.seekable():
        return _parse_scores(stream, catalog, source)
    with tempfile.TemporaryFile(
        "w+", encoding="utf-8", errors="surrogatepass", newline=""
    ) as copy:
        shutil.copyfileobj(stream, copy)
        copy.seek(0)
        return _parse_scores(copy, catalog, source)


def _parse_scores(stream: IO[str], catalog: LabelCatalog, source: str) -> ScoreSet:
    start = stream.tell()
    table = CsvTable(stream, ("id", "attribute_id", "score"), source)
    # Each id maps to the catalog's own int object, so the parsed cells share
    # those few thousand ints instead of holding one new int per row.
    known = {label_id: label_id for label_id in catalog.ids()}
    samples: dict[str, ScoreRow] = {}
    try:
        for sid, raw_label, raw_score in table:
            try:
                number = int(raw_label)
            except ValueError:
                raise table.error(f"bad attribute id {raw_label!r}") from None
            label_id = known.get(number)
            if label_id is None:
                raise table.error(f"unknown label id {number}")
            try:
                score = float(raw_score)
            except ValueError:
                raise table.error(f"bad score {raw_score!r}") from None
            if not 0.0 <= score <= 1.0:  # NaN fails both comparisons, so it is rejected too
                raise table.error(f"score {score!r} outside [0, 1]")
            held = samples.get(sid)
            if held is None:
                samples[sid] = held = ScoreRow()
            held.labels.append(label_id)
            held.scores.append(score)
    except ParseError:
        _reject_duplicates(samples, stream, start, source)
        raise
    _reject_duplicates(samples, stream, start, source)
    return ScoreSet._trusted(samples, frozenset(known))


def _reject_duplicates(
    samples: dict[str, ScoreRow], stream: IO[str], start: int, source: str
) -> None:
    """Raise for the first repeated (sample, label) cell in file order among
    the rows read into ``samples``, naming its line as a check on each row
    would: the rows are read again from ``start`` up to that cell."""
    repeats = {}  # sample id -> index of its first repeated cell
    for sid, held in samples.items():
        labels = held.labels
        if len(set(labels)) < len(labels):
            seen: set[int] = set()
            for index, label_id in enumerate(labels):
                if label_id in seen:
                    repeats[sid] = index
                    break
                seen.add(label_id)
    if not repeats:
        return
    stream.seek(start)
    table = CsvTable(stream, ("id", "attribute_id"), source)
    counts = dict.fromkeys(repeats, 0)
    # Every row up to the repeated cell was valid when first read.
    for sid, _ in table:
        if sid in counts:
            if counts[sid] == repeats[sid]:
                label_id = samples[sid].labels[repeats[sid]]
                raise table.error(f"duplicate score for sample {sid!r}, label {label_id}")
            counts[sid] += 1


def threshold(
    scores: ScoreSet,
    decision_threshold: float,
    sample_ids: Iterable[str] | None = None,
) -> AnnotationSet:
    """Binarize scores into predictions; a label is on when its score is at
    least the threshold (inclusive, so threshold 0.0 predicts every scored
    label). The labels come from a validated score set, so only repeated
    ``sample_ids`` are checked."""
    _check_decision_threshold(decision_threshold)
    if sample_ids is None:
        wanted = scores.sample_ids()
    else:
        wanted = list(sample_ids)
        _require_scored(scores, wanted)
    predicted: dict[str, frozenset[int]] = {}
    for sid in wanted:
        if sid in predicted:
            raise ValueError(f"duplicate sample id {sid!r}")
        predicted[sid] = frozenset(
            label for label, score in scores.scores_for(sid).items() if score >= decision_threshold
        )
    return AnnotationSet._trusted(predicted, scores.known_labels)


def _check_decision_threshold(decision_threshold: float) -> None:
    if not 0.0 <= decision_threshold <= 1.0:
        raise ValueError(f"decision threshold {decision_threshold!r} outside [0, 1]")


def _require_scored(scores: ScoreSet, sample_ids: list[str]) -> None:
    missing = [sid for sid in sample_ids if sid not in scores]
    if missing:
        raise EvalError(
            f"score set has no rows for {len(missing)} requested samples "
            f"(first: {missing[0]!r})"
        )


def enforce_exclusion(
    predictions: AnnotationSet,
    scores: ScoreSet | None,
    groups: Sequence[frozenset[int]],
) -> AnnotationSet:
    """Keep at most one label per mutual-exclusion group per sample: the one
    with the highest score, ties to the lowest id. Without scores every
    candidate ties. Applying the result again changes nothing."""
    seen: set[int] = set()
    for group in groups:
        if not group:
            raise EvalError("empty exclusion group")
        clash = seen & group
        if clash:
            raise EvalError(f"label {min(clash)} appears in two exclusion groups")
        seen |= group

    def prune(sample_id: str, labels: frozenset[int]) -> frozenset[int]:
        row_scores = scores.scores_for(sample_id) if scores and sample_id in scores else {}
        dropped: set[int] = set()
        for group in groups:
            hits = labels & group
            if len(hits) < 2:
                continue
            keep = max(hits, key=lambda i: (row_scores.get(i, 0.0), -i))
            dropped |= hits - {keep}
        return labels - dropped if dropped else labels

    # Pruning only removes labels, so every row stays valid.
    return AnnotationSet._trusted(
        {sid: prune(sid, labels) for sid, labels in predictions}, predictions.known_labels
    )


# ---------------------------------------------------------------------------
# Reports


@dataclass
class MetricReport:
    """One evaluation's scores and the counts behind them.

    ``micro_f`` and friends are NaN when undefined (no true or predicted
    instance anywhere). Graph-based reports have no per-class decomposition,
    so their per-class fields stay empty and ``macro_f``/``micro_accuracy``
    are None.
    """

    kind: str
    beta: float
    micro_f: float
    macro_f: float | None
    micro_accuracy: float | None
    totals: dict[str, float]
    n_samples: int
    n_classes: int
    per_class_f: dict[int, float] = field(default_factory=dict)
    per_class_counts: dict[int, tuple[int, int, int]] = field(default_factory=dict)
    classes_nan: int = 0
    classes_zero: int = 0
    classes_positive: int = 0
    fp_mode: str | None = None

    def as_dict(self) -> dict:
        doc = {
            "kind": self.kind,
            "beta": self.beta,
            "micro_f": self.micro_f,
            "macro_f": self.macro_f,
            "micro_accuracy": self.micro_accuracy,
            "totals": dict(self.totals),
            "n_samples": self.n_samples,
            "n_classes": self.n_classes,
            "classes_nan": self.classes_nan,
            "classes_zero": self.classes_zero,
            "classes_positive": self.classes_positive,
            "per_class": {
                str(c): {
                    "f": self.per_class_f.get(c),
                    "tp": self.per_class_counts[c][0],
                    "fp": self.per_class_counts[c][1],
                    "fn": self.per_class_counts[c][2],
                }
                for c in sorted(self.per_class_counts)
            },
        }
        if self.fp_mode is not None:
            doc["fp_mode"] = self.fp_mode
        return doc


def fbeta(tp: float, fp: float, fn: float, beta: float) -> float:
    """F-beta from counts; NaN when nothing was true or predicted."""
    b2 = beta * beta
    denom = (1.0 + b2) * tp + b2 * fn + fp
    if denom == 0.0:
        return NAN
    return (1.0 + b2) * tp / denom


def _aligned_sample_ids(
    predictions: AnnotationSet,
    truth: AnnotationSet,
    sample_filter: Callable[[str], bool] | None,
) -> list[str]:
    truth_ids = truth.sample_ids()
    pred_set = set(predictions.sample_ids())
    truth_set = set(truth_ids)
    if pred_set != truth_set:
        missing = len(truth_set - pred_set)
        extra = len(pred_set - truth_set)
        raise EvalError(
            "prediction and truth sample ids differ "
            f"({missing} missing from predictions, {extra} extra)"
        )
    ids = sorted(truth_ids)
    if sample_filter is not None:
        ids = [sid for sid in ids if sample_filter(sid)]
    return ids


def _class_universe(known: frozenset[int], scope: Iterable[int] | None) -> list[int]:
    """Sorted class ids: ``scope`` if given (a subset of ``known``), else ``known``."""
    if scope is not None:
        classes = frozenset(scope)
        unknown = classes - known
        if unknown:
            raise EvalError(f"scope references unknown label ids {sorted(unknown)}")
        return sorted(classes)
    return sorted(known)


def _finish_flat_report(
    kind: str,
    beta: float,
    classes: list[int],
    tp: dict[int, int],
    fp: dict[int, int],
    fn: dict[int, int],
    n_samples: int,
) -> MetricReport:
    per_class_f: dict[int, float] = {}
    per_class_counts: dict[int, tuple[int, int, int]] = {}
    defined: list[float] = []
    n_nan = n_zero = n_pos = 0
    for c in classes:
        f = fbeta(tp[c], fp[c], fn[c], beta)
        per_class_f[c] = f
        per_class_counts[c] = (tp[c], fp[c], fn[c])
        if math.isnan(f):
            n_nan += 1
        else:
            defined.append(f)
            if f > 0.0:
                n_pos += 1
            else:
                n_zero += 1
    macro = math.fsum(defined) / len(defined) if defined else NAN
    total_tp = sum(tp.values())
    total_fp = sum(fp.values())
    total_fn = sum(fn.values())
    micro = fbeta(total_tp, total_fp, total_fn, beta)
    cells = n_samples * len(classes)
    accuracy = (cells - total_fp - total_fn) / cells if cells else NAN
    return MetricReport(
        kind=kind,
        beta=beta,
        micro_f=micro,
        macro_f=macro,
        micro_accuracy=accuracy,
        totals={"tp": total_tp, "fp": total_fp, "fn": total_fn},
        n_samples=n_samples,
        n_classes=len(classes),
        per_class_f=per_class_f,
        per_class_counts=per_class_counts,
        classes_nan=n_nan,
        classes_zero=n_zero,
        classes_positive=n_pos,
    )


def fbeta_report(
    predictions: AnnotationSet,
    truth: AnnotationSet,
    beta: float = DEFAULT_BETA,
    scope: Iterable[int] | None = None,
    sample_filter: Callable[[str], bool] | None = None,
) -> MetricReport:
    """Flat per-class F-beta over exactly matching sample ids: the or-aware
    report with no or-groups.

    ``scope`` restricts the class universe (labels outside it are ignored on
    both sides); ``sample_filter`` keeps only sample ids it accepts.
    """
    report = or_aware_report(predictions, truth, (), beta, scope, sample_filter)
    return replace(report, kind="flat")


def or_aware_report(
    predictions: AnnotationSet,
    truth: AnnotationSet,
    or_groups: Sequence[OrGroup],
    beta: float = DEFAULT_BETA,
    scope: Iterable[int] | None = None,
    sample_filter: Callable[[str], bool] | None = None,
) -> MetricReport:
    """Flat report, except a true disjunctive label is satisfied by
    predicting the label itself or any of its alternatives, in scope or not.
    False positives are unchanged: predicting a disjunction nothing supports
    still costs."""
    ids = _aligned_sample_ids(predictions, truth, sample_filter)
    classes = _class_universe(predictions.known_labels | truth.known_labels, scope)
    class_set = frozenset(classes)
    satisfiers = {g.source: frozenset(g.members) | {g.source} for g in or_groups}
    tp = {c: 0 for c in classes}
    fp = {c: 0 for c in classes}
    fn = {c: 0 for c in classes}
    for sid in ids:
        t = truth.labels_for(sid) & class_set
        p_raw = predictions.labels_for(sid)
        p = p_raw & class_set
        hits = t & p
        if satisfiers:
            hits |= {c for c in t - p if c in satisfiers and p_raw & satisfiers[c]}
        for c in hits:
            tp[c] += 1
        for c in t - hits:
            fn[c] += 1
        for c in p - t:
            fp[c] += 1
    return _finish_flat_report("or_aware", beta, classes, tp, fp, fn, len(ids))


def deviation_report(reports: Sequence[MetricReport]) -> dict:
    """Run-to-run spread of repeated evaluations (population standard
    deviation, so two runs scoring 0 and 1 deviate by exactly 0.5).

    Per-class spread is only meaningful for classes defined in every run;
    classes undefined somewhere are counted, not averaged.
    """
    if len(reports) < 2:
        raise EvalError("deviation needs at least two runs")
    kinds = {r.kind for r in reports}
    if len(kinds) > 1:
        raise EvalError(f"cannot mix report kinds {sorted(kinds)}")

    def spread(values: list[float]) -> float | None:
        usable = [v for v in values if v is not None and not math.isnan(v)]
        if len(usable) < 2:
            return None
        return pstdev(usable)

    micro_std = spread([r.micro_f for r in reports])
    macro_std = spread([r.macro_f for r in reports])

    per_class_std: dict[int, float] = {}
    skipped = 0
    shared = set(reports[0].per_class_f)
    for r in reports[1:]:
        shared &= set(r.per_class_f)
    for c in sorted(shared):
        values = [r.per_class_f[c] for r in reports]
        if any(math.isnan(v) for v in values):
            skipped += 1
            continue
        per_class_std[c] = pstdev(values)
    mean_class_std = (
        math.fsum(per_class_std.values()) / len(per_class_std) if per_class_std else None
    )
    return {
        "runs": len(reports),
        "kind": reports[0].kind,
        "micro_f_std": micro_std,
        "macro_f_std": macro_std,
        "mean_class_std": mean_class_std,
        "classes_compared": len(per_class_std),
        "classes_skipped": skipped,
        "per_class_std": {str(c): v for c, v in sorted(per_class_std.items())},
    }


# ---------------------------------------------------------------------------
# Graph-aware report


def _check_graph_args(fp_mode: str, threads: int) -> None:
    if fp_mode not in ("literal", "complement"):
        raise EvalError(f"unknown fp_mode {fp_mode!r}")
    if threads < 1:
        raise EvalError(f"threads must be positive, got {threads}")


def _add_prediction(
    pred: int, labels: list[int], label_best: list[float], graph: RelationGraph
) -> float:
    """Credit one prediction against a sample's true ``labels``: raise each
    label's best credit in ``label_best`` and return the prediction's own
    best credit. Graph distance is symmetric, so one lookup serves both."""
    best = 0.0
    for j, label in enumerate(labels):
        credit = 1.0 / (graph.distance(label, pred) + 1.0)
        if credit > label_best[j]:
            label_best[j] = credit
        if credit > best:
            best = credit
    return best


def _graph_counts(
    label_best: list[float], pred_best: list[float], fp_mode: str
) -> tuple[float, float, float]:
    """One sample's (tp, fp, fn) from the best credits of its true labels and
    of its predictions, each list in ascending label order. Both sums run in
    that order, so every caller gets the same floats for the same sets."""
    tp = 0.0
    for credit in label_best:
        tp += credit
    matched = 0.0
    for credit in pred_best:
        matched += credit
    fp = matched if fp_mode == "literal" else len(pred_best) - matched
    return tp, fp, len(label_best) - tp


def graph_fbeta_report(
    predictions: AnnotationSet,
    truth: AnnotationSet,
    graph: RelationGraph,
    beta: float = DEFAULT_BETA,
    fp_mode: str = "literal",
    scope: Iterable[int] | None = None,
    sample_filter: Callable[[str], bool] | None = None,
    threads: int = 1,
) -> MetricReport:
    """F-beta with graph partial credit: a true label earns 1/(d+1) for the
    nearest prediction, so an adjacent guess is worth half a hit.

    ``fp_mode`` picks how predictions are charged: "literal" charges each
    prediction its best credit toward any true label (a historical reading
    under which even a perfect prediction pays), "complement" charges the
    credit shortfall, which reduces to the flat report on an edgeless graph.

    Each sample's credits are summed in ascending label order and the
    per-sample tuples are totalled with ``math.fsum``, which rounds
    correctly, so the totals do not depend on sample order. ``threads`` is
    accepted for compatibility and must be positive; it has no effect.
    """
    _check_graph_args(fp_mode, threads)
    ids = _aligned_sample_ids(predictions, truth, sample_filter)
    classes = _class_universe(predictions.known_labels | truth.known_labels, scope)
    class_set = frozenset(classes)
    rows = []
    for sid in ids:
        labels = sorted(truth.labels_for(sid) & class_set)
        label_best = [0.0] * len(labels)
        pred_best = [
            _add_prediction(pred, labels, label_best, graph)
            for pred in sorted(predictions.labels_for(sid) & class_set)
        ]
        rows.append(_graph_counts(label_best, pred_best, fp_mode))
    total_tp = math.fsum(r[0] for r in rows)
    total_fp = math.fsum(r[1] for r in rows)
    total_fn = math.fsum(r[2] for r in rows)
    micro = fbeta(total_tp, total_fp, total_fn, beta)
    return MetricReport(
        kind="graph",
        beta=beta,
        micro_f=micro,
        macro_f=None,
        micro_accuracy=None,
        totals={"tp": total_tp, "fp": total_fp, "fn": total_fn},
        n_samples=len(ids),
        n_classes=len(classes),
        fp_mode=fp_mode,
    )


# ---------------------------------------------------------------------------
# Threshold sweeps

# Every finite float is an integer multiple of 2**-1074, the smallest
# subnormal, so sums in that unit are exact.
_EXACT_BITS = 1074
_EXACT_ONE = 1 << _EXACT_BITS


def _exact(value: float) -> int:
    """``value`` in units of 2**-1074, exactly."""
    num, den = value.as_integer_ratio()
    return num << (_EXACT_BITS + 1 - den.bit_length())


def default_threshold_grid(
    n: int = 64, lo: float = 0.0025, hi: float = 0.5
) -> list[float]:
    """Log-spaced decision thresholds from lo to hi inclusive."""
    if n < 2 or not 0.0 < lo < hi <= 1.0:
        raise ValueError("need n >= 2 and 0 < lo < hi <= 1")
    ratio = hi / lo
    grid = [lo * ratio ** (i / (n - 1)) for i in range(n - 1)]
    grid.append(hi)
    return grid


def _graph_sweep_steps(
    t: frozenset[int],
    entering: dict[int, list[int]],
    graph: RelationGraph,
    fp_mode: str,
    steps: list[list[int]],
) -> None:
    """Add one sample's graph (tp, fp, fn) to ``steps`` as exact changes:
    at the last index its values with nothing predicted, at index i the
    change when the predictions ``entering[i]`` join at grid point i."""
    labels = sorted(t)
    label_best = [0.0] * len(labels)
    preds: list[int] = []
    pred_best: list[float] = []
    before = (0, 0, 0)
    for i in (len(steps) - 1, *sorted(entering, reverse=True)):
        for pred in entering.get(i, ()):
            at = bisect_left(preds, pred)
            preds.insert(at, pred)
            pred_best.insert(at, _add_prediction(pred, labels, label_best, graph))
        after = tuple(_exact(v) for v in _graph_counts(label_best, pred_best, fp_mode))
        step = steps[i]
        for j in range(3):
            step[j] += after[j] - before[j]
        before = after


def sweep(
    scores: ScoreSet,
    truth: AnnotationSet,
    thresholds: Sequence[float] | None = None,
    graph: RelationGraph | None = None,
    beta: float = DEFAULT_BETA,
    fp_mode: str = "literal",
    scope: Iterable[int] | None = None,
    threads: int = 1,
) -> list[dict]:
    """Evaluate a score set at each decision threshold, reading each score
    row once.

    Each row carries the flat micro/macro scores and, when a graph is given,
    the graph micro score, so metric families for consistency comparison can
    be read straight off the sweep. Rows and errors are those of
    thresholding at each grid point and running :func:`fbeta_report` and
    :func:`graph_fbeta_report` on the result; ``threads`` has no effect.

    A score row is predicted at every grid point up to the highest one it
    reaches (``bisect_right``: thresholding is inclusive). Walking the grid
    from high to low, per-class tallies of those positions give the flat
    counts, and a sample's graph values are recomputed only where its
    predictions grow. Graph totals are exact integer sums, which round to
    the same floats as ``math.fsum``.
    """
    grid = sorted(thresholds) if thresholds is not None else default_threshold_grid()
    if not grid:
        return []
    _check_decision_threshold(grid[0])
    truth_ids = truth.sample_ids()
    _require_scored(scores, truth_ids)
    classes = _class_universe(scores.known_labels | truth.known_labels, scope)
    if graph is not None:
        _check_graph_args(fp_mode, threads)
    for t in grid:
        _check_decision_threshold(t)
    class_set = frozenset(classes)
    n = len(grid)
    # Per grid index: the labels first predicted there, split by truth, and
    # the exact change of the graph totals; index n holds the graph totals
    # with nothing predicted.
    hits: list[list[int]] = [[] for _ in range(n)]
    misses: list[list[int]] = [[] for _ in range(n)]
    graph_steps = [[0, 0, 0] for _ in range(n + 1)]
    fn = dict.fromkeys(classes, 0)
    for sid in truth_ids:
        t = truth.labels_for(sid) & class_set
        for label in t:
            fn[label] += 1
        entering: dict[int, list[int]] = {}
        for label, score in scores.scores_for(sid).items():
            if label in class_set:
                i = bisect_right(grid, score) - 1
                if i >= 0:
                    (hits if label in t else misses)[i].append(label)
                    entering.setdefault(i, []).append(label)
        if graph is not None:
            _graph_sweep_steps(t, entering, graph, fp_mode, graph_steps)

    tp = dict.fromkeys(classes, 0)
    fp = dict.fromkeys(classes, 0)
    graph_totals = graph_steps[n]
    rows: list[dict] = []
    for i in range(n - 1, -1, -1):
        for label in hits[i]:
            tp[label] += 1
            fn[label] -= 1
        for label in misses[i]:
            fp[label] += 1
        flat = _finish_flat_report("flat", beta, classes, tp, fp, fn, len(truth_ids))
        row = {
            "threshold": grid[i],
            "flat_micro_f": flat.micro_f,
            "flat_macro_f": flat.macro_f,
            "micro_accuracy": flat.micro_accuracy,
        }
        if graph is not None:
            graph_totals = [a + b for a, b in zip(graph_totals, graph_steps[i])]
            row["graph_micro_f"] = fbeta(*(v / _EXACT_ONE for v in graph_totals), beta)
        rows.append(row)
    rows.reverse()
    return rows


def write_sweep(rows: Sequence[dict], stream: IO[str]) -> None:
    if not rows:
        raise EvalError("empty sweep")
    fields = list(rows[0].keys())
    writer = csv_writer(stream)
    writer.writerow(fields)
    for row in rows:
        writer.writerow([repr(row[f]) if isinstance(row[f], float) else row[f] for f in fields])
