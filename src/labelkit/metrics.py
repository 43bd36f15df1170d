"""Multi-label scoring: flat F-beta reports, or-aware and graph-aware
variants, and threshold sweeps.

Counts for the flat reports are plain integers. The graph reports credit a
prediction from its distance ball in the graph's ball table: one walk over
the smaller of the ball and the sample's true labels, with no per-pair
distance lookup. A prediction with no edge needs no ball: it earns full
credit when it is a true label and none otherwise. One helper credits each
sample for both :func:`graph_fbeta_report` (a sweep with one grid point)
and :func:`sweep`. Per-sample graph values are summed left to right in
ascending label order and their totals are exact integer sums, correctly
rounded, so a report is byte-identical across repeated runs and Python
versions and does not depend on sample order. Scoring runs in one thread;
:func:`graph_fbeta_report` accepts ``threads`` for compatibility, and it
has no effect.

A score set is one compressed sparse row (CSR) table (:class:`ScoreSet`):
two C arrays hold every kept cell, an array of positions in the catalog's
ascending id list (its labels dictionary-encoded: 2-byte ``array('H')``
for a catalog of up to 65,536 labels, 4-byte ``array('I')`` past that) and
an ``array('d')`` of scores, grouped by sample behind an ``array('I')`` of
per-sample offsets. A sample's :class:`ScoreRow` is built over its cells
only when it is read (late materialization); readers use its mapping
interface. A plain score file is parsed in blocks, a column at a time; any
other is parsed a row at a time, and only that path reports errors
(:func:`parse_scores`). Every cell is validated, but a parse given a floor
keeps only the cells scored at least that, the ones a decision threshold
at or above it can predict (predicate pushdown, as in column stores:
Abadi et al., "Materialization Strategies in a Column-Oriented DBMS",
ICDE 2007); the set refuses any cut below its floor.

Predictions are not stored (late materialization, as in column stores):
:func:`threshold` and :func:`enforce_exclusion` return a
:class:`PredictionView` that computes a sample's labels when it is read.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from collections.abc import Collection, Iterator, Mapping
from dataclasses import dataclass, field, replace
from itertools import accumulate, chain, compress, count, islice, repeat
from operator import ge, ne, not_, sub
from typing import IO, TYPE_CHECKING, Callable, Iterable, Sequence

from .catalog import AnnotationSet, LabelCatalog, SampleTable
from .csvio import CsvTable, csv_writer, plain_blocks
from .defaults import DEFAULT_BETA
from .errors import EvalError, ParseError, SampleMismatch

if TYPE_CHECKING:
    from .cleanse import OrGroup
    from .relgraph import RelationGraph

NAN = float("nan")


# ---------------------------------------------------------------------------
# Scores and thresholding


class ScoreRow(Mapping):
    """One sample's scores as two C arrays in file order, built when a
    sample of a :class:`ScoreSet` is read: ``positions`` holds each label's
    position in ``ids``, the ascending list of label ids that the whole
    score set shares (a parsed set shares the catalog's own int objects),
    as 2-byte unsigned ints in an ``array('H')`` (4-byte ``array('I')``
    past 65,536 labels), and ``scores`` the matching scores as C doubles in
    an ``array('d')``. Iteration and :meth:`items` map the positions back
    through ``ids``, so readers get the label ids; :meth:`labels_at_least`
    looks at the scores first and maps only the positions it keeps. A
    lookup by label bisects ``ids`` and scans the positions, which suits the
    few dozen labels a sample holds."""

    __slots__ = ("ids", "positions", "scores")

    def __init__(self, ids: list[int], positions: array, scores: array) -> None:
        self.ids, self.positions, self.scores = ids, positions, scores

    def __len__(self) -> int:
        return len(self.positions)

    def __iter__(self) -> Iterator[int]:
        return map(self.ids.__getitem__, self.positions)

    def __getitem__(self, label_id: int) -> float:
        ids = self.ids
        try:
            at = bisect_left(ids, label_id)
            if ids[at] == label_id:
                return self.scores[self.positions.index(at)]
        except (IndexError, TypeError, ValueError):  # past the end, not an id, not scored
            pass
        raise KeyError(label_id)

    def items(self) -> Iterator[tuple[int, float]]:
        return zip(map(self.ids.__getitem__, self.positions), self.scores)

    def labels_at_least(self, cut: float) -> Iterator[int]:
        """The labels scored at least ``cut``, in row order."""
        kept = compress(self.positions, map(ge, self.scores, repeat(cut)))
        return map(self.ids.__getitem__, kept)


class ScoreSet(SampleTable):
    """Per-sample, per-label prediction scores in [0, 1], held as one
    compressed sparse row (CSR) table. ``_positions`` (each cell's position
    in ``_ids``, the ascending label ids: an ``array('H')``, or an
    ``array('I')`` past 65,536 labels) and ``_scores`` (an ``array('d')``)
    hold every kept cell, 10 bytes each (12 past 65,536 labels). Whatever
    order a file's rows came in, sample ``k``'s cells, in file order, are
    the slice from ``_offsets[k]`` up to ``_offsets[k + 1]`` of both, and
    ``_index`` maps each sample id to its ``k``, the value it stores. A
    sample costs about 60 bytes more: its index entry, ordinal and offset.
    It reads as a :class:`ScoreRow` over its slice, built each time it is
    read, by :meth:`scores_for` and iteration alike.

    ``floor`` is the lowest cut the set can answer: one parsed with
    ``at_least`` keeps only the cells scored at least that, so
    :func:`threshold` and :func:`sweep` refuse a cut below it. A sample
    whose cells all fall below the floor is kept, with none. A set built
    from mappings keeps every cell, and its floor is 0.0.

    The constructor checks every cell of each sample's mapping and appends
    it to the table; :func:`parse_scores` validates while reading and hands
    its table over through :meth:`_trusted` instead."""

    def __init__(
        self, samples: Iterable[tuple[str, Mapping[int, float]]], known_labels: Iterable[int]
    ):
        known_labels = frozenset(known_labels)
        self._ids = sorted(known_labels)
        self._offsets, self._scores = array("I", [0]), array("d")
        self._positions = _position_column(len(self._ids))
        self.floor = 0.0
        super().__init__(samples, known_labels)

    @classmethod
    def _trusted(
        cls,
        index: dict[str, int],
        known_labels: frozenset[int],
        ids: list[int],
        offsets: array,
        positions: array,
        scores: array,
        floor: float = 0.0,
    ) -> ScoreSet:
        """Adopt a validated table as it is: ``index`` maps each sample id
        to its ordinal, in ordinal order, and the arrays are the table's
        columns, none of them copied."""
        self = super()._trusted(index, known_labels)
        self._ids, self._offsets = ids, offsets
        self._positions, self._scores, self.floor = positions, scores, floor
        return self

    def _checked(self, sample_id: str, scores: Mapping[int, float]) -> int:
        for label_id, score in scores.items():
            if label_id not in self.known_labels:
                raise ValueError(f"sample {sample_id!r} scores unknown label id {label_id}")
            if not 0.0 <= score <= 1.0:
                raise ValueError(
                    f"sample {sample_id!r} label {label_id} score {score!r} outside [0, 1]"
                )
            self._positions.append(bisect_left(self._ids, label_id))
            self._scores.append(score)
        self._offsets.append(len(self._positions))
        return len(self._index)

    def _read(self, sample_id: str, ordinal: int) -> ScoreRow:
        cells = slice(self._offsets[ordinal], self._offsets[ordinal + 1])
        return ScoreRow(self._ids, self._positions[cells], self._scores[cells])

    scores_for = SampleTable._lookup


_SCORE_COLUMNS = ("id", "attribute_id", "score")


def _position_column(n_labels: int) -> array:
    """An empty column of positions in a list of ``n_labels`` label ids:
    2-byte ``array('H')`` while every position fits (at most 65,536 labels),
    4-byte ``array('I')`` past that. Only the catalog's size decides, so no
    append can overflow."""
    return array("H" if n_labels <= 1 << 16 else "I")


def parse_scores(stream: IO[str], catalog: LabelCatalog, at_least: float = 0.0) -> ScoreSet:
    """Read a score file with header id,attribute_id,score. Rows for one
    sample need not be contiguous; a repeated (sample, label) cell is a hard
    error because silently keeping either value would hide a producer bug.
    Every row is validated here, once, and errors name its physical line.

    Only the cells scored at least ``at_least`` (in [0, 1]) are kept, so a
    set read for one decision threshold holds just the cells that threshold
    can predict (predicate pushdown); ``at_least`` becomes the set's
    ``floor``. The rest are still validated, repeats included, so what a
    file is rejected for does not depend on ``at_least``.

    A plain file is read in blocks of whole lines (:func:`csvio.plain_blocks`)
    that are checked and converted a column at a time. A file with a quote,
    CR, NUL or blank line anywhere, an id cell not in canonical form (" 5",
    "05") or any invalid row is read again from its start one row at a time.
    Only that row loop raises errors, so each keeps its message, its line and
    its place in file order.

    Both readers append the cells to one :class:`_Cells` table, a block of
    rows at a time, which looks for repeated cells while reading; a repeated
    cell before a failing row is the error reported. Only when one is found
    is the file read again, to name its line. A file whose rows are not
    grouped by sample is also read again from its start when a sample comes
    back after a cell was dropped, this time keeping every cell's position
    until the check has run. The re-reads need a stream that can seek."""
    _check_decision_threshold(at_least, "at_least")
    source = getattr(stream, "name", "<scores>")
    start = stream.tell()
    # The table shares the catalog's ascending id list, whose int objects are
    # the catalog's own, and stores positions in it. An id cell in canonical
    # form (str(id)) resolves to its position in one lookup; any other
    # spelling (" 5", "05", "٥") goes through int(), which accepts or rejects it.
    ids = [record.id for record in catalog]
    known = catalog.ids()
    position = {label_id: at for at, label_id in enumerate(ids)}
    by_text = {str(label_id): at for label_id, at in position.items()}
    plain = True
    for grouped in (True, False):
        try:
            if plain:
                cells = _Cells(len(ids), at_least, grouped)
                plain = _read_blocks(stream, by_text, cells)
            if not plain:
                stream.seek(start)
                cells = _Cells(len(ids), at_least, grouped)
                try:
                    _read_rows(CsvTable(stream, _SCORE_COLUMNS, source), position, by_text, cells)
                except ParseError:  # a repeated cell before the failing row comes first
                    _reject_repeats(stream, start, source, cells.repeated())
                    raise
            break
        except _Regroup:  # read again, keeping every cell's position
            if plain:  # the row loop goes back to the start itself
                stream.seek(start)
    _reject_repeats(stream, start, source, cells.repeated())
    return cells.table(ids, known)


class _Regroup(Exception):
    """A sample came back after one of the file's cells was dropped: looking
    for repeats needs every cell's position, so the file is read again,
    keeping them."""


class _Cells:
    """The cells of a score file as it is read, a block of rows at a time:
    each is checked for a repeat of its sample's earlier cells, and both
    columns of those scored at least ``at_least`` are kept, grouped by
    sample, each sample's in file order.

    While no sample id comes back after another sample's rows (``grouped``),
    a block costs a few steps per sample, each done in C over its cells: a
    row whose id differs from the row before begins a sample, whose run is
    checked for a repeated position (the run a block ends in is carried into
    the next), and only the kept cell it begins at is recorded. From the
    first block where a sample comes back (a file sorted by label, or
    shuffled), or from the start when not ``grouped``, each kept cell's
    sample ordinal is kept, and each dropped cell's ordinal and position,
    for :meth:`repeated` and :meth:`table` to group by sample. A sample
    that comes back after a cell was dropped raises :class:`_Regroup`, as
    that cell is gone."""

    def __init__(self, n_labels: int, at_least: float, grouped: bool) -> None:
        # Sample id -> ordinal, by first appearance: looking up a new id
        # gives it the next ordinal, in C, until :meth:`table` hands it over.
        self.index: defaultdict[str, int] = defaultdict()
        self.index.default_factory = self.index.__len__
        self.at_least = at_least
        self.positions, self.scores = _position_column(n_labels), array("d")
        self.cells_read = 0  # kept or not
        self._starts = array("I")  # the kept cell each sample begins at
        self._run: set[int] = set()  # the positions of the last sample's run so far
        self._repeats: set[str] = set()  # the samples of the first block with a repeat
        self._last: str | None = None  # the sample id of the last row
        self._ordinals = None if grouped else array("I")  # each kept cell's sample, once not
        self._dropped = (array("I"), _position_column(n_labels))  # ordinals, positions

    def extend(self, sids: list[str], positions: list[int], scores: list[float]) -> None:
        """Append one block of rows, given as columns."""
        if not sids:
            return
        # None keeps every cell: at floor 0.0 no valid score falls below it.
        keep = list(map(ge, scores, repeat(self.at_least))) if self.at_least else None
        base = len(self.positions)
        index = self.index
        if self._ordinals is None:
            begins = list(compress(count(), map(ne, sids, chain((self._last,), sids))))
            fresh = dict.fromkeys(map(sids.__getitem__, begins))
            if len(fresh) == len(begins) and index.keys().isdisjoint(fresh):
                # One slice per run; the first continues the last block's.
                bounds = [0, *begins, len(sids)]
                runs = list(map(slice, bounds, islice(bounds, 1, None)))
                if not self._repeats:
                    self._check_runs(sids, positions, runs)
                if keep is None:
                    self._starts.extend(map(base.__add__, begins))
                else:
                    kept = map(sum, map(keep.__getitem__, runs))
                    self._starts.extend(islice(accumulate(kept, initial=base), 1, len(runs)))
                index.update(zip(fresh, count(len(index))))
                self._last = sids[-1]
                self._keep(positions, scores, keep)
                return
            if base < self.cells_read:
                raise _Regroup
            # A sample comes back: number the sample of every cell read so far.
            runs = map(sub, chain(islice(self._starts, 1, None), (base,)), self._starts)
            self._ordinals = array("I", chain.from_iterable(map(repeat, count(), runs)))
        ordinals = list(map(index.__getitem__, sids))
        if keep is None or all(keep):
            self._ordinals.fromlist(ordinals)
        else:
            self._ordinals.fromlist(list(compress(ordinals, keep)))
            dropped = list(map(not_, keep))
            self._dropped[0].fromlist(list(compress(ordinals, dropped)))
            self._dropped[1].fromlist(list(compress(positions, dropped)))
        self._keep(positions, scores, keep)

    def _keep(self, positions: list[int], scores: list[float], keep: list[bool] | None) -> None:
        self.cells_read += len(positions)
        if keep is not None:
            positions, scores = list(compress(positions, keep)), list(compress(scores, keep))
        self.positions.fromlist(positions)
        self.scores.fromlist(scores)

    def _check_runs(self, sids: list[str], positions: list[int], runs: list[slice]) -> None:
        """Look for a repeated position in each run of a grouped block, the
        first continuing the run the last block ended in; on finding one,
        record the block's samples for :func:`_reject_repeats`."""
        pieces = list(map(positions.__getitem__, runs))
        if sum(map(len, map(set, pieces))) < len(positions) or not self._run.isdisjoint(pieces[0]):
            self._repeats = set(sids)
        if len(pieces) > 1:
            self._run = set(pieces[-1])
        else:
            self._run.update(pieces[0])

    def repeated(self) -> set[str]:
        """The samples to look among for the first repeated cell; none when
        no cell is repeated. While grouped, those of the first block with a
        repeat; otherwise each sample that repeats a cell, found once the
        dropped positions (then freed) and the kept ones are grouped."""
        if self._ordinals is None:
            return self._repeats
        n_samples = len(self.index)
        ordinals, below = self._dropped
        self._dropped = None  # freed before the kept columns are grouped
        below_starts = _sample_offsets(ordinals, n_samples)
        below = _by_sample(ordinals, below, below_starts)
        del ordinals
        self._starts = starts = _sample_offsets(self._ordinals, n_samples)
        self.positions = positions = _by_sample(self._ordinals, self.positions, starts)
        kept_runs = map(slice, starts, islice(starts, 1, None))
        dropped_runs = map(slice, below_starts, islice(below_starts, 1, None))
        repeats = set()
        for sid, kept, dropped in zip(self.index, kept_runs, dropped_runs):
            run = [*positions[kept], *below[dropped]]
            if len(set(run)) < len(run):
                repeats.add(sid)
        return repeats

    def table(self, ids: list[int], known_labels: frozenset[int]) -> ScoreSet:
        """The kept cells as a score set over the ascending ``ids``, their
        scores grouped as :meth:`repeated` grouped their positions."""
        self.index.default_factory = None  # a lookup of an unknown id fails again
        if self._ordinals is None:
            self._starts.append(len(self.positions))
        else:
            self.scores = _by_sample(self._ordinals, self.scores, self._starts)
        return ScoreSet._trusted(
            self.index, known_labels, ids, self._starts, self.positions, self.scores,
            self.at_least,
        )


def _sample_offsets(ordinals: array, n_samples: int) -> array:
    """The CSR offsets of samples 0 to ``n_samples - 1``, one cell an ordinal."""
    counts = Counter(ordinals)
    return array("I", accumulate(map(counts.__getitem__, range(n_samples)), initial=0))


def _by_sample(ordinals: array, values: array, offsets: array) -> array:
    """``values``, one per ordinal, grouped behind ``offsets`` by a stable
    counting sort into a new array of their type."""
    slots = array(values.typecode, [0]) * len(values)
    free = offsets.tolist()  # each sample's next free slot
    for ordinal, value in zip(ordinals, values):
        at = free[ordinal]
        free[ordinal] = at + 1
        slots[at] = value
    return slots


def _read_blocks(stream: IO[str], by_text: dict[str, int], cells: _Cells) -> bool:
    """Append the cells of a plain score file to ``cells``, a block at a
    time; False at the first block that is not plain or holds a cell that is
    not a canonical known id or a score in [0, 1], or that cannot be read at
    all."""
    try:
        for sids, raw_labels, raw_scores in plain_blocks(stream, _SCORE_COLUMNS):
            positions = list(map(by_text.get, raw_labels))
            scores = list(map(float, raw_scores))
            total = sum(scores)  # NaN if any score is NaN
            if None in positions or total != total or min(scores) < 0.0 or max(scores) > 1.0:
                return False
            cells.extend(sids, positions, scores)
    except ValueError:  # not plain CSV, a bad score or an undecodable byte
        return False
    return True


_ROW_BATCH = 1024  # rows the row loop appends to its _Cells at a time


def _read_rows(
    table: CsvTable, position: dict[int, int], by_text: dict[str, int], cells: _Cells
) -> None:
    """Append the rows of any score file to ``cells`` in batches, raising at
    the physical line of the first invalid row once the rows before it are
    appended."""
    sids: list[str] = []
    positions: list[int] = []
    scores: list[float] = []
    try:
        for sid, raw_label, raw_score in table:
            at = by_text.get(raw_label)
            if at is None:
                try:
                    number = int(raw_label)
                except ValueError:
                    raise table.error(f"bad attribute id {raw_label!r}") from None
                at = position.get(number)
                if at is None:
                    raise table.error(f"unknown label id {number}")
            try:
                score = float(raw_score)
            except ValueError:
                raise table.error(f"bad score {raw_score!r}") from None
            if not 0.0 <= score <= 1.0:  # NaN fails both comparisons, so it is rejected too
                raise table.error(f"score {score!r} outside [0, 1]")
            sids.append(sid)
            positions.append(at)
            scores.append(score)
            if len(sids) == _ROW_BATCH:
                cells.extend(sids, positions, scores)
                sids, positions, scores = [], [], []
    except ParseError:
        cells.extend(sids, positions, scores)
        raise
    cells.extend(sids, positions, scores)


def _reject_repeats(stream: IO[str], start: int, source: str, sample_ids: set[str]) -> None:
    """Raise for the first repeated (sample, label) cell in file order among
    the rows of ``sample_ids``, naming its line as a check on each row would:
    the rows are read again from ``start`` up to that cell."""
    if not sample_ids:
        return
    stream.seek(start)
    table = CsvTable(stream, ("id", "attribute_id"), source)
    seen: dict[str, set[int]] = {sid: set() for sid in sample_ids}
    # Every row up to the repeated cell was valid when first read.
    for sid, raw_label in table:
        labels = seen.get(sid)
        if labels is not None:
            label_id = int(raw_label)
            if label_id in labels:
                raise table.error(f"duplicate score for sample {sid!r}, label {label_id}")
            labels.add(label_id)


class PredictionView(AnnotationSet):
    """Read-only predictions, never stored: ``index`` maps each sample id to
    its source value (its ordinal in a score set, or a sample of another
    set) and ``predict(sample id, value)`` is the view's ``_read``, called
    on every read. Ids, their order, ``len`` and ``in`` are those of
    ``index``, which the view shares."""

    def __init__(self, index: Mapping, known_labels: frozenset[int], predict: Callable) -> None:
        self._index, self.known_labels, self._read = index, known_labels, predict

    def _rows(self) -> Iterator[tuple[str, frozenset[int]]]:
        return iter(self)


def threshold(
    scores: ScoreSet,
    decision_threshold: float,
    sample_ids: Iterable[str],
) -> AnnotationSet:
    """Binarize the scores of ``sample_ids`` into predictions; a label is on
    when its score is at least the threshold (inclusive, so threshold 0.0
    predicts every scored label). The labels come from a validated score
    set, so only missing and repeated ``sample_ids`` are checked.

    The result is a :class:`PredictionView` over the score set's sample
    ordinals (its own index when ``sample_ids`` are its ids in its order)
    whose read is the score set's own: each read of a sample builds its
    row and predictions again. The reports, the exclusion view,
    ``write_annotations`` and ``compute_stats`` read each sample once.
    A threshold below the score set's ``floor`` raises :class:`EvalError`:
    the cells it would predict were not kept."""
    _check_decision_threshold(decision_threshold)
    _check_floor(scores, decision_threshold)
    wanted = list(sample_ids)
    _require_scored(scores, wanted)
    index = scores._index
    if wanted != list(index):
        index = dict(zip(wanted, map(index.__getitem__, wanted)))
        if len(index) < len(wanted):
            seen: set[str] = set()
            for sid in wanted:
                if sid in seen:
                    raise ValueError(f"duplicate sample id {sid!r}")
                seen.add(sid)
    read = scores._read

    def predict(sample_id: str, ordinal: int) -> frozenset[int]:
        return frozenset(read(sample_id, ordinal).labels_at_least(decision_threshold))

    return PredictionView(index, scores.known_labels, predict)


def _check_decision_threshold(value: float, name: str = "decision threshold") -> None:
    if not 0.0 <= value <= 1.0:  # NaN fails both comparisons
        raise ValueError(f"{name} {value!r} outside [0, 1]")


def _check_floor(scores: ScoreSet, cut: float) -> None:
    if cut < scores.floor:
        raise EvalError(
            f"decision threshold {cut!r} is below the score set's floor {scores.floor!r}"
        )


def _require_scored(scores: ScoreSet, sample_ids: list[str]) -> None:
    missing = [sid for sid in sample_ids if sid not in scores]
    if missing:
        raise SampleMismatch(
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
    candidate ties. Applying the result again changes nothing. The groups are
    checked here; the result is a :class:`PredictionView` over the values
    ``predictions`` holds that reads and prunes a sample each time it is
    read."""
    seen: set[int] = set()
    for group in groups:
        if not group:
            raise EvalError("empty exclusion group")
        clash = seen & group
        if clash:
            raise EvalError(f"label {min(clash)} appears in two exclusion groups")
        seen |= group

    def prune(sample_id: str, value: object) -> frozenset[int]:
        labels = predictions._read(sample_id, value)
        row_scores = scores.scores_for(sample_id) if scores and sample_id in scores else {}
        dropped: set[int] = set()
        for group in groups:
            hits = labels & group
            if len(hits) < 2:
                continue
            keep = max(hits, key=lambda i: (row_scores.get(i, 0.0), -i))
            dropped |= hits - {keep}
        return labels - dropped if dropped else labels

    # Pruning only removes labels, so every sample stays valid.
    return PredictionView(predictions._index, predictions.known_labels, prune)


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
    """The truth sample ids, in stored order, that ``sample_filter`` keeps;
    predictions must hold the same ids, in any order. No report depends on
    the order: flat counts are integers and graph totals exact sums."""
    truth_ids = truth.sample_ids()
    pred_ids = predictions.sample_ids()
    if pred_ids != truth_ids:  # the same ids in another order still align
        pred_set, truth_set = set(pred_ids), set(truth_ids)
        if pred_set != truth_set:
            missing = len(truth_set - pred_set)
            extra = len(pred_set - truth_set)
            raise SampleMismatch(
                "prediction and truth sample ids differ "
                f"({missing} missing from predictions, {extra} extra)"
            )
    return truth_ids if sample_filter is None else list(filter(sample_filter, truth_ids))


def _class_universe(known: frozenset[int], scope: Iterable[int] | None) -> list[int]:
    """Sorted class ids: ``scope`` if given (a subset of ``known``), else ``known``."""
    if scope is not None:
        classes = frozenset(scope)
        unknown = classes - known
        if unknown:
            raise EvalError(f"scope references unknown label ids {sorted(unknown)}")
        return sorted(classes)
    return sorted(known)


def _flat_scores(
    tp: int, fp: int, fn: int, defined: Collection[float], cells: int, beta: float
) -> tuple[float, float, float]:
    """Micro F, macro F (the mean of the ``defined`` per-class F) and
    accuracy over ``cells`` sample-class cells, from the flat totals."""
    macro = math.fsum(defined) / len(defined) if defined else NAN
    accuracy = (cells - fp - fn) / cells if cells else NAN
    return fbeta(tp, fp, fn, beta), macro, accuracy


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
    totals = {"tp": sum(tp.values()), "fp": sum(fp.values()), "fn": sum(fn.values())}
    micro, macro, accuracy = _flat_scores(*totals.values(), defined, n_samples * len(classes), beta)
    return MetricReport(
        kind=kind,
        beta=beta,
        micro_f=micro,
        macro_f=macro,
        micro_accuracy=accuracy,
        totals=totals,
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


# ---------------------------------------------------------------------------
# Graph-aware report


def _check_fp_mode(fp_mode: str) -> None:
    if fp_mode not in ("literal", "complement"):
        raise EvalError(f"unknown fp_mode {fp_mode!r}")


def _in_order_sum(values: list[float]) -> float:
    """``values`` added left to right. Not ``sum()``, which compensates its
    rounding from Python 3.12 on, and not ``math.fsum``: every caller must
    round the same way on every supported Python."""
    total = 0.0
    for value in values:
        total += value
    return total


# Every finite float is an integer multiple of 2**-1074, the smallest
# subnormal, so sums in that unit are exact.
_EXACT_BITS = 1074
_EXACT_ONE = 1 << _EXACT_BITS


def _exact(value: float) -> int:
    """``value`` in units of 2**-1074, exactly."""
    num, den = value.as_integer_ratio()
    return num << (_EXACT_BITS + 1 - den.bit_length())


def _graph_steps(
    t: frozenset[int],
    entering: Mapping[int, Collection[int]],
    graph: RelationGraph,
    fp_mode: str,
    steps: list[list[int]],
) -> None:
    """Add one sample's graph (tp, fp, fn) to ``steps`` as exact changes:
    at the last index its values with nothing predicted, at index i the
    change when the predictions ``entering[i]`` join at grid point i.

    Each prediction is credited from its distance ball, where only the true
    labels inside earn credit; graph distance is symmetric, so the ball
    serves both sides. A prediction with no edge gets no ball: it earns 1.0
    if it is a true label and 0.0 otherwise. tp and the matched credit are
    summed left to right in ascending label order. A credit of 0.0 leaves
    such a sum bit-identical, so only the predictions that earned credit are
    held, and the sums are taken again only at a grid point where one
    entered. fn follows tp; in "complement" mode fp counts the predictions,
    so it changes at every step. Each group enters in ascending order, so a
    prediction that sorts after every one held (all of the first group) is
    appended."""
    index = {label: j for j, label in enumerate(sorted(t))}
    label_best = [0.0] * len(index)
    linked = graph.linked
    held: list[int] = []
    held_best: list[float] = []
    n_preds = 0
    matched = 0.0
    exact_tp, exact_fp, exact_fn = 0, 0, len(index) << _EXACT_BITS
    steps[-1][2] += exact_fn
    for i in sorted(entering, reverse=True):
        credited = False
        for pred in sorted(entering[i]):
            if pred in linked:
                ball = graph.ball(pred)
                best = 0.0
                for label in ball.keys() & index.keys():
                    credit = 1.0 / (ball[label] + 1.0)
                    j = index[label]
                    if credit > label_best[j]:
                        label_best[j] = credit
                    if credit > best:
                        best = credit
                if best == 0.0:
                    continue
            elif pred in index:
                label_best[index[pred]] = best = 1.0
            else:
                continue
            credited = True
            if held and pred < held[-1]:
                at = bisect_left(held, pred)
                held.insert(at, pred)
                held_best.insert(at, best)
            else:
                held.append(pred)
                held_best.append(best)
        n_preds += len(entering[i])
        step = steps[i]
        if credited:
            tp = _in_order_sum(label_best)
            matched = _in_order_sum(held_best)
            after_tp, after_fn = _exact(tp), _exact(len(label_best) - tp)
            step[0] += after_tp - exact_tp
            step[2] += after_fn - exact_fn
            exact_tp, exact_fn = after_tp, after_fn
        if credited or fp_mode != "literal":
            fp = matched if fp_mode == "literal" else n_preds - matched
            after_fp = _exact(fp)
            step[1] += after_fp - exact_fp
            exact_fp = after_fp


def graph_fbeta_report(
    predictions: AnnotationSet,
    truth: AnnotationSet,
    graph: RelationGraph,
    beta: float = DEFAULT_BETA,
    fp_mode: str = "literal",
    scope: Iterable[int] | None = None,
    threads: int = 1,
) -> MetricReport:
    """F-beta with graph partial credit: a true label earns 1/(d+1) for the
    nearest prediction, so an adjacent guess is worth half a hit. Each
    prediction is credited from its distance ball (:meth:`RelationGraph.ball`),
    the nodes it reaches with their hop counts, so only the true labels inside
    the ball are looked at; every other label is out of reach and earns 0.

    ``fp_mode`` picks how predictions are charged: "literal" charges each
    prediction its best credit toward any true label (a historical reading
    under which even a perfect prediction pays), "complement" charges the
    credit shortfall, which reduces to the flat report on an edgeless graph.

    Each sample is credited by :func:`_graph_steps` as a sweep with one grid
    point, every prediction entering at once, and the totals are its exact
    integer sums, correctly rounded, so they do not depend on sample order.
    ``threads`` is accepted for compatibility and must be positive; it has
    no effect.
    """
    _check_fp_mode(fp_mode)
    if threads < 1:
        raise EvalError(f"threads must be positive, got {threads}")
    ids = _aligned_sample_ids(predictions, truth, None)
    classes = _class_universe(predictions.known_labels | truth.known_labels, scope)
    class_set = frozenset(classes)
    steps = [[0, 0, 0], [0, 0, 0]]
    for sid in ids:
        entering = {0: predictions.labels_for(sid) & class_set}
        _graph_steps(truth.labels_for(sid) & class_set, entering, graph, fp_mode, steps)
    total_tp, total_fp, total_fn = ((a + b) / _EXACT_ONE for a, b in zip(steps[1], steps[0]))
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


def default_threshold_grid() -> list[float]:
    """The sweep's 64 log-spaced decision thresholds from 0.0025 to 0.5
    inclusive."""
    ratio = 0.5 / 0.0025
    grid = [0.0025 * ratio ** (i / 63) for i in range(63)]
    grid.append(0.5)
    return grid


def sweep(
    scores: ScoreSet,
    truth: AnnotationSet,
    thresholds: Sequence[float] | None = None,
    graph: RelationGraph | None = None,
    beta: float = DEFAULT_BETA,
    fp_mode: str = "literal",
    scope: Iterable[int] | None = None,
) -> list[dict]:
    """Evaluate a score set at each decision threshold, reading each score
    row once.

    Each row carries the flat micro/macro scores and, when a graph is given,
    the graph micro score, so metric families for consistency comparison can
    be read straight off the sweep. Rows and errors are those of
    thresholding at each grid point and running :func:`fbeta_report` and
    :func:`graph_fbeta_report` on the result, so a grid point below the
    score set's ``floor`` raises :class:`EvalError`.

    A score row is predicted at every grid point up to the highest one it
    reaches (``bisect_right``: thresholding is inclusive). Walking the grid
    from high to low, the work at a grid point follows what changes there:
    the flat totals are kept as integers, and only the classes first
    predicted at that point have their F computed again. A sample's graph
    sums are taken again only where an entering prediction can change them.
    Graph totals are exact integer sums of the per-sample steps of
    :func:`_graph_steps`, the one helper that :func:`graph_fbeta_report`
    credits samples with too, and are correctly rounded.
    """
    grid = sorted(thresholds) if thresholds is not None else default_threshold_grid()
    if not grid:
        return []
    _check_decision_threshold(grid[0])
    truth_ids = truth.sample_ids()
    _require_scored(scores, truth_ids)
    classes = _class_universe(scores.known_labels | truth.known_labels, scope)
    if graph is not None:
        _check_fp_mode(fp_mode)
    for t in grid:
        _check_decision_threshold(t)
    _check_floor(scores, grid[0])
    class_set = frozenset(classes)
    n = len(grid)
    # Per grid index: the labels first predicted there, split by truth, and
    # the exact change of the graph totals; index n holds the graph totals
    # with nothing predicted.
    hits: list[list[int]] = [[] for _ in range(n)]
    misses: list[list[int]] = [[] for _ in range(n)]
    graph_steps = [[0, 0, 0] for _ in range(n + 1)]
    fn = dict.fromkeys(classes, 0)
    for sid, labels in truth:
        t = labels & class_set
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
            _graph_steps(t, entering, graph, fp_mode, graph_steps)

    # The flat counts as they stand at the current grid point, and the F of
    # exactly the classes whose F is defined (``fbeta`` is not NaN); only
    # the classes first predicted at a grid point change there.
    tp = dict.fromkeys(classes, 0)
    fp = dict.fromkeys(classes, 0)
    total_tp, total_fp, total_fn = 0, 0, sum(fn.values())
    defined: dict[int, float] = {}

    def refresh(changed: Iterable[int]) -> None:
        for c in changed:
            f = fbeta(tp[c], fp[c], fn[c], beta)
            if math.isnan(f):
                defined.pop(c, None)
            else:
                defined[c] = f

    refresh(classes)
    cells = len(truth_ids) * len(classes)
    graph_totals = graph_steps[n]
    rows: list[dict] = []
    for i in range(n - 1, -1, -1):
        for label in hits[i]:
            tp[label] += 1
            fn[label] -= 1
        for label in misses[i]:
            fp[label] += 1
        total_tp += len(hits[i])
        total_fn -= len(hits[i])
        total_fp += len(misses[i])
        refresh({*hits[i], *misses[i]})
        micro, macro, accuracy = _flat_scores(
            total_tp, total_fp, total_fn, defined.values(), cells, beta
        )
        row = {
            "threshold": grid[i],
            "flat_micro_f": micro,
            "flat_macro_f": macro,
            "micro_accuracy": accuracy,
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
