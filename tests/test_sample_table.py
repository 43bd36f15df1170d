"""Hand-over of already-valid rows to the shared sample table.

``parse_annotations`` and ``apply_plan`` build their dicts themselves and
adopt them through ``_trusted`` instead of running the validating
constructor; ``threshold`` and ``enforce_exclusion`` return views
that build each sample's set when it is read. Each test here rebuilds the
result through that constructor (or through the code it replaced) and
requires the same samples, in the same order, as the same immutable sets.
"""

import csv
import io
import operator
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from labelkit.catalog import AnnotationSet, SampleTable, parse_annotations
from labelkit.cleanse import TransformPlan, apply_plan
from labelkit.errors import EvalError, ParseError, PlanError
from labelkit.metrics import (
    ScoreSet,
    _check_decision_threshold,
    _require_scored,
    enforce_exclusion,
    threshold,
)
from conftest import build_catalog

CATALOG = build_catalog()
KNOWN = CATALOG.ids()
UNKNOWN = max(KNOWN) + 1
SAMPLE_IDS = st.text(st.characters(blacklist_categories=("Cs",)), max_size=4)


def assert_validated_copy(table: AnnotationSet) -> None:
    """``table`` equals its rebuild through the validating constructor."""
    rebuilt = AnnotationSet(list(table), table.known_labels)
    assert rebuilt == table
    assert list(rebuilt) == list(table)
    assert all(type(labels) is frozenset for _, labels in table)


# ---------------------------------------------------------------------------
# The shared base


def test_sets_share_one_base_without_parallel_list():
    assert AnnotationSet.__mro__[1] is SampleTable
    assert ScoreSet.__mro__[1] is SampleTable
    annotations = AnnotationSet([("a", {0})], KNOWN)
    assert not hasattr(annotations, "samples")
    assert vars(annotations).keys() == {"known_labels", "_index"}


SCORE_COLUMNS = (array("I", [0, 1]), array("I", [0]), array("d", [0.5]))  # offsets, cells


@pytest.mark.parametrize("cls, value", [(AnnotationSet, frozenset({0})), (ScoreSet, SCORE_COLUMNS)])
def test_trusted_adopts_the_dict_without_copying(cls, value):
    # A score set adopts its sample index and its CSR columns; the index
    # maps a sample id to its ordinal, and a sample is read as a row.
    if cls is ScoreSet:
        ids = sorted(KNOWN)
        index = {"a": 0}
        table = ScoreSet._trusted(index, KNOWN, ids, *value)
        columns = table._offsets, table._positions, table._scores
        assert table._ids is ids and all(map(operator.is_, columns, value))
        assert next(iter(table)) == ("a", {ids[0]: 0.5})
        public = ScoreSet([("a", {ids[0]: 0.5})], KNOWN)
    else:
        index = {"a": value}
        table = cls._trusted(index, KNOWN)
        assert next(iter(table))[1] is value
        public = cls(index.items(), KNOWN)
    assert table._index is index
    assert table.known_labels is KNOWN
    # The public constructor still copies.
    assert public._index is not index and list(public) == list(table)


def test_constructors_check_duplicates_before_values():
    with pytest.raises(ValueError, match="duplicate sample id 'a'"):
        AnnotationSet([("a", {0}), ("a", {UNKNOWN})], KNOWN)
    with pytest.raises(ValueError, match="duplicate sample id 'a'"):
        ScoreSet([("a", {0: 0.5}), ("a", {0: 2.0})], KNOWN)
    with pytest.raises(ValueError, match="unknown label ids"):
        AnnotationSet([("a", {0}), ("b", {UNKNOWN})], KNOWN)


# ---------------------------------------------------------------------------
# One read path


@settings(max_examples=200, deadline=None)
@given(
    rows=st.dictionaries(
        SAMPLE_IDS,
        st.dictionaries(st.sampled_from(sorted(KNOWN)), st.sampled_from([0.0, 0.3, 1.0])),
        max_size=6,
    ),
    cut=st.sampled_from([0.0, 0.3, 1.0]),
)
def test_iteration_and_keyed_read_agree_on_every_table(rows, cut):
    scores = ScoreSet(rows.items(), KNOWN)
    annotations = AnnotationSet(((sid, row.keys()) for sid, row in rows.items()), KNOWN)
    view = threshold(scores, cut, list(rows)[::-1])
    pruned = enforce_exclusion(view, scores, [frozenset(range(0, 30, 2))])
    tables = [
        (annotations, annotations.labels_for),
        (view, view.labels_for),
        (pruned, pruned.labels_for),
        (scores, scores.scores_for),
    ]
    for table, read in tables:
        assert list(table) == [(sid, read(sid)) for sid in table.sample_ids()]
        # Sample ids here are at most four characters long.
        with pytest.raises(KeyError) as info:
            read("unknown")
        assert info.value.args == ("unknown sample id 'unknown'",)


# ---------------------------------------------------------------------------
# parse_annotations


ANNOTATION_ROWS = st.lists(
    st.tuples(
        SAMPLE_IDS,
        st.lists(st.sampled_from(sorted(KNOWN | {UNKNOWN})), max_size=6),
    ),
    max_size=12,
)


@settings(max_examples=300, deadline=None)
@given(rows=ANNOTATION_ROWS)
def test_parse_annotations_equals_validating_constructor(rows):
    buffer = io.StringIO()
    # Quoting every cell keeps ids holding "\r" or "\n" intact.
    writer = csv.writer(buffer, lineterminator="\n", quoting=csv.QUOTE_ALL)
    writer.writerow(["id", "attribute_ids"])
    for sid, labels in rows:
        writer.writerow([sid, " ".join(map(str, labels))])
    ids = [sid for sid, _ in rows]
    valid = len(set(ids)) == len(ids) and all(UNKNOWN not in labels for _, labels in rows)

    if not valid:
        with pytest.raises(ParseError, match="duplicate sample id|unknown label id"):
            parse_annotations(io.StringIO(buffer.getvalue()), CATALOG)
        return
    parsed = parse_annotations(io.StringIO(buffer.getvalue()), CATALOG)
    assert_validated_copy(parsed)
    assert parsed == AnnotationSet(list(parsed), CATALOG.ids())
    assert parsed.sample_ids() == ids
    assert [labels for _, labels in parsed] == [frozenset(labels) for _, labels in rows]


# ---------------------------------------------------------------------------
# threshold


def oracle_threshold(scores, decision_threshold, sample_ids):
    """Binarize scores into predictions; a label is on when its score is at
    least the threshold (inclusive, so threshold 0.0 predicts every scored
    label)."""
    _check_decision_threshold(decision_threshold)
    wanted = list(sample_ids)
    _require_scored(scores, wanted)
    samples = (
        (
            sid,
            frozenset(
                label
                for label, score in scores.scores_for(sid).items()
                if score >= decision_threshold
            ),
        )
        for sid in wanted
    )
    return AnnotationSet(samples, scores.known_labels)


GRID = [0.0, 0.1, 0.25, 0.5, 1.0]
SCORE_ROWS = st.dictionaries(
    st.sampled_from(["a", "b", "c", "d", "e"]),
    st.dictionaries(
        st.sampled_from(sorted(KNOWN)), st.sampled_from(GRID + [0.3, 0.75]), max_size=6
    ),
    max_size=5,
)


def outcome(call):
    try:
        result = call()
    except (ValueError, EvalError) as exc:
        return type(exc), str(exc)
    assert all(type(labels) is frozenset for _, labels in result)
    return list(result), result.known_labels


@settings(max_examples=400, deadline=None)
@given(
    rows=SCORE_ROWS,
    cut=st.sampled_from(GRID + [1.5]),
    wanted=st.lists(st.sampled_from(["a", "b", "c", "d", "e", "zz"]), max_size=7),
)
def test_threshold_matches_constructor_oracle(rows, cut, wanted):
    scores = ScoreSet(rows.items(), KNOWN)
    got = outcome(lambda: threshold(scores, cut, wanted))
    assert got == outcome(lambda: oracle_threshold(scores, cut, wanted))


def test_threshold_rejects_repeated_sample_ids_after_missing_ones():
    scores = ScoreSet([("a", {0: 0.5}), ("b", {1: 0.5})], KNOWN)
    with pytest.raises(ValueError, match="duplicate sample id 'a'"):
        threshold(scores, 0.1, ["a", "b", "a"])
    with pytest.raises(EvalError):
        threshold(scores, 0.1, ["a", "a", "missing"])


# ---------------------------------------------------------------------------
# enforce_exclusion and supercategory propagation


PREDICTION_ROWS = st.dictionaries(
    SAMPLE_IDS, st.frozensets(st.sampled_from(sorted(KNOWN)), max_size=8), max_size=8
)


@settings(max_examples=300, deadline=None)
@given(
    rows=PREDICTION_ROWS,
    groups=st.lists(
        st.frozensets(st.sampled_from(range(12)), min_size=1, max_size=4), max_size=3
    ),
    with_scores=st.booleans(),
    data=st.data(),
)
def test_enforce_exclusion_output_is_its_validated_copy(rows, groups, with_scores, data):
    taken: set[int] = set()
    disjoint = []
    for group in groups:
        if not group & taken:
            disjoint.append(group)
            taken |= group
    predictions = AnnotationSet(rows.items(), KNOWN)
    scores = None
    if with_scores:
        draw_score = lambda: data.draw(st.sampled_from(GRID))  # noqa: E731
        scores = ScoreSet(
            ((sid, {label: draw_score() for label in labels}) for sid, labels in rows.items()),
            KNOWN,
        )
    pruned = enforce_exclusion(predictions, scores, disjoint)
    assert_validated_copy(pruned)
    assert pruned.sample_ids() == predictions.sample_ids()
    for sid, labels in pruned:
        assert labels <= predictions.labels_for(sid)


@settings(max_examples=300, deadline=None)
@given(
    rows=PREDICTION_ROWS,
    pairs=st.lists(
        st.tuples(st.sampled_from(sorted(KNOWN | {UNKNOWN})), st.sampled_from(sorted(KNOWN))),
        max_size=6,
    ),
)
def test_propagation_output_is_its_validated_copy(rows, pairs):
    # Edges run from a lower to a higher id, so they never form a cycle.
    edges = [(min(a, b), max(a, b)) for a, b in pairs if a != b]
    annotations = AnnotationSet(rows.items(), KNOWN)
    plan = TransformPlan(hierarchy_edges=edges)
    if any(UNKNOWN in edge for edge in edges):
        with pytest.raises(PlanError, match="unknown label id"):
            apply_plan(annotations, CATALOG, plan)
        return
    expanded, _ = apply_plan(annotations, CATALOG, plan)
    assert_validated_copy(expanded)
    assert expanded.sample_ids() == annotations.sample_ids()
    for sid, labels in expanded:
        assert annotations.labels_for(sid) <= labels
