"""Predictions as a view over the score table, against the eager code it
replaced.

``threshold`` and ``enforce_exclusion`` return a ``PredictionView`` that
builds a sample's labels when the sample is read. The oracles below are the
eager versions, verbatim, which stored one frozenset per sample. Both must
give the same samples in the same order, the same errors, and byte-for-byte
the same reports.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import pytest
from hypothesis import example, given, settings, strategies as st

from labelkit.catalog import AnnotationSet
from labelkit.cleanse import OrGroup
from labelkit.errors import EvalError
from labelkit.metrics import (
    PredictionView,
    ScoreSet,
    _check_decision_threshold,
    _require_scored,
    enforce_exclusion,
    fbeta_report,
    graph_fbeta_report,
    or_aware_report,
    threshold,
)
from labelkit.relgraph import RelationGraph

KNOWN = frozenset(range(8))


# ---------------------------------------------------------------------------
# Oracles: the eager threshold and enforce_exclusion, verbatim.


def oracle_threshold(
    scores: ScoreSet,
    decision_threshold: float,
    sample_ids: Iterable[str],
) -> AnnotationSet:
    """Binarize the scores of ``sample_ids`` into predictions; a label is on
    when its score is at least the threshold (inclusive, so threshold 0.0
    predicts every scored label). The labels come from a validated score
    set, so only missing and repeated ``sample_ids`` are checked."""
    _check_decision_threshold(decision_threshold)
    wanted = list(sample_ids)
    _require_scored(scores, wanted)
    predicted: dict[str, frozenset[int]] = {}
    for sid in wanted:
        if sid in predicted:
            raise ValueError(f"duplicate sample id {sid!r}")
        # Built from a set, a frozenset's table is sized to fit; grown from a
        # generator one item at a time, it can be twice as large.
        predicted[sid] = frozenset(
            {
                label
                for label, score in scores.scores_for(sid).items()
                if score >= decision_threshold
            }
        )
    return AnnotationSet._trusted(predicted, scores.known_labels)


def oracle_enforce_exclusion(
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
# Inputs

SIDS = ["a", "b", "c", "d", "e"]
# Scores are drawn from the thresholds themselves, so cells sit exactly on
# the cut, and from few values, so exclusion groups hold ties.
GRID = [0.0, 0.1, 0.5, 1.0]
SCORE_ROWS = st.dictionaries(
    st.sampled_from(SIDS),
    st.dictionaries(st.sampled_from(sorted(KNOWN)), st.sampled_from(GRID + [0.3]), max_size=6),
    max_size=5,
)
GROUPS = st.lists(st.frozensets(st.sampled_from(sorted(KNOWN)), max_size=4), max_size=3)


def disjoint(groups):
    """The groups, each kept only when it is non-empty and shares no label
    with an earlier one."""
    taken, kept = set(), []
    for group in groups:
        if group and not group & taken:
            kept.append(group)
            taken |= group
    return kept


def outcome(call):
    try:
        return ("ok", call())
    except (ValueError, EvalError) as exc:
        return (type(exc), str(exc))


def assert_same_set(view, eager):
    """``view`` reads as ``eager`` through the whole AnnotationSet surface."""
    assert type(view) is PredictionView
    assert list(view) == list(eager)
    assert all(type(labels) is frozenset for _, labels in view)
    assert view == eager and eager == view
    assert view.sample_ids() == eager.sample_ids()
    assert len(view) == len(eager)
    assert view.known_labels == eager.known_labels
    assert view.label_frequency() == eager.label_frequency()
    for sid in SIDS + ["zz"]:
        assert (sid in view) == (sid in eager)
    for sid in eager.sample_ids():
        assert view.labels_for(sid) == eager.labels_for(sid)
    with pytest.raises(KeyError) as got:
        view.labels_for("zz")
    with pytest.raises(KeyError) as want:
        eager.labels_for("zz")
    assert got.value.args == want.value.args


def reports(predictions, truth, graph, or_groups, groups):
    """Every report's bytes on ``predictions``: flat, or-aware, graph in
    both modes, and the exclusion report as ``eval-excl`` runs it."""
    docs = [
        fbeta_report(predictions, truth),
        or_aware_report(predictions, truth, or_groups),
        graph_fbeta_report(predictions, truth, graph),
        graph_fbeta_report(predictions, truth, graph, fp_mode="complement"),
    ]
    if groups:
        scope = frozenset().union(*groups)
        docs.append(
            fbeta_report(
                predictions,
                truth,
                scope=scope,
                sample_filter=lambda sid: bool(truth.labels_for(sid) & scope),
            )
        )
    # repr keeps NaN comparable.
    return [repr(report.as_dict()) for report in docs]


# ---------------------------------------------------------------------------
# threshold


@settings(max_examples=400, deadline=None)
@given(
    rows=SCORE_ROWS,
    cut=st.sampled_from(GRID + [-0.1, 1.5]),
    wanted=st.lists(st.sampled_from(SIDS + ["zz"]), max_size=7),
)
@example(rows={"a": {0: 0.1}, "b": {}}, cut=0.1, wanted=["b", "a"])
@example(rows={"a": {0: 1.0, 1: 0.5}}, cut=1.0, wanted=["a"])
@example(rows={"a": {}, "b": {}}, cut=0.0, wanted=["a", "b", "a"])
@example(rows={"a": {}}, cut=0.5, wanted=["a", "a", "zz"])
@example(rows={"a": {}}, cut=1.5, wanted=["zz", "a", "a"])
def test_threshold_view_matches_eager(rows, cut, wanted):
    scores = ScoreSet(rows.items(), KNOWN)
    got = outcome(lambda: threshold(scores, cut, wanted))
    want = outcome(lambda: oracle_threshold(scores, cut, wanted))
    if want[0] != "ok":
        assert got == want
        return
    assert got[0] == "ok"
    assert_same_set(got[1], want[1])


def test_threshold_errors_keep_their_order():
    scores = ScoreSet([("a", {0: 0.5}), ("b", {1: 0.5})], KNOWN)
    with pytest.raises(ValueError, match=r"^decision threshold 1.5 outside \[0, 1\]$"):
        threshold(scores, 1.5, ["a", "a", "missing"])
    with pytest.raises(EvalError, match=r"no rows for 1 requested samples \(first: 'missing'\)"):
        threshold(scores, 0.1, ["a", "a", "missing"])
    with pytest.raises(ValueError, match=r"^duplicate sample id 'a'$"):
        threshold(scores, 0.1, ["a", "b", "a"])


# ---------------------------------------------------------------------------
# enforce_exclusion, and every report on both


@settings(max_examples=300, deadline=None)
@given(
    rows=SCORE_ROWS,
    cut=st.sampled_from(GRID),
    wanted_order=st.permutations(SIDS),
    groups=GROUPS,
    with_scores=st.booleans(),
    truth_rows=st.lists(st.frozensets(st.sampled_from(sorted(KNOWN)), max_size=4), min_size=5,
                        max_size=5),
    edges=st.lists(st.tuples(st.sampled_from(sorted(KNOWN)), st.sampled_from(sorted(KNOWN))),
                   max_size=6),
)
@example(
    rows={"a": {0: 0.5, 1: 0.5, 2: 0.5}, "b": {}},
    cut=0.5,
    wanted_order=SIDS,
    groups=[frozenset({0, 1, 2})],
    with_scores=True,
    truth_rows=[frozenset({1})] * 5,
    edges=[(0, 1)],
)
@example(
    rows={"a": {0: 0.1, 3: 0.1}},
    cut=0.0,
    wanted_order=SIDS,
    groups=[frozenset({0, 3})],
    with_scores=False,
    truth_rows=[frozenset({3})] * 5,
    edges=[],
)
def test_exclusion_view_and_reports_match_eager(
    rows, cut, wanted_order, groups, with_scores, truth_rows, edges
):
    scores = ScoreSet(rows.items(), KNOWN)
    wanted = [sid for sid in wanted_order if sid in rows]
    truth = AnnotationSet(zip(wanted, truth_rows), KNOWN)
    graph = RelationGraph(KNOWN, [(a, b) for a, b in edges if a != b])
    or_groups = [OrGroup(source=7, members=(5, 6))]
    groups = disjoint(groups)
    excl_scores = scores if with_scores else None

    view = threshold(scores, cut, wanted)
    eager = oracle_threshold(scores, cut, wanted)
    assert_same_set(view, eager)
    assert reports(view, truth, graph, or_groups, groups) == reports(
        eager, truth, graph, or_groups, groups
    )

    pruned = enforce_exclusion(view, excl_scores, groups)
    eager_pruned = oracle_enforce_exclusion(eager, excl_scores, groups)
    assert_same_set(pruned, eager_pruned)
    assert reports(pruned, truth, graph, or_groups, groups) == reports(
        eager_pruned, truth, graph, or_groups, groups
    )
    # Over an eager set, and applied twice, the view still matches.
    assert_same_set(enforce_exclusion(eager, excl_scores, groups), eager_pruned)
    assert_same_set(enforce_exclusion(pruned, excl_scores, groups), eager_pruned)


@pytest.mark.parametrize(
    "groups, message",
    [
        ([frozenset()], "empty exclusion group"),
        ([frozenset({0, 1}), frozenset({1, 2})], "label 1 appears in two exclusion groups"),
    ],
)
def test_exclusion_errors_are_raised_when_called(groups, message):
    scores = ScoreSet([("a", {0: 0.5})], KNOWN)
    for call in (enforce_exclusion, oracle_enforce_exclusion):
        with pytest.raises(EvalError) as info:
            call(threshold(scores, 0.1, ["a"]), scores, groups)
        assert str(info.value) == message


# ---------------------------------------------------------------------------
# Sample order


@settings(max_examples=300, deadline=None)
@given(
    rows=SCORE_ROWS,
    cut=st.sampled_from(GRID),
    shuffled=st.permutations(SIDS),
    shuffled_predictions=st.permutations(SIDS),
    groups=GROUPS,
    truth_rows=st.lists(st.frozensets(st.sampled_from(sorted(KNOWN)), max_size=4), min_size=5,
                        max_size=5),
    edges=st.lists(st.tuples(st.sampled_from(sorted(KNOWN)), st.sampled_from(sorted(KNOWN))),
                   max_size=6),
)
# Per-sample graph tp 1/2, 1/2 and 1/6 on a chain: added left to right they
# total 1.1666666666666667 in stored order but ...665 in reverse.
@example(
    rows={"a": {1: 0.5}, "b": {1: 0.5}, "c": {5: 0.5}},
    cut=0.5,
    shuffled=SIDS,
    shuffled_predictions=SIDS,
    groups=[],
    truth_rows=[frozenset({0})] * 5,
    edges=[(i, i + 1) for i in range(7)],
)
def test_reports_do_not_depend_on_sample_order(
    rows, cut, shuffled, shuffled_predictions, groups, truth_rows, edges
):
    scores = ScoreSet(rows.items(), KNOWN)
    stored = list(rows)
    truth_of = dict(zip(stored, truth_rows))
    graph = RelationGraph(KNOWN, [(a, b) for a, b in edges if a != b])
    or_groups = [OrGroup(source=7, members=(5, 6))]
    groups = disjoint(groups)

    def every_report(truth_order, prediction_order):
        truth = AnnotationSet(((sid, truth_of[sid]) for sid in truth_order), KNOWN)
        predictions = threshold(scores, cut, prediction_order)
        pruned = enforce_exclusion(predictions, scores, groups)
        return reports(predictions, truth, graph, or_groups, groups) + reports(
            pruned, truth, graph, or_groups, groups
        )

    want = every_report(stored, stored)
    assert every_report(stored[::-1], stored[::-1]) == want
    in_rows = lambda order: [sid for sid in order if sid in rows]  # noqa: E731
    assert every_report(in_rows(shuffled), in_rows(shuffled_predictions)) == want
