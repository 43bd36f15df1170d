"""The flat report, now the or-aware counting loop with no or-groups,
against the flat loop it replaced."""

from typing import Callable, Iterable

from hypothesis import given, settings, strategies as st

from labelkit.catalog import AnnotationSet
from labelkit.errors import EvalError
from labelkit.metrics import (
    DEFAULT_BETA,
    MetricReport,
    _aligned_sample_ids,
    _class_universe,
    _finish_flat_report,
    fbeta_report,
)

LABELS = range(8)


# ---------------------------------------------------------------------------
# Oracle: the flat loop, verbatim.


def oracle_fbeta_report(
    predictions: AnnotationSet,
    truth: AnnotationSet,
    beta: float = DEFAULT_BETA,
    scope: Iterable[int] | None = None,
    sample_filter: Callable[[str], bool] | None = None,
) -> MetricReport:
    """Flat per-class F-beta over exactly matching sample ids.

    ``scope`` restricts the class universe (labels outside it are ignored on
    both sides); ``sample_filter`` keeps only sample ids it accepts.
    """
    ids = _aligned_sample_ids(predictions, truth, sample_filter)
    classes = _class_universe(predictions.known_labels | truth.known_labels, scope)
    class_set = frozenset(classes)
    tp = {c: 0 for c in classes}
    fp = {c: 0 for c in classes}
    fn = {c: 0 for c in classes}
    for sid in ids:
        t = truth.labels_for(sid) & class_set
        p = predictions.labels_for(sid) & class_set
        for c in t & p:
            tp[c] += 1
        for c in p - t:
            fp[c] += 1
        for c in t - p:
            fn[c] += 1
    return _finish_flat_report("flat", beta, classes, tp, fp, fn, len(ids))


# ---------------------------------------------------------------------------
# Comparison


def outcome(report, *args, **kwargs):
    try:
        return ("ok", report(*args, **kwargs).as_dict())
    except EvalError as exc:
        return ("error", str(exc))


SAMPLES = st.dictionaries(
    st.sampled_from([f"s{i}" for i in range(6)]), st.frozensets(st.sampled_from(LABELS))
)


@settings(max_examples=500, deadline=None)
@given(
    truth=SAMPLES,
    predictions=SAMPLES,
    same_ids=st.booleans(),
    scope=st.none() | st.frozensets(st.sampled_from(range(10))),
    kept=st.none() | st.frozensets(st.sampled_from([f"s{i}" for i in range(6)])),
    beta=st.sampled_from([0.5, 1.0, DEFAULT_BETA]),
)
def test_fbeta_report_matches_flat_loop(truth, predictions, same_ids, scope, kept, beta):
    if same_ids:
        predictions = {sid: predictions.get(sid, frozenset()) for sid in truth}
    truth_set = AnnotationSet(truth.items(), LABELS)
    pred_set = AnnotationSet(predictions.items(), LABELS)
    sample_filter = None if kept is None else kept.__contains__
    args = (pred_set, truth_set, beta, scope, sample_filter)
    assert outcome(fbeta_report, *args) == outcome(oracle_fbeta_report, *args)
