"""The one-pass threshold sweep against the per-threshold oracle.

The oracle thresholds the scores at every grid point and runs the flat
report and the pairwise graph oracle of ``test_graph_credit_oracle`` on the
result, which is how ``sweep`` worked before it read the scores once. The
graph side is not the library's ``graph_fbeta_report``, which credits samples
through the sweep's own helper. Both must give the same rows, float for
float, and raise the same errors.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelkit.catalog import AnnotationSet
from labelkit.errors import EvalError, SampleMismatch
from labelkit.metrics import (
    DEFAULT_BETA,
    ScoreSet,
    _EXACT_ONE,
    _exact,
    default_threshold_grid,
    fbeta_report,
    sweep,
    threshold,
)
from labelkit.relgraph import RelationGraph
from test_graph_credit_oracle import oracle_graph_fbeta_report


def oracle_sweep(
    scores,
    truth,
    thresholds=None,
    graph=None,
    beta=DEFAULT_BETA,
    fp_mode="literal",
    scope=None,
):
    """Evaluate a score set at each decision threshold, one full evaluation
    per grid point."""
    grid = sorted(thresholds) if thresholds is not None else default_threshold_grid()
    truth_ids = truth.sample_ids()
    rows = []
    for t in grid:
        predictions = threshold(scores, t, truth_ids)
        flat = fbeta_report(predictions, truth, beta=beta, scope=scope)
        row = {
            "threshold": t,
            "flat_micro_f": flat.micro_f,
            "flat_macro_f": flat.macro_f,
            "micro_accuracy": flat.micro_accuracy,
        }
        if graph is not None:
            g = oracle_graph_fbeta_report(
                predictions,
                truth,
                graph,
                beta=beta,
                fp_mode=fp_mode,
                scope=scope,
            )
            row["graph_micro_f"] = g.micro_f
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Strategies

GRID_POINTS = (0.0, 0.1, 0.25, 1 / 3, 0.5, 0.75, 1.0)
# At 1e-200, beta * beta underflows to 0.0, so a class with only false
# negatives is undefined; at 1e200 it overflows, and every score is NaN.
BETAS = (0.5, 1.0, DEFAULT_BETA, 1e-200, 1e200)
# Off-scope graph nodes: never scored, never true, only reachable as hops.
OFF_SCOPE = (100, 101, 102)


def score_values():
    return st.one_of(
        st.sampled_from(GRID_POINTS),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )


@st.composite
def sweep_cases(draw):
    n_labels = draw(st.integers(min_value=1, max_value=7))
    labels = list(range(n_labels))
    # Labels the scorer does not know are true but never scored.
    scored_labels = draw(st.lists(st.sampled_from(labels), unique=True, min_size=1))
    n_samples = draw(st.integers(min_value=0, max_value=6))
    truth_rows, score_rows = [], []
    for i in range(n_samples):
        sid = f"s{i}"
        truth_rows.append((sid, draw(st.frozensets(st.sampled_from(labels)))))
        score_rows.append(
            (sid, draw(st.dictionaries(st.sampled_from(scored_labels), score_values())))
        )
    # Scores for samples outside the truth are ignored.
    if draw(st.booleans()):
        score_rows.append(("extra", {scored_labels[0]: 1.0}))
    truth = AnnotationSet(truth_rows, labels)
    scores = ScoreSet(score_rows, scored_labels)

    grid = draw(st.one_of(st.none(), st.lists(score_values(), max_size=6)))
    scope = draw(st.one_of(st.none(), st.frozensets(st.sampled_from(labels))))
    graph = None
    if draw(st.booleans()):
        nodes = draw(st.frozensets(st.sampled_from(labels))) | set(
            draw(st.frozensets(st.sampled_from(OFF_SCOPE)))
        )
        ordered = sorted(nodes)
        pairs = [(a, b) for i, a in enumerate(ordered) for b in ordered[i + 1:]]
        edges = draw(st.lists(st.sampled_from(pairs), max_size=8)) if pairs else []
        graph = RelationGraph(nodes, edges)
    return dict(
        scores=scores,
        truth=truth,
        thresholds=grid,
        graph=graph,
        beta=draw(st.sampled_from(BETAS)),
        fp_mode=draw(st.sampled_from(["literal", "complement"])),
        scope=scope,
    )


@settings(max_examples=400, deadline=None)
@given(sweep_cases())
def test_one_pass_sweep_matches_oracle(case):
    assert repr(sweep(**case)) == repr(oracle_sweep(**case))


def test_sweep_matches_oracle_on_nan_cells():
    # Nothing true and nothing predicted: every score is undefined.
    truth = AnnotationSet([("a", frozenset())], [0, 1])
    scores = ScoreSet([("a", {0: 0.2})], [0, 1])
    graph = RelationGraph([0, 1], [(0, 1)])
    case = dict(thresholds=[0.5, 0.5, 1.0], graph=graph)
    rows = sweep(scores, truth, **case)
    assert math.isnan(rows[0]["flat_micro_f"]) and math.isnan(rows[0]["graph_micro_f"])
    assert repr(rows) == repr(oracle_sweep(scores, truth, **case))


def test_sweep_matches_oracle_on_default_grid():
    labels = list(range(6))
    truth = AnnotationSet(
        [(f"s{i}", frozenset({i % 6, (i * 5) % 6})) for i in range(30)], labels
    )
    scores = ScoreSet(
        [(f"s{i}", {c: ((i + 1) * (c + 3) % 97) / 96 for c in labels}) for i in range(30)],
        labels,
    )
    graph = RelationGraph(labels, [(0, 1), (1, 2), (3, 4)])
    for fp_mode in ("literal", "complement"):
        case = dict(graph=graph, fp_mode=fp_mode)
        assert repr(sweep(scores, truth, **case)) == repr(oracle_sweep(scores, truth, **case))


@pytest.mark.parametrize(
    "truth_rows, score_rows, beta, macro",
    [
        # Class 3 has a false negative and nothing else. At beta 1e-200 its
        # F is NaN, so it stays out of the macro mean: 1/3 at 0.2, not 1/4.
        (
            [("a", {0}), ("b", {3})],
            [("a", {0: 0.9, 1: 0.3}), ("b", {2: 0.5})],
            1e-200,
            [1 / 3, 1.0],
        ),
        # At beta 1e154, beta * beta is 1e308: class 0's F is 0.0 (1e308 /
        # inf) with one of its two true labels hit, and NaN (inf / inf) with
        # both, so a defined class leaves the macro mean at 0.2.
        (
            [("a", {0}), ("b", {0}), ("c", {1})],
            [("a", {0: 0.9}), ("b", {0: 0.5}), ("c", {1: 0.9})],
            1e154,
            [1.0, 0.5],
        ),
    ],
)
def test_sweep_matches_oracle_where_fbeta_is_undefined(truth_rows, score_rows, beta, macro):
    truth = AnnotationSet([(sid, frozenset(t)) for sid, t in truth_rows], range(4))
    scores = ScoreSet(score_rows, range(4))
    case = dict(thresholds=[0.2, 0.6], beta=beta)
    rows = sweep(scores, truth, **case)
    assert [row["flat_macro_f"] for row in rows] == macro
    assert repr(rows) == repr(oracle_sweep(scores, truth, **case))


@pytest.mark.parametrize("fp_mode", ["literal", "complement"])
@pytest.mark.parametrize("edges", ["none", "one path"])
def test_sweep_matches_oracle_without_edges_and_on_one_path(fp_mode, edges):
    # With no edge, every prediction is credited without a ball; on one path
    # every label has a ball that reaches all the others.
    labels = list(range(6))
    truth = AnnotationSet(
        [(f"s{i}", frozenset({i % 6, (i * 5 + 2) % 6})) for i in range(12)], labels
    )
    scores = ScoreSet(
        [(f"s{i}", {c: ((i + 2) * (c + 5) % 31) / 30 for c in labels}) for i in range(12)],
        labels,
    )
    pairs = [] if edges == "none" else [(c, c + 1) for c in labels[:-1]]
    case = dict(graph=RelationGraph(labels, pairs), fp_mode=fp_mode)
    assert repr(sweep(scores, truth, **case)) == repr(oracle_sweep(scores, truth, **case))


@pytest.mark.parametrize("fp_mode", ["literal", "complement"])
@pytest.mark.parametrize("scope", [None, {0, 1, 2, 4}])
def test_sweep_matches_oracle_on_corner_cases(fp_mode, scope):
    # Label 5 is true but never scored; 6 is off the graph; 100 is a graph
    # node outside every scope that only links 3 and 4; 2 is unreachable.
    labels = list(range(7))
    truth = AnnotationSet(
        [
            ("a", frozenset({0, 5})),
            ("b", frozenset({3})),
            ("c", frozenset({2, 6})),
            ("d", frozenset()),
        ],
        labels,
    )
    scores = ScoreSet(
        [
            ("a", {0: 0.5, 1: 1.0, 4: 0.0}),
            ("b", {4: 0.25, 0: 0.5, 6: 1.0}),
            ("c", {2: 0.0, 3: 0.75, 6: 0.5}),
            ("d", {1: 0.25}),
        ],
        [0, 1, 2, 3, 4, 6],
    )
    graph = RelationGraph([0, 1, 2, 3, 4, 100], [(0, 1), (3, 100), (100, 4)])
    case = dict(
        thresholds=[1.0, 0.5, 0.0, 0.25, 0.5, 1.0, 0.0],
        graph=graph,
        fp_mode=fp_mode,
        scope=scope,
    )
    assert repr(sweep(scores, truth, **case)) == repr(oracle_sweep(scores, truth, **case))


# ---------------------------------------------------------------------------
# Error parity


def _error_of(func, *args, **kwargs):
    with pytest.raises(Exception) as info:
        func(*args, **kwargs)
    return type(info.value), str(info.value)


def _parity_corpus():
    truth = AnnotationSet([("a", frozenset({0})), ("b", frozenset({1}))], [0, 1])
    scores = ScoreSet([("a", {0: 0.9, 1: 0.2}), ("b", {1: 0.6})], [0, 1])
    return scores, truth, RelationGraph([0, 1], [(0, 1)])


@pytest.mark.parametrize(
    "change, expected, fragment",
    [
        (dict(missing_sample=True), SampleMismatch, "requested samples"),
        (dict(thresholds=[0.1, 1.5]), ValueError, "outside [0, 1]"),
        (dict(thresholds=[-0.1, 0.5]), ValueError, "outside [0, 1]"),
        (dict(fp_mode="bogus"), EvalError, "fp_mode"),
        # A bad fp_mode is reported before an out-of-range top threshold.
        (dict(fp_mode="bogus", thresholds=[0.1, 1.5]), EvalError, "fp_mode"),
        (dict(scope={0, 7, 9}), EvalError, "unknown label ids"),
        # An unknown scope is reported before an out-of-range top threshold.
        (dict(scope={7}, thresholds=[0.5, 2.0]), EvalError, "unknown label ids"),
        # A bad lowest threshold is reported before the missing sample.
        (dict(missing_sample=True, thresholds=[-1.0]), ValueError, "outside [0, 1]"),
    ],
)
def test_sweep_error_parity(change, expected, fragment):
    scores, truth, graph = _parity_corpus()
    change = dict(change)
    if change.pop("missing_sample", False):
        truth = AnnotationSet(list(truth) + [("c", frozenset({0}))], [0, 1])
    kwargs = dict(dict(thresholds=[0.1, 0.5], graph=graph), **change)
    error = _error_of(sweep, scores, truth, **kwargs)
    assert error == _error_of(oracle_sweep, scores, truth, **kwargs)
    assert error[0] is expected
    assert fragment in error[1]


def test_sweep_checks_graph_args_only_with_a_graph():
    scores, truth, _ = _parity_corpus()
    kwargs = dict(thresholds=[0.5], fp_mode="bogus")
    assert repr(sweep(scores, truth, **kwargs)) == repr(oracle_sweep(scores, truth, **kwargs))


# ---------------------------------------------------------------------------
# Exact reduction


def exact_sum(values):
    return sum(_exact(v) for v in values) / _EXACT_ONE


ADVERSARIAL = [
    [1 / 3] * 3,
    [1 / 3, 2 / 3, 1 / 3, 2 / 3, 1 / 3],
    [k / 7 for k in range(1, 7)] * 5,
    [1e300, 1.0, -1e300],
    [1e16, 1.0, 1.0, -1e16],
    [5e-324, 5e-324, 1.0],
    [1.0, 1e-16, 1e-16, 1e-16, 1e-16],
    [0.1] * 10,
    [2.0**-1074] * 3 + [2.0**-1022],
    [],
]


@pytest.mark.parametrize("values", ADVERSARIAL)
def test_exact_reduction_matches_fsum_on_adversarial_lists(values):
    assert exact_sum(values) == math.fsum(values)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.sampled_from([1 / 3, 2 / 3, 1 / 7, 3 / 7, 0.1, 1e-300, 1e300, 5e-324]),
            st.floats(min_value=-1e300, max_value=1e300, allow_nan=False),
        ),
        max_size=40,
    )
)
def test_exact_reduction_matches_fsum(values):
    total = exact_sum(values)
    assert total == math.fsum(values)
    assert total == float(sum(map(Fraction, values), Fraction(0)))
