"""Graph credit from distance balls against the pairwise loop it replaced.

The oracle is the graph-aware report as it was before balls: one BFS-cached
``distance()`` call per (true label, prediction) pair. Both must give the
same totals, float for float, on random graphs whose nodes include labels
out of scope, ids no sample uses, and labels off the graph altogether. The
oracle sums each sample's credits with its own left-to-right loop, so a
change to the library's rounding cannot pass on both sides.
"""

import math
from collections import deque

from hypothesis import example, given, settings
from hypothesis import strategies as st

from labelkit.catalog import AnnotationSet
from labelkit.errors import EvalError
from labelkit.metrics import (
    DEFAULT_BETA,
    MetricReport,
    _aligned_sample_ids,
    _class_universe,
    _in_order_sum,
    fbeta,
    graph_fbeta_report,
)
from labelkit.relgraph import RelationGraph


# ---------------------------------------------------------------------------
# Oracle: the BFS-cached distance and the pairwise credit loop, verbatim.


class PairwiseDistances:
    """All-targets BFS per source, cached, over a graph's nodes and edges."""

    def __init__(self, graph: RelationGraph):
        self._nodes = graph.nodes
        adjacency = {node: set() for node in self._nodes}
        for a, b in graph.edges():
            adjacency[a].add(b)
            adjacency[b].add(a)
        self._adjacency = {node: tuple(sorted(peers)) for node, peers in adjacency.items()}
        self._bfs_cache: dict[int, dict[int, int]] = {}

    def _distances_from(self, source: int) -> dict[int, int]:
        cached = self._bfs_cache.get(source)
        if cached is not None:
            return cached
        dist: dict[int, int] = {}
        if source in self._nodes:
            dist[source] = 0
            queue = deque([source])
            while queue:
                node = queue.popleft()
                d = dist[node] + 1
                for peer in self._adjacency[node]:
                    if peer not in dist:
                        dist[peer] = d
                        queue.append(peer)
        self._bfs_cache[source] = dist
        return dist

    def distance(self, a: int, b: int) -> float:
        """Shortest-path length between two ids, 0 for a == b even off the
        graph, ``math.inf`` when no path exists."""
        if a == b:
            return 0
        d = self._distances_from(a).get(b)
        return math.inf if d is None else d


def oracle_add_prediction(pred, labels, label_best, graph) -> float:
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


def oracle_graph_counts(label_best, pred_best, fp_mode):
    """One sample's (tp, fp, fn); each sum is taken left to right in the
    lists' (ascending label) order."""
    tp = 0.0
    for credit in label_best:
        tp += credit
    matched = 0.0
    for credit in pred_best:
        matched += credit
    fp = matched if fp_mode == "literal" else len(pred_best) - matched
    return tp, fp, len(label_best) - tp


def oracle_graph_fbeta_report(
    predictions, truth, graph, beta=DEFAULT_BETA, fp_mode="literal", scope=None
) -> MetricReport:
    if fp_mode not in ("literal", "complement"):
        raise EvalError(f"unknown fp_mode {fp_mode!r}")
    graph = PairwiseDistances(graph)
    ids = _aligned_sample_ids(predictions, truth, None)
    classes = _class_universe(predictions.known_labels | truth.known_labels, scope)
    class_set = frozenset(classes)
    rows = []
    for sid in ids:
        labels = sorted(truth.labels_for(sid) & class_set)
        label_best = [0.0] * len(labels)
        pred_best = [
            oracle_add_prediction(pred, labels, label_best, graph)
            for pred in sorted(predictions.labels_for(sid) & class_set)
        ]
        rows.append(oracle_graph_counts(label_best, pred_best, fp_mode))
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
# Strategies

# Graph nodes no catalog knows: never true, never predicted, only hops.
HOP_ONLY = (100, 101, 102, 103)


@st.composite
def graph_cases(draw):
    labels = list(range(draw(st.integers(min_value=1, max_value=10))))
    n_samples = draw(st.integers(min_value=0, max_value=8))
    sample = st.frozensets(st.sampled_from(labels), max_size=6)
    truth_rows = [(f"s{i}", draw(sample)) for i in range(n_samples)]
    pred_rows = [(f"s{i}", draw(sample)) for i in range(n_samples)]
    # Labels left out of the node set are off the graph.
    nodes = sorted(
        draw(st.frozensets(st.sampled_from(labels)))
        | draw(st.frozensets(st.sampled_from(HOP_ONLY)))
    )
    pairs = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=16)) if pairs else []
    return dict(
        predictions=AnnotationSet(pred_rows, labels),
        truth=AnnotationSet(truth_rows, labels),
        graph=RelationGraph(nodes, edges),
        beta=draw(st.sampled_from([0.5, 1.0, DEFAULT_BETA])),
        fp_mode=draw(st.sampled_from(["literal", "complement"])),
        scope=draw(st.one_of(st.none(), st.frozensets(st.sampled_from(labels)))),
    )


def chain(n):
    return RelationGraph(range(n), [(i, i + 1) for i in range(n - 1)])


def case(truth_rows, pred_rows, graph, fp_mode="literal", scope=None, labels=range(8)):
    return dict(
        predictions=AnnotationSet(pred_rows, labels),
        truth=AnnotationSet(truth_rows, labels),
        graph=graph,
        beta=DEFAULT_BETA,
        fp_mode=fp_mode,
        scope=scope,
    )


@settings(max_examples=500, deadline=None)
@given(graph_cases())
# A ball larger than the true labels, and one smaller.
@example(case([("a", frozenset({0, 7}))], [("a", frozenset({3, 5}))], chain(8)))
@example(case([("a", frozenset(range(8)))], [("a", frozenset({2}))], chain(3), "complement"))
# Off-graph labels credit only themselves; an off-scope hop still counts.
@example(
    case([("a", frozenset({2, 5, 6}))], [("a", frozenset({0, 5}))], chain(3), scope={0, 2, 5})
)
# No edge at all, so no ball is built; every label on one path.
@example(
    case([("a", frozenset({0, 3})), ("b", frozenset({5}))],
         [("a", frozenset({0, 1, 6})), ("b", frozenset({5, 7}))], RelationGraph(range(8), []))
)
@example(
    case([("a", frozenset({0, 3})), ("b", frozenset({5}))],
         [("a", frozenset({0, 1, 6})), ("b", frozenset({5, 7}))], RelationGraph(range(8), []),
         "complement")
)
@example(case([("a", frozenset({0, 4, 7}))], [("a", frozenset({1, 2, 6}))], chain(8)))
@example(case([("a", frozenset({0, 4, 7}))], [("a", frozenset({1, 2, 6}))], chain(8), "complement"))
# Credits 1/3, 1/2 and 1/7 total 0.9761904761904762 correctly rounded, but
# ...476 added left to right in either sample order.
@example(
    case([(sid, frozenset({0})) for sid in "abc"],
         [("a", frozenset({2})), ("b", frozenset({1})), ("c", frozenset({6}))], chain(8))
)
def test_ball_credit_matches_pairwise_oracle(case):
    got = graph_fbeta_report(**case)
    want = oracle_graph_fbeta_report(**case)
    assert got.totals == want.totals
    assert repr(got.as_dict()) == repr(want.as_dict())


@settings(max_examples=200, deadline=None)
@given(graph_cases(), st.sampled_from([0, 5, 9, 100, 103, 999]))
def test_ball_holds_the_bfs_distances(case, source):
    graph = case["graph"]
    oracle = PairwiseDistances(graph)
    ball = graph.ball(source)
    assert ball[source] == 0
    assert ball == {source: 0, **oracle._distances_from(source)}
    for node in [*graph.nodes, source, 999]:
        assert ball.get(node, math.inf) == oracle.distance(source, node)


# Two branches from 5: 5-3-4-10-2-0-1 and 5-11-12-13-14-6. Labels 0 to 6
# lie 5, 6, 4, 1, 2, 0 and 5 hops from label 5.
BRANCHES = RelationGraph(
    [*range(7), *range(10, 15)],
    [(5, 3), (3, 4), (4, 10), (10, 2), (2, 0), (0, 1),
     (5, 11), (11, 12), (12, 13), (13, 14), (14, 6)],
)


def test_sample_sums_run_left_to_right():
    # Correctly rounded, these credits sum to 2.5095238095238095; only a
    # left-to-right float sum gives ...809, on every supported Python.
    credits = [1 / 6, 1 / 7, 1 / 5, 1 / 2, 1 / 3, 1.0, 1 / 6]
    assert _in_order_sum(credits) == 2.509523809523809
    assert oracle_graph_counts(credits, [], "literal")[0] == 2.509523809523809
    assert oracle_graph_counts([], credits, "literal")[1] == 2.509523809523809
    # Seven true labels earn those credits from one prediction, in ascending
    # label order; seven predictions earn them from one true label.
    labels = range(7)
    one, seven = frozenset({5}), frozenset(labels)
    tp = graph_fbeta_report(
        AnnotationSet([("a", one)], labels), AnnotationSet([("a", seven)], labels), BRANCHES
    ).totals["tp"]
    matched = graph_fbeta_report(
        AnnotationSet([("a", seven)], labels), AnnotationSet([("a", one)], labels), BRANCHES
    ).totals["fp"]
    assert tp == matched == 2.509523809523809
