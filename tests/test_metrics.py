"""Flat, or-aware, and graph-aware scoring against independent oracles."""

import io
import math
import random

import pytest

from labelkit.catalog import AnnotationSet
from labelkit.cleanse import OrGroup
from labelkit.errors import EvalError, ParseError
from labelkit.metrics import (
    ScoreSet,
    default_threshold_grid,
    enforce_exclusion,
    fbeta,
    fbeta_report,
    graph_fbeta_report,
    or_aware_report,
    parse_scores,
    sweep,
    threshold,
    write_sweep,
)
from labelkit.relgraph import RelationGraph
from conftest import build_catalog


def annset(samples, known):
    return AnnotationSet(
        ((sid, frozenset(labels)) for sid, labels in samples), frozenset(known)
    )


# ---------------------------------------------------------------------------
# Brute-force flat oracle


def oracle_flat_counts(predictions, truth, classes):
    """Per-class confusion counts straight from the definition."""
    counts = {}
    for c in classes:
        tp = fp = fn = tn = 0
        for sid in truth.sample_ids():
            in_truth = c in truth.labels_for(sid)
            in_pred = c in predictions.labels_for(sid)
            if in_truth and in_pred:
                tp += 1
            elif in_pred:
                fp += 1
            elif in_truth:
                fn += 1
            else:
                tn += 1
        counts[c] = (tp, fp, fn, tn)
    return counts


def oracle_fbeta(tp, fp, fn, beta):
    b2 = beta * beta
    precision = tp / (tp + fp) if tp + fp else None
    recall = tp / (tp + fn) if tp + fn else None
    if precision is None and recall is None:
        return None
    p = precision or 0.0
    r = recall or 0.0
    if p == 0 and r == 0:
        return 0.0
    return (1 + b2) * p * r / (b2 * p + r)


def random_instance(rng, max_samples=10, max_labels=8):
    n_labels = rng.randrange(1, max_labels + 1)
    known = frozenset(range(n_labels))
    samples = []
    for s in range(rng.randrange(1, max_samples + 1)):
        t = frozenset(i for i in known if rng.random() < 0.4)
        p = frozenset(i for i in known if rng.random() < 0.4)
        samples.append((f"s{s}", t, p))
    truth = annset([(sid, t) for sid, t, _ in samples], known)
    preds = annset([(sid, p) for sid, _, p in samples], known)
    return preds, truth, known


def test_fbeta_report_matches_oracle_random():
    rng = random.Random(424242)
    for _ in range(400):
        preds, truth, known = random_instance(rng)
        beta = rng.choice([0.5, 1.0, 2.0])
        report = fbeta_report(preds, truth, beta=beta)
        counts = oracle_flat_counts(preds, truth, sorted(known))
        total_tp = sum(c[0] for c in counts.values())
        total_fp = sum(c[1] for c in counts.values())
        total_fn = sum(c[2] for c in counts.values())
        per_class = {
            c: oracle_fbeta(tp, fp, fn, beta) for c, (tp, fp, fn, _) in counts.items()
        }
        micro = oracle_fbeta(total_tp, total_fp, total_fn, beta)

        assert report.totals == {"tp": total_tp, "fp": total_fp, "fn": total_fn}
        for c, want in per_class.items():
            got = report.per_class_f[c]
            if want is None:
                assert math.isnan(got)
            else:
                assert got == pytest.approx(want, abs=1e-12)
        if micro is None:
            assert math.isnan(report.micro_f)
        else:
            assert report.micro_f == pytest.approx(micro, abs=1e-12)
        defined = [v for v in per_class.values() if v is not None]
        if defined:
            assert report.macro_f == pytest.approx(
                sum(defined) / len(defined), abs=1e-12
            )
        else:
            assert math.isnan(report.macro_f)
        # Accuracy over all sample/class cells.
        cells = len(truth.sample_ids()) * len(known)
        correct = sum(c[0] + c[3] for c in counts.values())
        assert report.micro_accuracy == pytest.approx(correct / cells, abs=1e-12)


def test_fbeta_hand_example():
    # One sample: truth {a, b}, predicted {a}. TP=1, FN=1, FP=0.
    truth = annset([("x", {0, 1})], {0, 1})
    preds = annset([("x", {0})], {0, 1})
    report = fbeta_report(preds, truth, beta=2.0)
    assert report.micro_f == pytest.approx(5 / 9, abs=1e-15)
    assert report.totals == {"tp": 1, "fp": 0, "fn": 1}


def test_fbeta_nan_and_class_buckets():
    truth = annset([("x", {0}), ("y", {0})], {0, 1, 2})
    preds = annset([("x", {0}), ("y", {2})], {0, 1, 2})
    report = fbeta_report(preds, truth)
    assert math.isnan(report.per_class_f[1])  # never true, never predicted
    assert report.per_class_f[2] == 0.0  # false positive only
    assert report.classes_nan == 1
    assert report.classes_zero == 1
    assert report.classes_positive == 1


def test_fbeta_empty_predictions_full_fn():
    truth = annset([("x", {0, 1}), ("y", {1})], {0, 1})
    preds = annset([("x", set()), ("y", set())], {0, 1})
    report = fbeta_report(preds, truth)
    assert report.micro_f == 0.0
    assert report.totals == {"tp": 0, "fp": 0, "fn": 3}


def test_fbeta_requires_matching_samples():
    truth = annset([("x", {0})], {0})
    preds = annset([("y", {0})], {0})
    with pytest.raises(EvalError, match="sample ids differ"):
        fbeta_report(preds, truth)


def test_fbeta_scope_and_filter():
    truth = annset([("x", {0, 1}), ("y", {1})], {0, 1})
    preds = annset([("x", {0}), ("y", {0, 1})], {0, 1})
    scoped = fbeta_report(preds, truth, scope=[0])
    assert scoped.n_classes == 1
    assert scoped.totals == {"tp": 1, "fp": 1, "fn": 0}
    filtered = fbeta_report(preds, truth, sample_filter=lambda sid: sid == "y")
    assert filtered.n_samples == 1
    assert filtered.totals == {"tp": 1, "fp": 1, "fn": 0}
    with pytest.raises(EvalError):
        fbeta_report(preds, truth, scope=[99])


def test_fbeta_function_boundaries():
    assert math.isnan(fbeta(0, 0, 0, 2.0))
    assert fbeta(0, 1, 0, 2.0) == 0.0
    assert fbeta(1, 0, 0, 2.0) == 1.0


# ---------------------------------------------------------------------------
# Scores, thresholding, exclusion


def test_scoreset_validation():
    with pytest.raises(ValueError):
        ScoreSet([("a", {0: 1.5})], {0})
    with pytest.raises(ValueError):
        ScoreSet([("a", {1: 0.5})], {0})
    with pytest.raises(ValueError):
        ScoreSet([("a", {0: 0.5}), ("a", {0: 0.2})], {0})


def test_parse_scores_and_errors(mini_catalog):
    text = "id,attribute_id,score\nx,0,0.25\nx,1,1\ny,0,0\n"
    scores = parse_scores(io.StringIO(text), mini_catalog)
    assert scores.scores_for("x") == {0: 0.25, 1: 1.0}
    assert scores.sample_ids() == ["x", "y"]

    with pytest.raises(ParseError):
        parse_scores(io.StringIO("bad,header,here\n"), mini_catalog)
    with pytest.raises(ParseError, match="unknown label"):
        parse_scores(io.StringIO("id,attribute_id,score\nx,99999,0.5\n"), mini_catalog)
    with pytest.raises(ParseError, match="outside"):
        parse_scores(io.StringIO("id,attribute_id,score\nx,0,1.5\n"), mini_catalog)
    with pytest.raises(ParseError, match="duplicate"):
        parse_scores(
            io.StringIO("id,attribute_id,score\nx,0,0.5\nx,0,0.6\n"), mini_catalog
        )


def test_threshold_is_inclusive():
    scores = ScoreSet([("a", {0: 0.1, 1: 0.0999999, 2: 0.0})], {0, 1, 2})
    preds = threshold(scores, 0.1, ["a"])
    assert preds.labels_for("a") == frozenset({0})
    all_on = threshold(scores, 0.0, ["a"])
    assert all_on.labels_for("a") == frozenset({0, 1, 2})


def test_threshold_sample_selection():
    scores = ScoreSet([("a", {0: 0.5}), ("b", {0: 0.9})], {0})
    preds = threshold(scores, 0.1, sample_ids=["b"])
    assert preds.sample_ids() == ["b"]
    with pytest.raises(EvalError):
        threshold(scores, 0.1, sample_ids=["missing"])
    with pytest.raises(ValueError):
        threshold(scores, 1.5, ["a"])


def test_enforce_exclusion_top1():
    scores = ScoreSet([("a", {0: 0.3, 1: 0.7, 2: 0.9})], {0, 1, 2, 3})
    preds = annset([("a", {0, 1, 3})], {0, 1, 2, 3})
    pruned = enforce_exclusion(preds, scores, [frozenset({0, 1, 2})])
    assert pruned.labels_for("a") == frozenset({1, 3})


def test_enforce_exclusion_tie_lowest_id():
    scores = ScoreSet([("a", {0: 0.5, 1: 0.5})], {0, 1})
    preds = annset([("a", {0, 1})], {0, 1})
    pruned = enforce_exclusion(preds, scores, [frozenset({0, 1})])
    assert pruned.labels_for("a") == frozenset({0})


def test_enforce_exclusion_missing_scores_default_zero():
    scores = ScoreSet([("a", {1: 0.2})], {0, 1})
    preds = annset([("a", {0, 1})], {0, 1})
    pruned = enforce_exclusion(preds, scores, [frozenset({0, 1})])
    assert pruned.labels_for("a") == frozenset({1})
    # Without scores everything ties and the lowest id survives.
    no_scores = enforce_exclusion(preds, None, [frozenset({0, 1})])
    assert no_scores.labels_for("a") == frozenset({0})


def test_enforce_exclusion_idempotent_random():
    rng = random.Random(8)
    for _ in range(500):
        n = rng.randrange(2, 9)
        known = frozenset(range(n))
        ids = list(known)
        rng.shuffle(ids)
        cut = rng.randrange(1, n + 1)
        groups = [frozenset(ids[:cut])]
        if cut < n and rng.random() < 0.5:
            groups.append(frozenset(ids[cut:]))
        samples = [
            (f"s{s}", {i for i in known if rng.random() < 0.5})
            for s in range(rng.randrange(1, 5))
        ]
        preds = annset(samples, known)
        score_rows = [
            (sid, {i: round(rng.random(), 2) for i in known if rng.random() < 0.8})
            for sid, _ in samples
        ]
        scores = ScoreSet(score_rows, known)
        once = enforce_exclusion(preds, scores, groups)
        twice = enforce_exclusion(once, scores, groups)
        assert once == twice
        for sid, _ in samples:
            for group in groups:
                assert len(once.labels_for(sid) & group) <= 1


def test_enforce_exclusion_rejects_overlapping_groups():
    preds = annset([("a", {0})], {0, 1})
    with pytest.raises(EvalError):
        enforce_exclusion(preds, None, [frozenset({0, 1}), frozenset({1})])


# ---------------------------------------------------------------------------
# Or-aware


def test_or_aware_hand_case():
    # Truth has the disjunction (id 2 = either 0 or 1); prediction carries a
    # member but not the disjunction itself.
    truth = annset([("x", {2})], {0, 1, 2})
    preds = annset([("x", {0})], {0, 1, 2})
    flat = fbeta_report(preds, truth)
    aware = or_aware_report(preds, truth, [OrGroup(2, (0, 1))])
    assert flat.micro_f == 0.0
    # The or-label counts as satisfied; the member prediction still counts
    # as a false positive for its own class.
    assert aware.totals == {"tp": 1, "fp": 1, "fn": 0}
    assert aware.micro_f > flat.micro_f


def test_or_aware_no_groups_equals_flat():
    rng = random.Random(4)
    for _ in range(50):
        preds, truth, known = random_instance(rng)
        assert (
            or_aware_report(preds, truth, []).micro_f
            == fbeta_report(preds, truth).micro_f
            or (
                math.isnan(or_aware_report(preds, truth, []).micro_f)
                and math.isnan(fbeta_report(preds, truth).micro_f)
            )
        )


def test_or_aware_monotone_random():
    rng = random.Random(77)
    strict_seen = 0
    for _ in range(500):
        n = rng.randrange(4, 9)
        known = frozenset(range(n))
        # The top two ids act as or-labels over random lower members.
        groups = []
        for source in (n - 1, n - 2):
            members = tuple(
                sorted(rng.sample(range(n - 2), rng.randrange(1, 3)))
            )
            groups.append(OrGroup(source, members))
        samples_t, samples_p = [], []
        for s in range(rng.randrange(1, 8)):
            samples_t.append((f"s{s}", {i for i in known if rng.random() < 0.35}))
            samples_p.append((f"s{s}", {i for i in known if rng.random() < 0.35}))
        truth = annset(samples_t, known)
        preds = annset(samples_p, known)
        flat = fbeta_report(preds, truth)
        aware = or_aware_report(preds, truth, groups)

        component_only_hit = False
        satisfiers = {g.source: set(g.members) | {g.source} for g in groups}
        for sid, t in samples_t:
            p = preds.labels_for(sid)
            for g in groups:
                if g.source in t and g.source not in p and p & satisfiers[g.source]:
                    component_only_hit = True
        if math.isnan(flat.micro_f):
            assert math.isnan(aware.micro_f)
            continue
        if component_only_hit:
            assert aware.micro_f > flat.micro_f
            strict_seen += 1
        else:
            assert aware.micro_f == flat.micro_f
    assert strict_seen > 50  # the generator must actually exercise the case


# ---------------------------------------------------------------------------
# Graph-aware


def fig_subgraph():
    # 0 china (isolated), 1 french, 2 france, 3 present-day france.
    return RelationGraph([0, 1, 2, 3], [(1, 2), (2, 3)])


def test_graph_literal_exact_label():
    truth = annset([("x", {0})], {0, 1, 2, 3})
    preds = annset([("x", {0})], {0, 1, 2, 3})
    report = graph_fbeta_report(preds, truth, fig_subgraph(), fp_mode="literal")
    # Even the perfect answer is charged its own credit as FP under the
    # literal reading, capping F2 at 5/6.
    assert report.totals == {"tp": 1.0, "fp": 1.0, "fn": 0.0}
    assert report.micro_f == pytest.approx(5 / 6, abs=1e-15)
    complement = graph_fbeta_report(preds, truth, fig_subgraph(), fp_mode="complement")
    assert complement.micro_f == pytest.approx(1.0, abs=1e-15)


def test_graph_partial_credit_two_hops():
    truth = annset([("x", {1})], {0, 1, 2, 3})
    preds = annset([("x", {3})], {0, 1, 2, 3})
    report = graph_fbeta_report(preds, truth, fig_subgraph(), fp_mode="literal")
    assert report.totals["tp"] == pytest.approx(1 / 3, abs=1e-15)
    assert report.totals["fn"] == pytest.approx(2 / 3, abs=1e-15)
    assert report.totals["fp"] == pytest.approx(1 / 3, abs=1e-15)
    assert report.micro_f == pytest.approx(5 / 14, abs=1e-15)


def test_graph_disconnected_zero():
    truth = annset([("x", {0})], {0, 1, 2, 3})
    preds = annset([("x", {1})], {0, 1, 2, 3})
    literal = graph_fbeta_report(preds, truth, fig_subgraph(), fp_mode="literal")
    assert literal.totals == {"tp": 0.0, "fp": 0.0, "fn": 1.0}
    assert literal.micro_f == 0.0
    complement = graph_fbeta_report(preds, truth, fig_subgraph(), fp_mode="complement")
    assert complement.totals == {"tp": 0.0, "fp": 1.0, "fn": 1.0}
    assert complement.micro_f == 0.0


def test_graph_complement_on_edgeless_equals_flat():
    rng = random.Random(2024)
    for _ in range(200):
        preds, truth, known = random_instance(rng)
        graph = RelationGraph(known, [])
        flat = fbeta_report(preds, truth)
        gr = graph_fbeta_report(preds, truth, graph, fp_mode="complement")
        if math.isnan(flat.micro_f):
            assert math.isnan(gr.micro_f)
        else:
            assert gr.micro_f == pytest.approx(flat.micro_f, abs=1e-12)
        assert gr.totals["tp"] == pytest.approx(flat.totals["tp"], abs=1e-12)
        assert gr.totals["fp"] == pytest.approx(flat.totals["fp"], abs=1e-12)
        assert gr.totals["fn"] == pytest.approx(flat.totals["fn"], abs=1e-12)


def oracle_graph_counts(preds, truth, graph, fp_mode):
    """Definition-level recomputation with explicit loops."""
    tp = fp = fn = 0.0
    for sid in truth.sample_ids():
        t = truth.labels_for(sid)
        p = preds.labels_for(sid)
        for label in t:
            best = max(
                (1.0 / (graph.ball(label).get(q, math.inf) + 1.0) for q in p), default=0.0
            )
            tp += best
            fn += 1.0 - best
        for q in p:
            best = max(
                (1.0 / (graph.ball(q).get(label, math.inf) + 1.0) for label in t), default=0.0
            )
            fp += best if fp_mode == "literal" else 1.0 - best
    return tp, fp, fn


def test_graph_report_matches_oracle_random():
    rng = random.Random(616)
    for _ in range(120):
        preds, truth, known = random_instance(rng, max_samples=6, max_labels=7)
        nodes = sorted(known)
        edges = [
            (a, b)
            for i, a in enumerate(nodes)
            for b in nodes[i + 1:]
            if rng.random() < 0.3
        ]
        graph = RelationGraph(nodes, edges)
        fp_mode = rng.choice(["literal", "complement"])
        report = graph_fbeta_report(preds, truth, graph, fp_mode=fp_mode)
        tp, fp, fn = oracle_graph_counts(preds, truth, graph, fp_mode)
        assert report.totals["tp"] == pytest.approx(tp, abs=1e-12)
        assert report.totals["fp"] == pytest.approx(fp, abs=1e-12)
        assert report.totals["fn"] == pytest.approx(fn, abs=1e-12)


def test_graph_threads_byte_identical():
    rng = random.Random(31)
    preds, truth, known = random_instance(rng, max_samples=10, max_labels=8)
    nodes = sorted(known)
    edges = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:] if rng.random() < 0.3]
    graph = RelationGraph(nodes, edges)
    single = graph_fbeta_report(preds, truth, graph, threads=1)
    multi = graph_fbeta_report(preds, truth, RelationGraph(nodes, edges), threads=8)
    assert single.totals == multi.totals
    assert single.micro_f == multi.micro_f


def test_graph_rejects_bad_args():
    truth = annset([("x", {0})], {0})
    preds = annset([("x", {0})], {0})
    graph = RelationGraph([0], [])
    with pytest.raises(EvalError):
        graph_fbeta_report(preds, truth, graph, fp_mode="bogus")
    with pytest.raises(EvalError):
        graph_fbeta_report(preds, truth, graph, threads=0)


def test_graph_scoring_builds_no_ball_for_a_label_without_an_edge():
    # 0 has no edge, 4 is off the graph, 1-2-3 is a path; every label is
    # predicted somewhere and 0 is both true and predicted.
    known = {0, 1, 2, 3, 4}
    truth = annset([("x", {0, 1}), ("y", {3, 4})], known)
    scores = ScoreSet([("x", {0: 0.9, 2: 0.6, 4: 0.3}), ("y", {1: 0.8, 3: 0.2})], known)
    preds = threshold(scores, 0.0, ["x", "y"])
    graph = RelationGraph([0, 1, 2, 3], [(1, 2), (2, 3)])
    sweep(scores, truth, thresholds=[0.0, 0.5], graph=graph)
    graph_fbeta_report(preds, truth, graph)
    graph_fbeta_report(preds, truth, graph, fp_mode="complement")
    assert sorted(graph._balls) == [1, 2, 3]
    assert all(source in graph.linked for source in graph._balls)


# ---------------------------------------------------------------------------
# Sweeps


def test_default_grid_shape():
    grid = default_threshold_grid()
    assert len(grid) == 64
    assert grid[0] == 0.0025
    assert grid[-1] == 0.5
    assert all(a < b for a, b in zip(grid, grid[1:]))
    # Log spacing: constant ratio between consecutive points.
    ratios = [b / a for a, b in zip(grid[:-2], grid[1:-1])]
    assert max(ratios) - min(ratios) < 1e-9


def test_sweep_rows_and_family():
    known = frozenset({0, 1})
    truth = annset([("a", {0}), ("b", {1})], known)
    scores = ScoreSet([("a", {0: 0.9, 1: 0.2}), ("b", {0: 0.4, 1: 0.6})], known)
    graph = RelationGraph([0, 1], [(0, 1)])
    rows = sweep(scores, truth, thresholds=[0.1, 0.5, 0.95], graph=graph)
    assert [r["threshold"] for r in rows] == [0.1, 0.5, 0.95]
    assert all("graph_micro_f" in r for r in rows)
    out = io.StringIO()
    write_sweep(rows, out)
    lines = out.getvalue().splitlines()
    assert lines[0].startswith("threshold,")
    assert len(lines) == 4


def test_sweep_without_graph():
    known = frozenset({0})
    truth = annset([("a", {0})], known)
    scores = ScoreSet([("a", {0: 0.7})], known)
    rows = sweep(scores, truth, thresholds=[0.5, 0.8])
    assert "graph_micro_f" not in rows[0]
    assert rows[0]["flat_micro_f"] == 1.0
    assert rows[1]["flat_micro_f"] == 0.0


# ---------------------------------------------------------------------------
# Score floors


FLOOR_TEXT = "id,attribute_id,score\na,0,0.05\na,1,0.5\nb,0,0.09\nc,2,1\n"


def test_a_floor_keeps_only_the_cells_at_or_above_it(mini_catalog):
    scores = parse_scores(io.StringIO(FLOOR_TEXT), mini_catalog, at_least=0.1)
    assert scores.floor == 0.1
    # b's only cell is below the floor: it stays, with no cells.
    assert [(sid, dict(row)) for sid, row in scores] == [("a", {1: 0.5}), ("b", {}), ("c", {2: 1.0})]
    full = parse_scores(io.StringIO(FLOOR_TEXT), mini_catalog)
    assert full.floor == 0.0
    for cut in (0.1, 0.5, 1.0):
        assert threshold(scores, cut, ["a", "b", "c"]) == threshold(full, cut, ["a", "b", "c"])


def test_threshold_and_sweep_refuse_a_cut_below_the_floor(mini_catalog):
    scores = parse_scores(io.StringIO(FLOOR_TEXT), mini_catalog, at_least=0.1)
    truth = annset([("a", {1}), ("b", {0}), ("c", {2})], mini_catalog.ids())
    message = "decision threshold 0.05 is below the score set's floor 0.1"
    with pytest.raises(EvalError, match=f"^{message}$"):
        threshold(scores, 0.05, ["a"])
    with pytest.raises(EvalError, match=f"^{message}$"):
        sweep(scores, truth, thresholds=[0.5, 0.05, 0.2])
    # A threshold outside [0, 1] is still the error a set without a floor gives.
    with pytest.raises(ValueError, match=r"^decision threshold -1 outside \[0, 1\]$"):
        threshold(scores, -1, ["a"])
    assert threshold(scores, 0.1, ["a"]).labels_for("a") == {1}
    assert len(sweep(scores, truth, thresholds=[0.1, 0.5])) == 2


@pytest.mark.parametrize("at_least", [-0.1, 1.5, math.nan, math.inf])
def test_a_floor_outside_the_unit_interval_is_rejected(mini_catalog, at_least):
    with pytest.raises(ValueError, match=rf"^at_least {at_least!r} outside \[0, 1\]$"):
        parse_scores(io.StringIO(FLOOR_TEXT), mini_catalog, at_least=at_least)
    with pytest.raises(ValueError, match=rf"^decision threshold {at_least!r} outside \[0, 1\]$"):
        threshold(ScoreSet([("a", {0: 0.5})], {0}), at_least, ["a"])


def test_a_score_set_built_from_mappings_keeps_every_cell():
    scores = ScoreSet([("a", {0: 0.0, 1: 0.05}), ("b", {})], {0, 1})
    assert scores.floor == 0.0
    assert [(sid, dict(row)) for sid, row in scores] == [("a", {0: 0.0, 1: 0.05}), ("b", {})]
    assert threshold(scores, 0.0, ["a", "b"]).labels_for("a") == {0, 1}
