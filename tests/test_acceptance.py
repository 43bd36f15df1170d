"""Acceptance gate: one test per criterion, one verdict line each under -v.

Criteria 1 through 5 replay exact counts against the public iMet 2020
corpus. They need the original labels.csv and train.csv, which are not
bundled; point LABELKIT_IMET_DIR at a directory containing both to enable
them, otherwise they skip with that instruction. Criteria 6 through 11 are
self-contained property checks and always run.
"""

import json
import math
import os
import random
from pathlib import Path

import pytest

from labelkit.catalog import (
    AnnotationSet,
    LabelCatalog,
    LabelRecord,
    compute_stats,
    cooccurrence,
    parse_annotations,
    parse_labels,
)
from labelkit.cleanse import (
    AndSplit,
    Merge,
    OrGroup,
    TransformPlan,
    and_splits_from_tally,
    apply_plan,
    classify_connectives,
    write_plan,
)
from labelkit.cli import main
from labelkit.metricmp import ModelFamily, compare
from labelkit.metrics import (
    ScoreSet,
    enforce_exclusion,
    fbeta_report,
    graph_fbeta_report,
    or_aware_report,
)
from labelkit.relgraph import RelationGraph
from labelkit.textkit import Connective
from conftest import annotations_csv, labels_csv

CORPUS_ENV = "LABELKIT_IMET_DIR"


def _passed(criterion: int, detail: str) -> None:
    print(f"criterion {criterion:02d}: PASS  {detail}")


# ---------------------------------------------------------------------------
# Corpus-backed criteria (1-5)


@pytest.fixture(scope="module")
def imet_catalog() -> LabelCatalog:
    root = os.environ.get(CORPUS_ENV)
    if not root:
        pytest.skip(
            f"{CORPUS_ENV} is not set; export it to a directory holding the "
            "public iMet 2020 labels.csv and train.csv to run corpus checks"
        )
    path = Path(root) / "labels.csv"
    if not path.is_file():
        pytest.skip(f"{path} not found")
    with open(path, encoding="utf-8", newline="") as handle:
        return parse_labels(handle)


@pytest.fixture(scope="module")
def imet_annotations(imet_catalog) -> AnnotationSet:
    path = Path(os.environ[CORPUS_ENV]) / "train.csv"
    if not path.is_file():
        pytest.skip(f"{path} not found")
    with open(path, encoding="utf-8", newline="") as handle:
        return parse_annotations(handle, imet_catalog)


def test_c01_corpus_statistics(imet_catalog, imet_annotations):
    assert len(imet_catalog) == 3474
    counts = {
        c: len(imet_catalog.category_ids(c)) for c in imet_catalog.categories()
    }
    assert counts == {
        "country": 100,
        "culture": 681,
        "dimension": 5,
        "medium": 1920,
        "tags": 768,
    }
    stats = compute_stats(imet_annotations, imet_catalog)
    assert stats.n_samples == 142119
    assert stats.median_labels_per_sample == 4
    assert stats.category_coverage["dimension"] == 101954
    _passed(1, "3474 labels, 142119 samples, median 4, dimension 101954")


def test_c02_connective_tallies(imet_catalog):
    # The full per-label itemization (tokens, resolution, class) is available
    # through the connectives report for auditing any boundary disagreement.
    and_tally = classify_connectives(imet_catalog, Connective.AND)
    assert (
        and_tally.total,
        and_tally.all_resolved,
        and_tally.none_resolved,
        and_tally.partial,
    ) == (334, 170, 30, 134)
    or_tally = classify_connectives(imet_catalog, Connective.OR)
    assert (
        or_tally.total,
        or_tally.all_resolved,
        or_tally.none_resolved,
        or_tally.partial,
    ) == (117, 77, 11, 29)
    _passed(2, "and 334=170/30/134, or 117=77/11/29")


def test_c03_hyphen_variant_merge(imet_catalog, imet_annotations):
    plain = imet_catalog.resolve_name("medium::bronze gilt")
    hyphen = imet_catalog.resolve_name("medium::bronze-gilt")
    freq = imet_annotations.label_frequency()
    assert freq[plain] == 8
    assert freq[hyphen] == 9
    assert cooccurrence(imet_annotations, plain, hyphen)[2] == 0
    merged, _ = apply_plan(
        imet_annotations, imet_catalog, TransformPlan(merges=[Merge(plain, (hyphen,))])
    )
    assert merged.label_frequency()[plain] == 17
    _passed(3, "bronze gilt 8 + bronze-gilt 9, overlap 0, merged 17")


def test_c04_supercategory_cooccurrence(imet_catalog, imet_annotations):
    chalk = imet_catalog.resolve_name("medium::black chalk")
    black = imet_catalog.resolve_name("medium::black")
    chalk_on_blue = imet_catalog.resolve_name("medium::black chalk on blue paper")
    n_chalk, _, both = cooccurrence(imet_annotations, chalk, black)
    assert (n_chalk, both) == (682, 1)
    n_blue, _, both_blue = cooccurrence(imet_annotations, chalk_on_blue, chalk)
    assert (n_blue, both_blue) == (6, 0)
    _passed(4, "(black chalk, black) = (682, _, 1); (on blue paper, chalk) = (6, _, 0)")


def test_c05_and_split_catalog_size(imet_catalog, imet_annotations):
    tally = classify_connectives(imet_catalog, Connective.AND)
    removals = [s for s in and_splits_from_tally(tally) if s.remove_source]
    assert len(removals) == 170
    _, catalog = apply_plan(imet_annotations, imet_catalog, TransformPlan(and_splits=removals))
    assert len(catalog) == 3304
    _passed(5, "170 fully resolved splits: 3474 -> 3304 labels")


# ---------------------------------------------------------------------------
# Property criteria (6-11)


def _annset(samples, known):
    return AnnotationSet(
        ((sid, frozenset(labels)) for sid, labels in samples), frozenset(known)
    )


def _random_instance(rng, max_samples=10, max_labels=8):
    n_labels = rng.randrange(1, max_labels + 1)
    known = frozenset(range(n_labels))
    truth_rows, pred_rows = [], []
    for s in range(rng.randrange(1, max_samples + 1)):
        truth_rows.append((f"s{s}", {i for i in known if rng.random() < 0.4}))
        pred_rows.append((f"s{s}", {i for i in known if rng.random() < 0.4}))
    return _annset(pred_rows, known), _annset(truth_rows, known), known


def _oracle_fbeta(tp, fp, fn, beta):
    b2 = beta * beta
    if tp + fp == 0 and tp + fn == 0:
        return None
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision == 0 and recall == 0:
        return 0.0
    return (1 + b2) * precision * recall / (b2 * precision + recall)


def test_c06_flat_fbeta_oracle():
    rng = random.Random(106)
    for _ in range(1000):
        preds, truth, known = _random_instance(rng)
        report = fbeta_report(preds, truth, beta=2.0)
        total = {"tp": 0, "fp": 0, "fn": 0}
        oracle_per_class = {}
        for c in sorted(known):
            tp = fp = fn = 0
            for sid in truth.sample_ids():
                in_t = c in truth.labels_for(sid)
                in_p = c in preds.labels_for(sid)
                tp += in_t and in_p
                fp += in_p and not in_t
                fn += in_t and not in_p
            total["tp"] += tp
            total["fp"] += fp
            total["fn"] += fn
            oracle_per_class[c] = _oracle_fbeta(tp, fp, fn, 2.0)
            got = report.per_class_f[c]
            if oracle_per_class[c] is None:
                assert math.isnan(got)
            else:
                assert abs(got - oracle_per_class[c]) <= 1e-12
        micro = _oracle_fbeta(total["tp"], total["fp"], total["fn"], 2.0)
        if micro is None:
            assert math.isnan(report.micro_f)
        else:
            assert abs(report.micro_f - micro) <= 1e-12
        defined = [v for v in oracle_per_class.values() if v is not None]
        if defined:
            assert abs(report.macro_f - sum(defined) / len(defined)) <= 1e-12
        else:
            assert math.isnan(report.macro_f)
        assert report.totals == total
    _passed(6, "1000 random instances match the confusion oracle to 1e-12")


def test_c07_graph_fbeta_worked_examples():
    # Geography subgraph: an isolated node and a two-edge chain.
    nodes = ["china", "french", "france", "present-day france"]
    graph = RelationGraph(nodes, [("french", "france"), ("france", "present-day france")])
    known = frozenset(nodes)

    exact = graph_fbeta_report(
        _annset([("x", {"china"})], known),
        _annset([("x", {"china"})], known),
        graph,
        fp_mode="literal",
    )
    assert abs(exact.micro_f - 5 / 6) <= 1e-12

    two_hops = graph_fbeta_report(
        _annset([("x", {"present-day france"})], known),
        _annset([("x", {"french"})], known),
        graph,
        fp_mode="literal",
    )
    assert abs(two_hops.micro_f - 5 / 14) <= 1e-12

    disconnected = graph_fbeta_report(
        _annset([("x", {"french"})], known),
        _annset([("x", {"china"})], known),
        graph,
        fp_mode="literal",
    )
    assert disconnected.micro_f == 0.0

    rng = random.Random(107)
    for _ in range(200):
        preds, truth, known = _random_instance(rng)
        flat = fbeta_report(preds, truth)
        edgeless = graph_fbeta_report(
            preds, truth, RelationGraph(known, []), fp_mode="complement"
        )
        if math.isnan(flat.micro_f):
            assert math.isnan(edgeless.micro_f)
        else:
            assert abs(edgeless.micro_f - flat.micro_f) <= 1e-12
    _passed(7, "worked examples 5/6, 5/14, 0; edgeless complement equals flat x200")


def test_c08_or_aware_monotonicity():
    rng = random.Random(108)
    strict = 0
    for _ in range(500):
        n = rng.randrange(4, 9)
        known = frozenset(range(n))
        groups = [
            OrGroup(source, tuple(sorted(rng.sample(range(n - 2), rng.randrange(1, 3)))))
            for source in (n - 1, n - 2)
        ]
        truth_rows, pred_rows = [], []
        for s in range(rng.randrange(1, 8)):
            truth_rows.append((f"s{s}", {i for i in known if rng.random() < 0.35}))
            pred_rows.append((f"s{s}", {i for i in known if rng.random() < 0.35}))
        truth = _annset(truth_rows, known)
        preds = _annset(pred_rows, known)
        flat = fbeta_report(preds, truth)
        aware = or_aware_report(preds, truth, groups)
        if math.isnan(flat.micro_f):
            assert math.isnan(aware.micro_f)
            continue
        hit = any(
            g.source in t
            and g.source not in preds.labels_for(sid)
            and preds.labels_for(sid) & (set(g.members) | {g.source})
            for sid, t in truth_rows
            for g in groups
        )
        if hit:
            assert aware.micro_f > flat.micro_f
            strict += 1
        else:
            assert aware.micro_f == flat.micro_f
    assert strict > 50
    _passed(8, f"500 instances monotone, {strict} strictly improved")


def test_c09_consistency_discriminancy():
    # Hand-enumerated three-model family: two agreements, one disagreement.
    fam = ModelFamily([("a", 0.5, 0.5), ("b", 0.6, 0.7), ("c", 0.7, 0.6)])
    report = compare(fam, epsilon=0.0)
    assert report.doc == 2 / 3
    assert report.dod is None

    mirror = ModelFamily([("a", 0.2, 0.2), ("b", 0.5, 0.5), ("c", 0.9, 0.9)])
    self_cmp = compare(mirror, epsilon=0.0)
    assert self_cmp.doc == 1.0
    assert self_cmp.dod is None

    rng = random.Random(109)
    product_checks = 0
    for trial in range(200):
        n = rng.randrange(2, 21)
        if trial % 2 == 0:
            entries = [(f"m{i}", rng.random(), rng.random()) for i in range(n)]
        else:
            entries = [
                (f"m{i}", rng.randrange(0, 5) / 4.0, rng.randrange(0, 5) / 4.0)
                for i in range(n)
            ]
        fam = ModelFamily(entries)
        rev = ModelFamily([(tag, g, f) for tag, f, g in entries])
        fwd_report = compare(fam, epsilon=0.0)
        rev_report = compare(rev, epsilon=0.0)
        # Consistency is symmetric whenever the tie counts agree; continuous
        # scores never tie, and quantized families are checked when they
        # balance.
        if fwd_report.p_count == fwd_report.q_count:
            if fwd_report.doc is None:
                assert rev_report.doc is None
            else:
                assert abs(fwd_report.doc - rev_report.doc) <= 1e-9
        both = (fwd_report.dod, rev_report.dod)
        if all(v is not None and math.isfinite(v) for v in both):
            assert abs(both[0] * both[1] - 1.0) <= 1e-9
            product_checks += 1
    assert product_checks > 20  # quantized families must exercise the product
    _passed(9, f"doc 2/3 exact, self 1.0, 200 families reciprocal ({product_checks} products)")


def test_c10_transformation_invariants():
    rng = random.Random(110)

    # Merge conservation: every rewritten sample obeys the substitution law
    # and the survivor's frequency absorbs the whole merge group.
    for _ in range(500):
        n = rng.randrange(4, 13)
        catalog = LabelCatalog(LabelRecord(i, "c", f"label {i}") for i in range(n))
        ids = list(range(n))
        rng.shuffle(ids)
        survivor, absorbed = ids[0], tuple(ids[1 : rng.randrange(2, min(5, n))])
        rows = [
            (f"s{s}", {i for i in range(n) if rng.random() < 0.4})
            for s in range(rng.randrange(1, 8))
        ]
        annotations = _annset(rows, range(n))
        merged_ann, merged_cat = apply_plan(
            annotations, catalog, TransformPlan(merges=[Merge(survivor, absorbed)])
        )
        assert len(merged_ann) == len(annotations)
        assert set(merged_cat.ids()) == set(range(n)) - set(absorbed)
        group = {survivor, *absorbed}
        touched = 0
        for sid, old in rows:
            want = (old - set(absorbed)) | ({survivor} if old & group else set())
            assert merged_ann.labels_for(sid) == want
            touched += bool(old & group)
        assert merged_ann.label_frequency()[survivor] == touched

    # Propagation idempotence: a second pass adds nothing.
    for _ in range(500):
        n = rng.randrange(3, 10)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.25
        ]
        rows = [
            (f"s{s}", {i for i in range(n) if rng.random() < 0.4})
            for s in range(rng.randrange(1, 6))
        ]
        annotations = _annset(rows, range(n))
        catalog = LabelCatalog(LabelRecord(i, "c", f"label {i}") for i in range(n))
        hierarchy = TransformPlan(hierarchy_edges=edges)
        once, _ = apply_plan(annotations, catalog, hierarchy)
        twice, _ = apply_plan(once, catalog, hierarchy)
        assert once == twice
        for sid, old in rows:
            assert old <= once.labels_for(sid)

    # Exclusion identity: re-enforcing an already pruned prediction set is a
    # no-op.
    for _ in range(500):
        n = rng.randrange(2, 9)
        known = frozenset(range(n))
        ids = list(known)
        rng.shuffle(ids)
        cut = rng.randrange(1, n + 1)
        groups = [frozenset(ids[:cut])]
        rows = [
            (f"s{s}", {i for i in known if rng.random() < 0.5})
            for s in range(rng.randrange(1, 5))
        ]
        preds = _annset(rows, known)
        scores = ScoreSet(
            [
                (sid, {i: round(rng.random(), 2) for i in known if rng.random() < 0.8})
                for sid, _ in rows
            ],
            known,
        )
        once = enforce_exclusion(preds, scores, groups)
        twice = enforce_exclusion(once, scores, groups)
        assert once == twice
    _passed(10, "merge conservation, propagation idempotence, exclusion identity x500")


SCORES_CSV = """id,attribute_id,score
s1,12,0.9
s1,16,0.5
s1,19,0.05
s1,17,0.3
s2,13,0.2
s2,17,0.15
s3,14,0.8
s3,2,0.12
s3,0,0.3
s4,15,0.6
s4,3,0.11
s4,20,0.25
s4,21,0.25
s5,16,0.9
s5,18,0.85
s6,8,0.9
s6,21,0.3
s6,22,0.4
s7,26,0.5
s7,24,0.5
s8,25,0.7
s8,5,0.4
"""


def test_c11_thread_determinism(tmp_path):
    from conftest import build_catalog

    (tmp_path / "labels.csv").write_text(labels_csv())
    (tmp_path / "annotations.csv").write_text(annotations_csv())
    (tmp_path / "scores.csv").write_text(SCORES_CSV)
    plan = TransformPlan(
        or_groups=[OrGroup(2, (0, 1)), OrGroup(28, (5, 29))],
        and_splits=[AndSplit(3, (4, 0), remove_source=True)],
    )
    with open(tmp_path / "plan.json", "w", encoding="utf-8") as handle:
        write_plan(plan, build_catalog(), handle)

    blobs = {}
    for threads in (1, 8):
        eval_out = tmp_path / f"eval-{threads}.json"
        sweep_out = tmp_path / f"sweep-{threads}"
        assert main([
            "eval-graph",
            "--labels", str(tmp_path / "labels.csv"),
            "--annotations", str(tmp_path / "annotations.csv"),
            "--scores", str(tmp_path / "scores.csv"),
            "--plan", str(tmp_path / "plan.json"),
            "--threads", str(threads),
            "--out", str(eval_out),
        ]) == 0
        assert main([
            "sweep",
            "--labels", str(tmp_path / "labels.csv"),
            "--annotations", str(tmp_path / "annotations.csv"),
            "--scores", str(tmp_path / "scores.csv"),
            "--plan", str(tmp_path / "plan.json"),
            "--threads", str(threads),
            "--out", str(sweep_out),
        ]) == 0
        blobs[threads] = (
            eval_out.read_bytes(),
            (sweep_out / "sweep.csv").read_bytes(),
            (sweep_out / "sweep.json").read_bytes(),
            (sweep_out / "family.csv").read_bytes(),
        )
    assert blobs[1] == blobs[8]
    doc = json.loads(blobs[1][0])
    assert doc["kind"] == "graph"
    _passed(11, "eval and sweep reports byte-identical at 1 and 8 threads")
