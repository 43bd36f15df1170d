"""Pair-classification, consistency, and discriminancy behavior."""

import io
import math
import random

import pytest

from labelkit.errors import EvalError, ParseError
from labelkit.metricmp import (
    F_BETTER,
    G_BETTER,
    INCONCLUSIVE,
    ComparisonReport,
    FamilyEntry,
    ModelFamily,
    compare,
    family_from_sweep,
    interpret,
    parse_family,
    write_family,
)


def family(f_scores, g_scores):
    return ModelFamily(
        [(f"m{i}", f, g) for i, (f, g) in enumerate(zip(f_scores, g_scores))]
    )


# ---------------------------------------------------------------------------
# Set-enumeration oracle


def classify_pair(df, dg, epsilon):
    """One pair's bucket, spelled out case by case."""
    f_sep = abs(df) > epsilon
    g_sep = abs(dg) > epsilon
    if not f_sep and not g_sep:
        return "both_tied"
    if not f_sep:
        return "f_tied"
    if not g_sep:
        return "g_tied"
    return "agree" if (df > 0) == (dg > 0) else "disagree"


def oracle_counts(entries, epsilon):
    buckets = {"agree": 0, "disagree": 0, "g_tied": 0, "f_tied": 0, "both_tied": 0}
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            df = entries[i].f_score - entries[j].f_score
            dg = entries[i].g_score - entries[j].g_score
            buckets[classify_pair(df, dg, epsilon)] += 1
    r = buckets["agree"]
    s = buckets["disagree"] + buckets["g_tied"]
    p = buckets["g_tied"]
    q = buckets["f_tied"]
    return r, s, p, q, buckets["both_tied"]


def random_family(rng, quantized):
    n = rng.randrange(2, 13)
    if quantized:
        pick = lambda: rng.randrange(0, 5) / 4.0
    else:
        pick = rng.random
    return ModelFamily([(f"m{i}", pick(), pick()) for i in range(n)])


def test_compare_matches_oracle_random():
    rng = random.Random(99)
    for trial in range(400):
        fam = random_family(rng, quantized=trial % 2 == 0)
        epsilon = rng.choice([0.0, 1e-4, 0.05, 0.3])
        report = compare(fam, epsilon=epsilon)
        r, s, p, q, skipped = oracle_counts(fam.entries, epsilon)
        assert (report.r_count, report.s_count, report.p_count, report.q_count) == (
            r,
            s,
            p,
            q,
        )
        assert report.skipped == skipped
        n = len(fam)
        assert report.pair_total == n * (n - 1) // 2
        # The buckets partition the pairs (p is a subset of s).
        assert r + s + q + skipped == report.pair_total
        if r + s:
            assert report.doc == pytest.approx(r / (r + s), abs=0)
        else:
            assert report.doc is None
        if q:
            assert report.dod == pytest.approx(p / q, abs=0)
        elif p:
            assert report.dod == math.inf
        else:
            assert report.dod is None


def test_compare_hand_example():
    fam = family([0.5, 0.6, 0.7], [0.5, 0.7, 0.6])
    report = compare(fam, epsilon=0.0)
    assert (report.r_count, report.s_count) == (2, 1)
    assert report.doc == pytest.approx(2 / 3, abs=1e-15)
    assert report.p_count == report.q_count == 0
    assert report.dod is None
    assert interpret(report) == INCONCLUSIVE


def test_compare_measure_against_itself():
    fam = family([0.1, 0.4, 0.9], [0.1, 0.4, 0.9])
    report = compare(fam, epsilon=0.0)
    assert report.doc == 1.0
    assert report.dod is None


def test_dod_infinite_when_only_f_separates():
    fam = family([0.1, 0.2, 0.3], [0.1, 0.2, 0.2])
    report = compare(fam, epsilon=0.01)
    assert (report.r_count, report.s_count, report.p_count, report.q_count) == (
        2,
        1,
        1,
        0,
    )
    assert report.dod == math.inf
    assert interpret(report) == F_BETTER


def test_compare_rejects_negative_epsilon():
    with pytest.raises(ValueError):
        compare(family([0.1, 0.2], [0.1, 0.2]), epsilon=-1e-9)


def test_family_validation():
    with pytest.raises(ValueError, match="at least two"):
        ModelFamily([("only", 0.5, 0.5)])
    with pytest.raises(ValueError, match="duplicate"):
        ModelFamily([("a", 0.1, 0.2), ("a", 0.3, 0.4)])
    with pytest.raises(ValueError, match="non-finite"):
        ModelFamily([("a", float("nan"), 0.2), ("b", 0.3, 0.4)])


# ---------------------------------------------------------------------------
# Verdicts


def fake_report(doc, dod):
    return ComparisonReport(
        r_count=0,
        s_count=0,
        p_count=0,
        q_count=0,
        skipped=0,
        pair_total=0,
        epsilon=1e-4,
        doc=doc,
        dod=dod,
    )


@pytest.mark.parametrize(
    "doc,dod,verdict",
    [
        (0.92, 1.77, F_BETTER),
        (0.92, 1 / 1.77, G_BETTER),
        (0.92, 1.0, INCONCLUSIVE),
        (0.5, 1.77, INCONCLUSIVE),
        (0.49, 0.2, INCONCLUSIVE),
        (None, 1.77, INCONCLUSIVE),
        (0.92, None, INCONCLUSIVE),
        (0.92, math.inf, F_BETTER),
        (0.92, 0.0, G_BETTER),
    ],
)
def test_interpret_rule(doc, dod, verdict):
    assert interpret(fake_report(doc, dod)) == verdict


def test_verdict_included_in_dict():
    doc = compare(family([0.1, 0.2, 0.3], [0.1, 0.2, 0.2]), epsilon=0.01).as_dict()
    assert doc["verdict"] == F_BETTER
    assert doc["pair_total"] == 3


# ---------------------------------------------------------------------------
# Reciprocity


def swapped(fam):
    return ModelFamily([(e.tag, e.g_score, e.f_score) for e in fam.entries])


def test_doc_symmetric_without_ties():
    # Continuous random scores make ties measure-zero events at epsilon 0,
    # and with every pair separated both directions see the same agreement
    # sets.
    rng = random.Random(5150)
    for _ in range(200):
        fam = random_family(rng, quantized=False)
        fwd = compare(fam, epsilon=0.0)
        rev = compare(swapped(fam), epsilon=0.0)
        assert fwd.doc == rev.doc
        assert (fwd.r_count, fwd.s_count) == (rev.r_count, rev.s_count)
        assert fwd.p_count == fwd.q_count == 0


def test_doc_symmetry_can_fail_with_ties():
    # A g-tie lands in s for the forward direction but in q for the reverse,
    # so the two consistencies legitimately diverge.
    fam = family([0.0, 1.0, 2.0], [0.0, 1.0, 1.0])
    fwd = compare(fam, epsilon=0.0)
    rev = compare(swapped(fam), epsilon=0.0)
    assert fwd.doc == pytest.approx(2 / 3)
    assert rev.doc == 1.0


def test_dod_reciprocal_product():
    fam = family([0.0, 1.0, 1.0, 2.0], [0.0, 0.0, 1.0, 2.0])
    fwd = compare(fam, epsilon=0.0)
    rev = compare(swapped(fam), epsilon=0.0)
    assert (fwd.p_count, fwd.q_count) == (1, 1)
    assert (rev.p_count, rev.q_count) == (1, 1)
    assert fwd.dod * rev.dod == pytest.approx(1.0, rel=1e-12)
    assert fwd.doc == rev.doc == pytest.approx(4 / 5)


def test_dod_reciprocal_product_random():
    rng = random.Random(1234)
    nonvacuous = 0
    for _ in range(400):
        fam = random_family(rng, quantized=True)
        fwd = compare(fam, epsilon=0.0)
        rev = compare(swapped(fam), epsilon=0.0)
        # Swapping the measures swaps the tie roles exactly.
        assert (fwd.p_count, fwd.q_count) == (rev.q_count, rev.p_count)
        both_finite = (
            fwd.dod is not None
            and rev.dod is not None
            and math.isfinite(fwd.dod)
            and math.isfinite(rev.dod)
        )
        if both_finite:
            nonvacuous += 1
            assert fwd.dod * rev.dod == pytest.approx(1.0, rel=1e-12)
    assert nonvacuous > 100


# ---------------------------------------------------------------------------
# Epsilon behavior


def test_shrinking_epsilon_keeps_agreements():
    # A pair counted as agreement stays an agreement at any smaller epsilon:
    # separation margins only widen and signs are unchanged.
    rng = random.Random(31337)
    grid = [0.0, 1e-6, 1e-4, 1e-2, 0.05, 0.2]
    for _ in range(150):
        fam = random_family(rng, quantized=rng.random() < 0.5)
        entries = fam.entries
        pairs = [
            (
                entries[i].f_score - entries[j].f_score,
                entries[i].g_score - entries[j].g_score,
            )
            for i in range(len(entries))
            for j in range(i + 1, len(entries))
        ]
        previous = None
        for epsilon in grid:
            current = {
                idx
                for idx, (df, dg) in enumerate(pairs)
                if classify_pair(df, dg, epsilon) == "agree"
            }
            if previous is not None:
                assert current <= previous
            previous = current
        # Aggregates follow: r never grows and skips never shrink with epsilon.
        reports = [compare(fam, epsilon=e) for e in grid]
        assert all(
            a.r_count >= b.r_count for a, b in zip(reports, reports[1:])
        )
        assert all(a.skipped <= b.skipped for a, b in zip(reports, reports[1:]))


def test_growing_epsilon_can_move_agreement_into_tie():
    # Margins of 0.1 on f and 0.01 on g: an agreement at tight epsilon turns
    # into a g-tie (counted in s and p) once epsilon passes the g margin.
    fam = family([0.0, 0.1], [0.0, 0.01])
    tight = compare(fam, epsilon=1e-3)
    loose = compare(fam, epsilon=0.05)
    assert (tight.r_count, tight.s_count, tight.p_count) == (1, 0, 0)
    assert (loose.r_count, loose.s_count, loose.p_count) == (0, 1, 1)


# ---------------------------------------------------------------------------
# Files and sweep adapters


def test_family_round_trip():
    fam = family([0.123456789, 0.5, 0.75], [0.2, 0.4, 0.6])
    buffer = io.StringIO()
    write_family(fam, buffer)
    buffer.seek(0)
    back = parse_family(buffer)
    assert [(e.tag, e.f_score, e.g_score) for e in back] == [
        (e.tag, e.f_score, e.g_score) for e in fam
    ]


def test_parse_family_errors():
    with pytest.raises(ParseError, match="header"):
        parse_family(io.StringIO("nope,nah\n"))
    with pytest.raises(ParseError, match=":3:"):
        parse_family(
            io.StringIO("model,f_score,g_score\na,0.1,0.2\nb,oops,0.4\n")
        )
    with pytest.raises(ParseError, match="at least two"):
        parse_family(io.StringIO("model,f_score,g_score\na,0.1,0.2\n"))


def test_parse_family_short_row_names_its_physical_line():
    text = "model,f_score,g_score\na,0.1,0.2\n\nb,0.3\n"
    with pytest.raises(ParseError, match=r"^<family>:4: wrong number of fields$"):
        parse_family(io.StringIO(text))


def test_parse_family_bad_cell_after_blank_lines_names_its_physical_line():
    text = "model,f_score,g_score\na,0.1,0.2\n\n\nb,oops,0.4\n"
    with pytest.raises(ParseError, match=r"^<family>:5: could not convert"):
        parse_family(io.StringIO(text))


def test_family_from_sweep():
    rows = [
        {"threshold": 0.1, "flat_micro_f": 0.5, "graph_micro_f": 0.6},
        {"threshold": 0.2, "flat_micro_f": float("nan"), "graph_micro_f": 0.7},
        {"threshold": 0.3, "flat_micro_f": 0.55, "graph_micro_f": 0.65},
    ]
    fam = family_from_sweep(rows)
    assert len(fam) == 2
    assert fam.entries[0].tag == "t000@0.1"
    assert fam.entries[0].f_score == 0.6
    assert fam.entries[0].g_score == 0.5

    with pytest.raises(EvalError, match="no graph"):
        family_from_sweep([{"threshold": 0.1, "flat_micro_f": 0.5}])
    with pytest.raises(EvalError, match="fewer than two"):
        family_from_sweep(rows[:1])
