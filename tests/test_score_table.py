"""The compact score table against the plain-dict table it replaced.

A parsed :class:`ScoreSet` is one CSR table and builds a :class:`ScoreRow`
when a sample is read: an ``array('I')`` of positions in the catalog's
ascending id list and an ``array('d')`` of scores. :class:`PlainScores`,
one ``{label: score}`` dict per sample, is the old layout; thresholding,
exclusion and the sweep must give equal results on both.
"""

import gc
import io
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from labelkit import csvio, metrics
from labelkit.catalog import AnnotationSet, SampleTable
from labelkit.errors import ParseError
from labelkit.metrics import (
    ScoreRow,
    ScoreSet,
    enforce_exclusion,
    parse_scores,
    sweep,
    threshold,
)
from labelkit.relgraph import RelationGraph
from conftest import assert_one_layout, build_catalog

CATALOG = build_catalog()
KNOWN = CATALOG.ids()
LABELS = sorted(KNOWN)
GRID_POINTS = (0.0, 0.05, 0.1, 0.25, 0.5, 1.0)
EXCLUSION_GROUPS = (frozenset({19, 20, 21, 22, 23}), frozenset({0, 1, 2}), frozenset({12, 13}))


def scores_text(cells) -> str:
    return "id,attribute_id,score\n" + "".join(
        f"{sid},{label},{score!r}\n" for sid, label, score in cells
    )


class PlainScores(SampleTable):
    """The old layout: one dict per sample, read through the score set's
    mapping interface. It keeps every cell, as a score set with floor 0.0
    does."""

    floor = 0.0

    def _read(self, sample_id, scores):
        return scores

    scores_for = SampleTable._lookup


def plain_dicts(cells) -> PlainScores:
    """The old layout: one dict per sample, samples and cells in file order."""
    index: dict[str, dict[int, float]] = {}
    for sid, label, score in cells:
        index.setdefault(sid, {})[label] = score
    return PlainScores._trusted(index, KNOWN)


def plain_threshold(plain: PlainScores, cut: float, wanted) -> AnnotationSet:
    """What thresholding made of the old layout: each dict's labels scored
    at least ``cut``."""
    return AnnotationSet(
        (
            (sid, {label for label, score in plain.scores_for(sid).items() if score >= cut})
            for sid in wanted
        ),
        KNOWN,
    )


@st.composite
def score_cases(draw):
    sample_ids = [f"s{i}" for i in range(draw(st.integers(1, 6)))]
    pairs = draw(
        st.lists(
            st.tuples(st.sampled_from(sample_ids), st.sampled_from(LABELS)),
            unique=True,
            max_size=40,
        )
    )
    values = st.one_of(st.sampled_from(GRID_POINTS), st.floats(0.0, 1.0))
    cells = [(sid, label, draw(values)) for sid, label in pairs]
    scored = list(dict.fromkeys(sid for sid, _, _ in cells))
    truth = AnnotationSet(
        ((sid, draw(st.frozensets(st.sampled_from(LABELS), max_size=5))) for sid in scored),
        KNOWN,
    )
    nodes = draw(st.frozensets(st.sampled_from(LABELS), max_size=12))
    ordered = sorted(nodes)
    links = [(a, b) for i, a in enumerate(ordered) for b in ordered[i + 1:]]
    edges = draw(st.lists(st.sampled_from(links), max_size=10)) if links else []
    return dict(
        cells=cells,
        truth=truth,
        decision_threshold=draw(values),
        grid=draw(st.lists(values, min_size=1, max_size=5)),
        groups=draw(st.lists(st.sampled_from(EXCLUSION_GROUPS), unique=True)),
        graph=RelationGraph(nodes, edges),
        fp_mode=draw(st.sampled_from(["literal", "complement"])),
    )


@settings(max_examples=300, deadline=None)
@given(score_cases())
def test_compact_rows_match_plain_dicts(case):
    cells, truth = case["cells"], case["truth"]
    parsed = parse_scores(io.StringIO(scores_text(cells)), CATALOG)
    plain = plain_dicts(cells)
    assert all(type(row) is ScoreRow for _, row in parsed)
    assert [(sid, list(row.items())) for sid, row in parsed] == [
        (sid, list(row.items())) for sid, row in plain
    ]

    t = case["decision_threshold"]
    every = parsed.sample_ids()
    assert threshold(parsed, t, every) == plain_threshold(plain, t, plain.sample_ids())
    wanted = truth.sample_ids()[::-1]
    predictions = threshold(parsed, t, wanted)
    assert predictions == plain_threshold(plain, t, wanted)

    groups = case["groups"]
    assert enforce_exclusion(predictions, parsed, groups) == enforce_exclusion(
        predictions, plain, groups
    )

    for graph in (None, case["graph"]):
        kwargs = dict(thresholds=case["grid"], graph=graph, fp_mode=case["fp_mode"])
        assert repr(sweep(parsed, truth, **kwargs)) == repr(sweep(plain, truth, **kwargs))


# ---------------------------------------------------------------------------
# Duplicate cells


def parse(text):
    return parse_scores(io.StringIO(text), CATALOG)


def test_duplicate_after_a_gap_names_its_line():
    with pytest.raises(ParseError, match=r"^<scores>:4: duplicate score for sample 'a', label 0$"):
        parse("id,attribute_id,score\na,0,0.1\nb,0,0.2\na,0,0.3\n")


def test_resumed_sample_keeps_file_order():
    scores = parse("id,attribute_id,score\na,0,0.1\nb,0,0.2\na,1,0.3\na,2,0.4\n")
    assert [(sid, list(row.items())) for sid, row in scores] == [
        ("a", [(0, 0.1), (1, 0.3), (2, 0.4)]),
        ("b", [(0, 0.2)]),
    ]


def test_duplicate_inside_one_run_is_caught():
    with pytest.raises(ParseError, match=r"^<scores>:5: duplicate score for sample 'a', label 1$"):
        parse("id,attribute_id,score\nb,1,0.5\na,0,0.1\na,1,0.2\na,1,0.3\n")


def test_duplicate_after_a_resumed_run_is_caught():
    text = "id,attribute_id,score\na,0,0.1\nb,0,0.2\na,1,0.3\nb,1,0.4\na,1,0.5\n"
    with pytest.raises(ParseError, match=r"^<scores>:6: duplicate score for sample 'a', label 1$"):
        parse(text)


def test_duplicate_before_a_failing_row_is_reported_first():
    text = "id,attribute_id,score\na,0,0.1\nb,0,0.2\na,0,0.3\nc,0,2.0\n"
    with pytest.raises(ParseError, match=r"^<scores>:4: duplicate score for sample 'a', label 0$"):
        parse(text)
    huge = "x" * 140_000
    with pytest.raises(ParseError, match=r"^<scores>:4: duplicate score for sample 'a', label 0$"):
        parse(f"id,attribute_id,score\na,0,0.1\nb,0,0.2\na,0,0.3\n{huge},0,0.5\n")
    with pytest.raises(ParseError, match=r"^<scores>:3: score 2.0 outside \[0, 1\]$"):
        parse("id,attribute_id,score\na,0,0.1\nc,0,2.0\na,0,0.3\n")


def test_duplicate_is_checked_in_the_id_column_the_parser_reads():
    # A repeated header name maps to its last column, as in the parse.
    text = "id,attribute_id,score,id\nx,0,0.1,a\ny,1,0.2,a\nz,0,0.3,a\n"
    with pytest.raises(ParseError, match=r"^<scores>:4: duplicate score for sample 'a', label 0$"):
        parse(text)


def test_duplicate_line_counts_blank_and_multiline_rows(tmp_path):
    path = tmp_path / "bom.csv"
    text = (
        '\ufeffid,attribute_id,score\r\n"two\r\nlines",0,0.5\r\n\r\n'
        "a,0,0.5\r\na,1,0.5\r\na,0,0.7\r\n"
    )
    path.write_text(text, encoding="utf-8", newline="")
    with open(path, encoding="utf-8-sig", newline="") as handle:
        with pytest.raises(ParseError) as info:
            parse_scores(handle, CATALOG)
    assert str(info.value) == f"{path}:7: duplicate score for sample 'a', label 0"


def test_file_is_read_again_from_where_the_parse_began():
    stream = io.StringIO("# written by a model\nid,attribute_id,score\na,0,0.1\na,0,0.2\n")
    stream.readline()
    with pytest.raises(ParseError, match=r"^<scores>:3: duplicate score for sample 'a', label 0$"):
        parse_scores(stream, CATALOG)


class CountingStream(io.StringIO):
    seeks = 0

    def seek(self, *args):
        self.seeks += 1
        return super().seek(*args)


def test_file_is_read_again_only_for_a_duplicate():
    text = "id,attribute_id,score\na,0,0.1\nb,0,0.2\na,1,0.3\n"
    clean = CountingStream(text)
    parse_scores(clean, CATALOG)
    assert clean.seeks == 0
    repeated = CountingStream(text + "a,1,0.4\n")
    with pytest.raises(ParseError, match=r":5: duplicate"):
        parse_scores(repeated, CATALOG)
    assert repeated.seeks == 1


@pytest.mark.parametrize("quoted", [False, True])
def test_a_sample_back_after_a_dropped_cell_is_read_again(monkeypatch, quoted):
    # One row a block, two rows a batch: a comes back after its cell below
    # the floor was dropped, so the file is read again keeping every cell.
    monkeypatch.setattr(csvio, "BLOCK_SIZE", 8)
    monkeypatch.setattr(metrics, "_ROW_BATCH", 2)
    head = "id,attribute_id,score\n" + ('"a"' if quoted else "a") + ",0,0.05\nb,1,0.5\nc,2,0.5\n"
    stream = CountingStream(head + "a,1,0.9\n")
    scores = parse_scores(stream, CATALOG, at_least=0.1)
    assert stream.seeks == 1 + quoted  # a quoted file is read by rows first
    assert_one_layout(scores, {"a": [(1, 0.9)], "b": [(1, 0.5)], "c": [(2, 0.5)]})
    assert [(sid, dict(row)) for sid, row in scores] == [
        ("a", {1: 0.9}),
        ("b", {1: 0.5}),
        ("c", {2: 0.5}),
    ]
    # The dropped cell is still there to be repeated.
    with pytest.raises(ParseError, match=r"^<scores>:5: duplicate score for sample 'a', label 0$"):
        parse_scores(io.StringIO(head + "a,0,0.9\n"), CATALOG, at_least=0.1)


# ---------------------------------------------------------------------------
# The row mapping


def test_score_row_is_a_mapping_over_two_columns():
    # Positions in the shared ascending id list: 5 is at 1, 2 at 0.
    row = ScoreRow([2, 5, 9], array("I", [1, 0]), array("d", [0.75, 0.25]))
    assert row.scores == array("d", [0.75, 0.25])
    assert row == {5: 0.75, 2: 0.25} and {2: 0.25, 5: 0.75} == row
    assert (row[2], row.get(3), row.get(3, 0.0), 2 in row, 3 in row) == (0.25, None, 0.0, True, False)
    assert list(row) == [5, 2] and len(row) == 2
    with pytest.raises(KeyError):
        row[3]
    # An id of the shared list that the row does not score, and one past its end.
    assert (row.get(9), 9 in row, 10 in row, "5" in row) == (None, False, False, False)
    assert not hasattr(row, "__dict__")


def test_constructor_rows_are_compact_copies():
    cells = {3: 0.5, 1: 1}
    scores = ScoreSet([("a", cells)], KNOWN)
    row = scores.scores_for("a")
    assert type(row) is ScoreRow
    assert list(row.items()) == [(3, 0.5), (1, 1.0)]
    cells[3] = 0.9
    assert row[3] == 0.5


# ---------------------------------------------------------------------------
# Memory


def test_parsed_rows_cost_under_40_bytes_each():
    # Ids above 256 are not cached by CPython, as in a real catalog.
    catalog = build_catalog([(1000 + i, "medium", f"m{i}") for i in range(400)])
    lines = ["id,attribute_id,score"]
    for s in range(2000):
        for k in range(40):
            lines.append(f"sample{s:05d},{1000 + (s * 7 + k * 9) % 400},{(s * k % 997) / 997!r}")
    text = "\n".join(lines) + "\n"
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        scores = parse_scores(io.StringIO(text), catalog)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    rows = sum(len(row) for _, row in scores)
    assert rows == 80_000
    assert held / rows < 40
