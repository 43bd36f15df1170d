"""The compact sample stores against the plain containers they replaced,
and what they cost.

An :class:`AnnotationSet` stores each sample as a tuple of its distinct
labels and builds a frozenset when a sample is read; the oracle is an ordered dict of
frozensets, read by the readers as they were when sets were stored. A
:class:`ScoreRow` stores positions in a shared ascending id list; the oracle
is a plain dict. Every way a set is built is covered: the constructor,
``_trusted``, ``parse_annotations`` and each cleanse transform.
"""

import gc
import io
import sys
import tracemalloc
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from labelkit.catalog import (
    AnnotationSet,
    CorpusStats,
    LabelCatalog,
    LabelRecord,
    _histogram_median,
    compute_stats,
    parse_annotations,
    write_annotations,
)
from labelkit.cleanse import (
    AndSplit,
    Merge,
    apply_and_splits,
    apply_merges,
    propagate_supercategories,
    supercategory_closure,
)
from labelkit.csvio import csv_writer
from labelkit.metrics import ScoreSet, parse_scores, threshold
from conftest import build_catalog

CATALOG = build_catalog()
KNOWN = CATALOG.ids()
LABELS = sorted(KNOWN)
SAMPLE_IDS = st.text(st.characters(blacklist_categories=("Cs",)), max_size=3)
MISSING = "no such sample"  # longer than any drawn sample id
# "sudan and egypt" (3) splits into "sudan" (4) and "egypt" (0), both held,
# so it is the one split that may remove its source.
FULL_SPLIT = AndSplit(3, (4, 0), remove_source=True)


# ---------------------------------------------------------------------------
# Oracle: the readers over {sample id: frozenset}, as they were when each
# sample was stored as a frozenset.


def oracle_stats(rows: dict, catalog: LabelCatalog) -> CorpusStats:
    frequency: Counter = Counter()
    for labels in rows.values():
        frequency.update(labels)
    histogram: Counter = Counter()
    for labels in rows.values():
        histogram[len(labels)] += 1
    category_of = {r.id: r.category for r in catalog}
    cat_coverage: Counter = Counter()
    for labels in rows.values():
        cat_coverage.update({category_of[i] for i in labels})
    return CorpusStats(
        n_samples=len(rows),
        per_label_frequency={i: frequency.get(i, 0) for i in sorted(catalog.ids())},
        labels_per_sample_histogram=dict(histogram),
        median_labels_per_sample=_histogram_median(histogram),
        category_coverage={c: cat_coverage.get(c, 0) for c in catalog.categories()},
    )


def oracle_text(rows: dict) -> str:
    buffer = io.StringIO()
    writer = csv_writer(buffer)
    writer.writerow(["id", "attribute_ids"])
    for sample_id, labels in rows.items():
        writer.writerow([sample_id, " ".join(str(i) for i in sorted(labels))])
    return buffer.getvalue()


def assert_reads_as(table: AnnotationSet, rows: dict, catalog: LabelCatalog) -> None:
    """``table`` reads as the ordered dict of frozensets ``rows`` through
    every reader and, unless it is a view, stores each sample as a tuple of
    distinct labels."""
    if type(table) is AnnotationSet:
        stored = table._index.values()
        assert all(type(v) is tuple and len(v) == len(set(v)) for v in stored)
    assert list(table) == list(rows.items())
    assert all(type(labels) is frozenset for _, labels in table)
    assert len(table) == len(rows) and table.sample_ids() == list(rows)
    for sid, labels in rows.items():
        got = table.labels_for(sid)
        assert type(got) is frozenset and got == labels
    with pytest.raises(KeyError, match="unknown sample id"):
        table.labels_for(MISSING)

    # A table of the old layout, frozensets adopted as they are, is equal.
    old = AnnotationSet._trusted(dict(rows), table.known_labels)
    assert table == old and old == table
    assert table == AnnotationSet(rows.items(), table.known_labels)
    if rows:
        sid = next(iter(rows))
        changed = {**rows, sid: rows[sid] ^ {min(table.known_labels)}}
        assert table != AnnotationSet(changed.items(), table.known_labels)
        reordered = dict(reversed(rows.items()))
        assert (table == AnnotationSet(reordered.items(), table.known_labels)) == (len(rows) < 2)

    assert table.label_frequency() == Counter(i for labels in rows.values() for i in labels)
    stats, want = compute_stats(table, catalog), oracle_stats(rows, catalog)
    assert stats == want
    for name in ("labels_per_sample_histogram", "per_label_frequency", "category_coverage"):
        assert list(getattr(stats, name).items()) == list(getattr(want, name).items())
    buffer = io.StringIO()
    write_annotations(table, buffer)
    assert buffer.getvalue() == oracle_text(rows)


# ---------------------------------------------------------------------------
# Inputs

ROWS = st.dictionaries(SAMPLE_IDS, st.lists(st.sampled_from(LABELS), max_size=8), max_size=8)


@st.composite
def merges(draw):
    """Independent merges: every id at most once, as survivor or absorbed."""
    pool = draw(st.permutations(LABELS))
    result = []
    for _ in range(draw(st.integers(0, 3))):
        size = draw(st.integers(1, 3))
        result.append(Merge(survivor=pool[0], absorbed=tuple(pool[1 : 1 + size])))
        pool = pool[1 + size :]
    return result


@st.composite
def and_splits(draw):
    """Splits with distinct sources that keep them, and maybe the one that
    removes its source; no token is a removed source."""
    full = draw(st.booleans())
    others = [label for label in LABELS if not (full and label == FULL_SPLIT.source)]
    sources = draw(st.lists(st.sampled_from(others), unique=True, max_size=3))
    result = [
        AndSplit(
            source,
            tuple(draw(st.lists(st.sampled_from([t for t in others if t != source]),
                                min_size=1, max_size=3))),
        )
        for source in sources
    ]
    return result + [FULL_SPLIT] if full else result


# Edges run from a lower to a higher id, so they never form a cycle.
HIERARCHY = st.lists(
    st.tuples(st.sampled_from(LABELS), st.sampled_from(LABELS)).filter(lambda e: e[0] < e[1]),
    max_size=6,
)


def frozen(rows: dict) -> dict:
    return {sid: frozenset(labels) for sid, labels in rows.items()}


def annotation_text(rows: dict) -> str:
    buffer = io.StringIO()
    writer = csv_writer(buffer)
    writer.writerow(["id", "attribute_ids"])
    for sid, labels in rows.items():
        writer.writerow([sid, " ".join(map(str, labels))])
    return buffer.getvalue()


# ---------------------------------------------------------------------------
# AnnotationSet, built every way


@settings(max_examples=200, deadline=None)
@given(rows=ROWS)
@example(rows={"a": [7, 3, 7, 0, 29, 12, 5, 3], "b": [], "c": [29]})
def test_constructor_trusted_and_parse_read_as_frozensets(rows):
    want = frozen(rows)
    assert_reads_as(AnnotationSet(rows.items(), KNOWN), want, CATALOG)
    stored = {sid: tuple(sorted(labels)) for sid, labels in want.items()}
    assert_reads_as(AnnotationSet._trusted(stored, KNOWN), want, CATALOG)
    # Repeated ids in a row are deduplicated with a warning.
    parsed = parse_annotations(io.StringIO(annotation_text(rows)), CATALOG)
    assert_reads_as(parsed, want, CATALOG)


@settings(max_examples=200, deadline=None)
@given(rows=ROWS, plan=merges())
@example(rows={"a": [0, 1, 2]}, plan=[Merge(survivor=0, absorbed=(1, 2))])
def test_apply_merges_reads_as_frozensets(rows, plan):
    annotations = AnnotationSet(rows.items(), KNOWN)
    merged, catalog = apply_merges(annotations, CATALOG, plan)
    rewrite = {absorbed: m.survivor for m in plan for absorbed in m.absorbed}
    want = {
        sid: frozenset(rewrite.get(label, label) for label in labels)
        for sid, labels in frozen(rows).items()
    }
    assert_reads_as(merged, want, catalog)


@settings(max_examples=200, deadline=None)
@given(rows=ROWS, plan=and_splits())
@example(rows={"a": [3, 26], "b": [3, 4, 0], "c": [5]}, plan=[FULL_SPLIT])
def test_apply_and_splits_reads_as_frozensets(rows, plan):
    annotations = AnnotationSet(rows.items(), KNOWN)
    split, catalog = apply_and_splits(annotations, CATALOG, plan)
    additions = {s.source: s.tokens for s in plan}
    removed = {s.source for s in plan if s.remove_source}

    def transform(labels):
        extra = set()
        for label in labels:
            extra.update(additions.get(label, ()))
        if extra or labels & removed:
            return (labels | extra) - removed
        return labels

    want = {sid: transform(labels) for sid, labels in frozen(rows).items()}
    assert_reads_as(split, want, catalog)


@settings(max_examples=200, deadline=None)
@given(rows=ROWS, edges=HIERARCHY)
@example(rows={"a": [2, 9], "b": [5]}, edges=[(0, 2), (1, 2), (0, 1), (5, 9)])
def test_propagate_supercategories_reads_as_frozensets(rows, edges):
    annotations = AnnotationSet(rows.items(), KNOWN)
    expanded = propagate_supercategories(annotations, edges)
    closure = supercategory_closure(edges)
    want = {
        sid: labels.union(*(closure.get(label, ()) for label in labels))
        for sid, labels in frozen(rows).items()
    }
    assert_reads_as(expanded, want, CATALOG)
    # A sample that gains nothing keeps its stored tuple.
    for sid, labels in annotations._rows():
        if expanded.labels_for(sid) == frozenset(labels):
            assert expanded._index[sid] is labels


@settings(max_examples=200, deadline=None)
@given(
    rows=st.dictionaries(
        SAMPLE_IDS,
        st.dictionaries(st.sampled_from(LABELS), st.sampled_from([0.0, 0.25, 0.5, 1.0])),
        max_size=6,
    ),
    cut=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
    edges=HIERARCHY,
)
@example(rows={"a": {9: 0.5, 2: 0.5, 17: 0.5}}, cut=0.5, edges=[(1, 9)])
def test_prediction_views_read_as_frozensets(rows, cut, edges):
    # A view stores score rows and builds its sets when read; the readers
    # that walk stored samples read those sets.
    view = threshold(ScoreSet(rows.items(), KNOWN), cut, list(rows))
    want = {
        sid: frozenset(label for label, score in cells.items() if score >= cut)
        for sid, cells in rows.items()
    }
    assert_reads_as(view, want, CATALOG)
    closure = supercategory_closure(edges)
    expanded = {
        sid: labels.union(*(closure.get(label, ()) for label in labels))
        for sid, labels in want.items()
    }
    assert_reads_as(propagate_supercategories(view, edges), expanded, CATALOG)


# ---------------------------------------------------------------------------
# ScoreRow against a dict

# Sparse ids, ids past the cached small ints, and ids no C integer holds, so
# that positions, not ids, are what a row stores.
WIDE_IDS = [0, 3, 255, 256, 257, 1000, 65_535, 65_536, 2**31, 2**32 + 5, 2**63, 10**30]


def wide_catalog(ids) -> LabelCatalog:
    return LabelCatalog(LabelRecord(i, "c", f"n{i}") for i in ids)


def assert_mapping_as(row, cells: dict, probes) -> None:
    assert row == cells and cells == row
    assert list(row) == list(cells) and list(row.items()) == list(cells.items())
    assert len(row) == len(cells)
    for cut in (0.0, 0.25, 0.5, 1.0):
        assert list(row.labels_at_least(cut)) == [k for k, v in cells.items() if v >= cut]
    for key in probes:
        assert (key in row) == (key in cells)
        assert row.get(key) == cells.get(key) and row.get(key, -1.0) == cells.get(key, -1.0)
        if key in cells:
            assert row[key] == cells[key]
        else:
            with pytest.raises(KeyError):
                row[key]


@settings(max_examples=300, deadline=None)
@given(
    known=st.sets(st.sampled_from(WIDE_IDS) | st.integers(0, 10**40), min_size=1, max_size=12),
    data=st.data(),
)
@example(known={10**30}, data=None)
def test_score_row_reads_as_a_dict(known, data):
    ids = sorted(known)
    if data is None:
        cells = {10**30: 0.5}
    else:
        cells = data.draw(
            st.dictionaries(st.sampled_from(ids), st.floats(0.0, 1.0), max_size=len(ids))
        )
    probes = [*ids, ids[0] - 1, ids[-1] + 1, -1, 1.5, "x", None]
    row = ScoreSet([("a", cells)], known).scores_for("a")
    assert row.ids == ids and row.positions.typecode == "H"
    assert_mapping_as(row, cells, probes)

    catalog = wide_catalog(ids)
    text = "id,attribute_id,score\n" + "".join(f"a,{i},{s!r}\n" for i, s in cells.items())
    parsed = parse_scores(io.StringIO(text), catalog)
    if cells:
        row = parsed.scores_for("a")
        assert list(row.positions) == [ids.index(i) for i in cells]
        assert_mapping_as(row, cells, probes)
        own = {record.id: record.id for record in catalog}
        assert all(label is own[label] for label in row)
    else:
        assert "a" not in parsed


@pytest.mark.parametrize(
    ("n_labels", "typecode"),
    [pytest.param(65_536, "H", id="65536"), pytest.param(65_537, "I", id="65537")],
)
def test_positions_hold_catalogs_past_65536_labels(n_labels, typecode):
    # Positions take 2 bytes while every position fits, and the catalog's
    # size alone decides: the checked constructor, the block path, the row
    # loop and a file whose sample comes back store the same.
    ids = list(range(0, 3 * n_labels, 3))
    cells = {ids[-1]: 0.25, ids[0]: 1.0, ids[1000]: 0.5}
    row = ScoreSet([("a", cells)], ids).scores_for("a")
    assert row.positions.typecode == typecode
    assert_mapping_as(row, cells, [ids[-1], ids[-1] + 1, ids[1001]])

    catalog = wide_catalog(ids)
    text = "id,attribute_id,score\n" + "".join(f"a,{i},{s!r}\n" for i, s in cells.items())
    row = parse_scores(io.StringIO(text), catalog).scores_for("a")
    assert row.positions.typecode == typecode and list(row.positions) == [n_labels - 1, 0, 1000]
    assert_mapping_as(row, cells, [ids[-1], ids[-1] + 1])
    # The row loop, which a quoted cell sends the file to, stores the same.
    quoted = text.replace(f"a,{ids[0]},", f'"a",{ids[0]},')
    row = parse_scores(io.StringIO(quoted), catalog).scores_for("a")
    assert row.positions.typecode == typecode and row == cells
    # So do the slots of a file whose rows are not grouped by sample.
    lines = text.splitlines(keepends=True)
    interleaved = "".join([lines[0], lines[1], f"b,{ids[1]},0.75\n", *lines[2:]])
    parsed = parse_scores(io.StringIO(interleaved), catalog)
    assert parsed._order is not None and parsed._positions.typecode == typecode
    row = parsed.scores_for("a")
    assert row.positions.typecode == typecode and row == cells
    assert parsed.scores_for("b") == {ids[1]: 0.75}


# ---------------------------------------------------------------------------
# Memory. Ids above 256 are not cached by CPython, as in a real catalog.

MEMORY_CATALOG = build_catalog([(1000 + i, "medium", f"m{i}") for i in range(400)])


def traced(parse, text: str):
    """``parse``'s result on ``text`` and the bytes it still holds."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = parse(io.StringIO(text), MEMORY_CATALOG)
        gc.collect()
        return result, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_a_parsed_score_cell_costs_under_11_bytes():
    def text(cells_per_sample):
        lines = ["id,attribute_id,score"]
        for s in range(2000):
            for k in range(cells_per_sample):
                lines.append(f"{s:016x},{1000 + (s * 7 + k * 9) % 400},{(s * k % 997) / 997!r}")
        return "\n".join(lines) + "\n"

    few, few_bytes = traced(parse_scores, text(40))
    many, many_bytes = traced(parse_scores, text(80))
    assert sum(map(len, dict(few).values())) == 80_000
    assert sum(map(len, dict(many).values())) == 160_000
    # The same samples with 40 more cells each: what one more cell costs, a
    # 2-byte position and an 8-byte score.
    assert (many_bytes - few_bytes) / 80_000 < 11


def test_a_parsed_score_sample_costs_under_100_bytes_beyond_its_cells_and_id():
    # A sample of the CSR table is its index entry, its ordinal and its
    # offset; a row of its own and two arrays cost about 250 bytes.
    lines = ["id,attribute_id,score"]
    for s in range(20_000):
        for k in range(4):
            lines.append(f"{s:016x},{1000 + (s * 7 + k * 9) % 400},{(s * k % 997) / 997!r}")
    scores, held = traced(parse_scores, "\n".join(lines) + "\n")
    assert len(scores) == 20_000
    cells = 10 * 4 * len(scores)
    ids = sum(map(sys.getsizeof, scores.sample_ids()))
    assert (held - cells - ids) / len(scores) < 100


def test_a_parsed_seven_label_sample_costs_under_250_bytes():
    lines = ["id,attribute_ids"]
    for s in range(5000):
        lines.append(f"{s:016x}," + " ".join(str(1000 + (s * 7 + k * 53) % 400) for k in range(7)))
    annotations, held = traced(parse_annotations, "\n".join(lines) + "\n")
    assert len(annotations) == 5000
    assert all(len(labels) == 7 for _, labels in annotations)
    assert held / 5000 < 250
    # The stored tuples hold the catalog's own ints.
    own = {label_id: label_id for label_id in MEMORY_CATALOG.ids()}
    assert all(i is own[i] for labels in annotations._index.values() for i in labels)
