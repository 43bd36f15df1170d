"""The shared CSV helpers: writers quote a bare carriage return so every file
reads back unchanged, and reader errors from the csv module name file:line.
Each writer's cells read back as written, and written label names resolve
back to their ids."""

import csv
import io

import pytest
from hypothesis import given, settings, strategies as st

from labelkit.catalog import (
    AnnotationSet,
    LabelCatalog,
    LabelRecord,
    parse_annotations,
    parse_labels,
    write_annotations,
    write_labels,
)
from labelkit.cleanse import (
    DuplicatePair,
    HierarchyCandidate,
    write_duplicate_candidates,
    write_hierarchy_candidates,
)
from labelkit.csvio import CsvTable, csv_writer
from labelkit.errors import ParseError
from labelkit.metricmp import ModelFamily, parse_family, write_family
from labelkit.metrics import parse_scores
from labelkit.relgraph import RelationGraph, write_edge_list
from conftest import build_catalog

# Characters that need quoting or that the parsers split on, plus plain text.
HOSTILE = st.text(st.sampled_from(list("ab é,\"'\r\n\t;-")), max_size=8)


def reread(write, value):
    """Write ``value`` and return the text, to be parsed with newline=""."""
    out = io.StringIO(newline="")
    write(value, out)
    return io.StringIO(out.getvalue(), newline="")


def test_bare_carriage_return_is_quoted():
    out = io.StringIO()
    writer = csv_writer(out)
    writer.writerow(["a\rb", "c\nd", "e\r\nf", "plain", ""])
    writer.writerow([""])
    assert out.getvalue() == '"a\rb","c\nd","e\r\nf",plain,\n""\n'


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.one_of(HOSTILE, st.integers()), max_size=4), max_size=4))
def test_writer_bytes_match_csv_writer_without_carriage_returns(rows):
    rows = [[c.replace("\r", "") if isinstance(c, str) else c for c in row] for row in rows]
    ours, theirs = io.StringIO(), io.StringIO()
    csv_writer(ours).writerows(rows)
    csv.writer(theirs, lineterminator="\n").writerows(rows)
    assert ours.getvalue() == theirs.getvalue()


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.text(st.sampled_from(list("ab é,\"\r\n")), max_size=5), HOSTILE),
        max_size=6,
    )
)
def test_labels_round_trip(names):
    catalog = LabelCatalog(
        LabelRecord(i, category, name) for i, (category, name) in enumerate(names)
    )
    assert parse_labels(reread(write_labels, catalog)).records == catalog.records


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(HOSTILE, st.frozensets(st.sampled_from(range(30))), max_size=6))
def test_annotations_round_trip(rows):
    catalog = build_catalog()
    annotations = AnnotationSet(rows.items(), catalog.ids())
    assert parse_annotations(reread(write_annotations, annotations), catalog) == annotations


def test_annotation_id_with_bare_carriage_return_round_trips():
    catalog = build_catalog()
    annotations = AnnotationSet([("a\rb", {0}), ("c", {1})], catalog.ids())
    text = reread(write_annotations, annotations)
    assert text.getvalue() == 'id,attribute_ids\n"a\rb",0\nc,1\n'
    assert parse_annotations(text, catalog) == annotations


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(
        HOSTILE,
        st.tuples(st.floats(allow_nan=False, allow_infinity=False), st.floats(0, 1)),
        min_size=2,
        max_size=5,
    )
)
def test_family_round_trip(entries):
    family = ModelFamily((tag, f, g) for tag, (f, g) in entries.items())
    assert parse_family(reread(write_family, family)).entries == family.entries


@st.composite
def hostile_catalogs(draw):
    """Catalogs of 2 to 6 labels whose names need quoting, hold "::", or
    differ from another only in case or spacing; no two share a qualified
    name, which is what makes a written name resolve back to its id."""
    name = st.text(st.sampled_from(list("aA ,\"\r\n:")), min_size=1, max_size=6)
    names = draw(
        st.lists(
            st.tuples(st.sampled_from(["medium", "tags"]), name),
            min_size=2,
            max_size=6,
            unique=True,
        )
    )
    return LabelCatalog(LabelRecord(i, c, n) for i, (c, n) in enumerate(names))


def id_pairs(catalog):
    ids = sorted(catalog.ids())
    pair = st.tuples(st.sampled_from(ids), st.sampled_from(ids)).filter(lambda p: p[0] != p[1])
    return st.lists(pair, max_size=5)


def read_cells(text, columns):
    return list(CsvTable(io.StringIO(text, newline=""), columns, "<written>"))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_duplicate_candidates_round_trip(data):
    catalog = data.draw(hostile_catalogs())
    pairs = [
        DuplicatePair(catalog.get(a), catalog.get(b), data.draw(st.floats(0, 1)))
        for a, b in data.draw(id_pairs(catalog))
    ]
    out = io.StringIO(newline="")
    write_duplicate_candidates(pairs, out)
    assert read_cells(out.getvalue(), ["id_a", "name_a", "id_b", "name_b", "score"]) == [
        (str(p.a.id), p.a.qualified_name, str(p.b.id), p.b.qualified_name, f"{p.score:.4f}")
        for p in pairs
    ]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_hierarchy_candidates_round_trip(data):
    catalog = data.draw(hostile_catalogs())
    candidates = [
        HierarchyCandidate(catalog.get(a), catalog.get(b), data.draw(HOSTILE))
        for a, b in data.draw(id_pairs(catalog))
    ]
    out = io.StringIO(newline="")
    write_hierarchy_candidates(candidates, out)
    columns = ["super_id", "super_name", "sub_id", "sub_name", "evidence"]
    assert read_cells(out.getvalue(), columns) == [
        (str(c.super_label.id), c.super_label.qualified_name, str(c.sub_label.id),
         c.sub_label.qualified_name, c.evidence)
        for c in candidates
    ]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_edge_list_round_trips_to_ids(data):
    catalog = data.draw(hostile_catalogs())
    graph = RelationGraph(catalog.ids(), data.draw(id_pairs(catalog)))
    out = io.StringIO(newline="")
    write_edge_list(graph, catalog, out)
    cells = read_cells(out.getvalue(), ["label_a", "label_b"])
    name = lambda i: catalog.get(i).qualified_name  # noqa: E731
    assert cells == [(name(a), name(b)) for a, b in graph.edges()]
    assert [tuple(catalog.resolve_name(n).id for n in row) for row in cells] == graph.edges()


HUGE = "x" * 140_000  # above csv.field_size_limit()'s default of 131072


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_labels, f"attribute_id,attribute_name\n0,country::egypt\n\n1,{HUGE}\n"),
        (
            lambda s: parse_annotations(s, build_catalog()),
            f"id,attribute_ids\ns1,0\n\ns2,{HUGE}\n",
        ),
        (lambda s: parse_scores(s, build_catalog()), f"id,attribute_id,score\n\ns1,0,{HUGE}\n"),
        (parse_family, f"model,f_score,g_score\n\na,{HUGE},1\n"),
    ],
    ids=["labels", "annotations", "scores", "family"],
)
def test_csv_module_errors_name_the_physical_line(parse, text):
    lines = text.count("\n")
    with pytest.raises(ParseError, match=rf"^<\w+>:{lines}: field larger than field limit"):
        parse(io.StringIO(text, newline=""))
