"""The shared CSV helpers: writers quote a bare carriage return so every file
reads back unchanged, and reader errors from the csv module name file:line."""

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
from labelkit.csvio import csv_writer
from labelkit.errors import ParseError
from labelkit.metricmp import ModelFamily, parse_family, write_family
from labelkit.metrics import parse_scores
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
