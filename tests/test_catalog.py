"""Vocabulary and annotation parsing, stats, and lookups."""

import io
import logging

import pytest

from labelkit.catalog import (
    AnnotationSet,
    LabelCatalog,
    LabelRecord,
    UNCATEGORIZED,
    canonicalize,
    compute_stats,
    cooccurrence,
    parse_annotations,
    parse_labels,
    write_annotations,
    write_labels,
)
from labelkit.errors import ParseError
from conftest import (
    MINI_SAMPLE_ROWS,
    annotations_csv,
    build_annotations,
    build_catalog,
    labels_csv,
)


def test_canonicalize():
    assert canonicalize("  Bronze   Gilt ") == "bronze gilt"
    assert canonicalize("WATERCOLOR") == "watercolor"
    # Hyphens survive canonicalization; folding them is the duplicate
    # finder's decision, not the identity rule.
    assert canonicalize("bronze-gilt") == "bronze-gilt"
    assert canonicalize("Café") == canonicalize("Café")


def test_label_record():
    record = LabelRecord(3, "medium", "Black  Chalk")
    assert record.canonical == "black chalk"
    assert record.qualified_name == "medium::Black  Chalk"
    with pytest.raises(ValueError):
        LabelRecord(-1, "medium", "x")


def test_catalog_basics(mini_catalog):
    assert len(mini_catalog) == 30
    assert mini_catalog.get(14).name == "bronze gilt"
    assert mini_catalog.find("medium", "Bronze Gilt").id == 14
    assert mini_catalog.find("medium", "no such") is None
    assert 14 in mini_catalog
    assert mini_catalog.categories() == sorted(
        {"country", "culture", "dimension", "medium", "tags"}
    )
    assert mini_catalog.category_ids("dimension") == frozenset({19, 20, 21, 22, 23})


def test_catalog_rejects_duplicate_ids():
    with pytest.raises(ValueError):
        LabelCatalog([LabelRecord(1, "a", "x"), LabelRecord(1, "a", "y")])


def test_resolve_name(mini_catalog):
    assert mini_catalog.resolve_name("medium::bronze gilt").id == 14
    assert mini_catalog.resolve_name("china").id == 8
    with pytest.raises(KeyError):
        mini_catalog.resolve_name("nonexistent")
    with pytest.raises(KeyError):
        mini_catalog.resolve_name("medium::nonexistent")
    # "medium" is both a category and a dimension label name; the bare form
    # resolves because only one *label* carries the name.
    assert mini_catalog.resolve_name("medium").id == 21


def test_resolve_name_ambiguous():
    catalog = build_catalog([(0, "country", "turkey"), (1, "tags", "turkey")])
    with pytest.raises(KeyError):
        catalog.resolve_name("turkey")
    assert catalog.resolve_name("tags::turkey").id == 1


def test_parse_labels_round_trip(mini_catalog):
    out = io.StringIO()
    write_labels(mini_catalog, out)
    parsed = parse_labels(io.StringIO(out.getvalue()))
    assert [(r.id, r.category, r.name) for r in parsed] == [
        (r.id, r.category, r.name) for r in mini_catalog
    ]


def test_parse_labels_from_fixture_text(mini_catalog):
    parsed = parse_labels(io.StringIO(labels_csv()))
    assert len(parsed) == len(mini_catalog)
    assert parsed.get(18).name == "black chalk on blue paper"


def test_parse_labels_name_with_comma():
    text = 'attribute_id,attribute_name\n0,"medium::ink, color"\n'
    catalog = parse_labels(io.StringIO(text))
    assert catalog.get(0).name == "ink, color"


def test_parse_labels_errors():
    with pytest.raises(ParseError):
        parse_labels(io.StringIO("wrong,header\n1,x\n"))
    with pytest.raises(ParseError, match=":2:"):
        parse_labels(io.StringIO("attribute_id,attribute_name\nnotanint,a::b\n"))
    with pytest.raises(ParseError):
        parse_labels(io.StringIO("attribute_id,attribute_name\n-4,a::b\n"))
    with pytest.raises(ParseError):
        parse_labels(
            io.StringIO("attribute_id,attribute_name\n1,a::b\n1,a::c\n")
        )


def test_parse_labels_missing_separator_warns(caplog):
    text = "attribute_id,attribute_name\n0,plain name\n"
    with caplog.at_level(logging.WARNING):
        catalog = parse_labels(io.StringIO(text))
    assert catalog.get(0).category == UNCATEGORIZED
    assert any("separator" in r.getMessage() for r in caplog.records)


def test_annotation_set_validation(mini_catalog):
    with pytest.raises(ValueError):
        AnnotationSet([("a", frozenset({0})), ("a", frozenset({1}))], mini_catalog.ids())
    with pytest.raises(ValueError):
        AnnotationSet([("a", frozenset({99999}))], mini_catalog.ids())


def test_parse_annotations(mini_catalog):
    parsed = parse_annotations(io.StringIO(annotations_csv()), mini_catalog)
    assert len(parsed) == len(MINI_SAMPLE_ROWS)
    assert parsed.labels_for("s4") == frozenset({15, 3, 20})
    assert parsed.sample_ids()[0] == "s1"


def test_parse_annotations_round_trip(mini_catalog, mini_annotations):
    out = io.StringIO()
    write_annotations(mini_annotations, out)
    parsed = parse_annotations(io.StringIO(out.getvalue()), mini_catalog)
    assert parsed == mini_annotations


def test_parse_annotations_errors(mini_catalog):
    with pytest.raises(ParseError):
        parse_annotations(io.StringIO("id,attribute_ids\nx,99999\n"), mini_catalog)
    with pytest.raises(ParseError):
        parse_annotations(
            io.StringIO("id,attribute_ids\nx,1\nx,2\n"), mini_catalog
        )
    with pytest.raises(ParseError):
        parse_annotations(io.StringIO("bad,header\nx,1\n"), mini_catalog)


def test_parse_annotations_duplicate_label_knob(mini_catalog, caplog):
    text = "id,attribute_ids\nx,1 1 2\n"
    with caplog.at_level(logging.WARNING):
        parsed = parse_annotations(io.StringIO(text), mini_catalog)
    assert parsed.labels_for("x") == frozenset({1, 2})
    assert any("duplicate" in r.getMessage() for r in caplog.records)
    with pytest.raises(ParseError):
        parse_annotations(
            io.StringIO(text), mini_catalog, on_duplicate_label="error"
        )


def test_compute_stats(mini_catalog, mini_annotations):
    stats = compute_stats(mini_annotations, mini_catalog)
    assert stats.n_samples == 8
    assert stats.labels_per_sample_histogram == {2: 6, 3: 2}
    assert stats.median_labels_per_sample == 2
    assert stats.per_label_frequency[16] == 2
    assert stats.per_label_frequency[22] == 0
    assert stats.category_coverage["dimension"] == 3
    assert stats.category_coverage["tags"] == 2


def test_median_is_lower_median():
    catalog = build_catalog([(0, "a", "x"), (1, "a", "y"), (2, "a", "z")])
    # Sizes 1, 1, 2, 3: even count, lower median = 1.
    annotations = AnnotationSet(
        [
            ("p", frozenset({0})),
            ("q", frozenset({1})),
            ("r", frozenset({0, 1})),
            ("s", frozenset({0, 1, 2})),
        ],
        catalog.ids(),
    )
    stats = compute_stats(annotations, catalog)
    assert stats.median_labels_per_sample == 1


def test_cooccurrence(mini_annotations):
    # black chalk (16) appears in s1 and s5; black (17) in s2; never together.
    assert cooccurrence(mini_annotations, 16, 17) == (2, 1, 0)
    count_a, count_b, both = cooccurrence(mini_annotations, 16, 18)
    assert (count_a, count_b, both) == (2, 1, 1)
    with pytest.raises(ValueError):
        cooccurrence(mini_annotations, 16, 16)


def test_label_frequency(mini_annotations):
    freq = mini_annotations.label_frequency()
    assert freq[16] == 2
    assert freq[12] == 1
    assert 22 not in freq
