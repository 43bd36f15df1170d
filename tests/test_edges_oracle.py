"""Curated edge lines split by CSV rules, against the comma-splitting parser
they replaced: a quoted name may hold a comma, and any line holding no quote
character parses exactly as before, unless it is a first line
``label_a,label_b`` (the header ``write_edge_list`` writes), which the
generator of those lines does not produce. Lines with quotes are checked against records read
off the csv module itself: a '#' starts a comment where a ',' in its place
would end a cell, a record runs on while csv reads inside a quoted field, and
a quoted cell is kept as csv reads it.

The csv module ends a record at a bare carriage return (the CLI's reader
already ends the line there) and, before Python 3.11, rejects NUL; an
unquoted cell longer than ``csv.field_size_limit()`` is a field-limit error
where the old parser reported an unknown label. Those characters and sizes
are left out of the comparison.
"""

import csv
import io
from typing import IO

import pytest
from hypothesis import example, given, settings, strategies as st

from labelkit.catalog import LabelCatalog
from labelkit.errors import ParseError
from labelkit.relgraph import parse_curated_edges
from conftest import MINI_LABEL_ROWS, build_catalog

CATALOG = build_catalog(MINI_LABEL_ROWS + [(30, "medium", "ink, color"), (31, "medium", "paper")])


# ---------------------------------------------------------------------------
# Oracle: the comma-splitting parser, verbatim but for the self-edge check,
# which the parser gained after it was replaced.


def oracle_parse_curated_edges(stream: IO[str], catalog: LabelCatalog) -> list[tuple[int, int]]:
    """Read a reviewed edge file: two comma-separated label names per line,
    bare or category-qualified; '#' starts a comment."""
    edges: list[tuple[int, int]] = []
    source = getattr(stream, "name", "<edges>")
    for lineno, raw in enumerate(stream, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 2 or not all(parts):
            raise ParseError(
                "expected two comma-separated label names",
                source=source,
                line=lineno,
            )
        try:
            a = catalog.resolve_name(parts[0]).id
            b = catalog.resolve_name(parts[1]).id
        except KeyError as exc:
            raise ParseError(exc.args[0], source=source, line=lineno) from None
        if a == b:
            raise ParseError(f"self-edge on label {parts[0]!r}", source=source, line=lineno)
        edges.append((a, b))
    return edges


# ---------------------------------------------------------------------------
# Comparison


def outcome(parse, text):
    try:
        return ("ok", parse(io.StringIO(text), CATALOG))
    except ParseError as exc:
        return ("error", str(exc))


def test_quoted_name_may_hold_a_comma():
    text = '"medium::ink, color",medium::paper\n  "ink, color" , paper  # reviewed\n'
    assert parse_curated_edges(io.StringIO(text), CATALOG) == [(30, 31), (30, 31)]
    with pytest.raises(ParseError) as info:
        parse_curated_edges(io.StringIO("medium::ink, color,medium::paper\n"), CATALOG)
    assert str(info.value) == "<edges>:1: expected two comma-separated label names"


def test_hash_inside_quotes_is_part_of_a_name():
    catalog = build_catalog(MINI_LABEL_ROWS + [(30, "tags", "no. #5"), (31, "medium", "paper")])
    text = (
        '"tags::no. #5",medium::paper\n'
        '"no. #5", paper # reviewed, "#quoted" too\n'
        '# "tags::no. #5",medium::paper\n'
    )
    assert parse_curated_edges(io.StringIO(text), catalog) == [(30, 31), (30, 31)]
    with pytest.raises(ParseError) as info:
        parse_curated_edges(io.StringIO("tags::no. #5,medium::paper\n"), catalog)
    assert str(info.value) == "<edges>:1: expected two comma-separated label names"


def test_quote_inside_a_name_is_a_plain_character():
    catalog = build_catalog(MINI_LABEL_ROWS + [(30, "tags", '5" frame'), (31, "medium", "paper")])
    text = (
        'tags::5" frame,medium::paper # reviewed\n'
        '5" frame,"paper"# "quoted"\n'
        '  "5"" frame", paper # a ""note""\n'
    )
    assert parse_curated_edges(io.StringIO(text), catalog) == [(30, 31)] * 3


def test_csv_errors_name_the_line():
    text = "french, france\n\n" + "x" * 140_000 + ',"y"\n'
    with pytest.raises(ParseError, match=r"^<edges>:3: field larger than field limit"):
        parse_curated_edges(io.StringIO(text), CATALOG)


NAMES = ["egypt", "country::egypt", " Country::Egypt ", "france", "medium::paper", "ink", "nope"]
OTHER = st.characters(blacklist_characters='"\r\n\x00', blacklist_categories=("Cs",))
PIECE = st.one_of(st.sampled_from(NAMES), st.text(OTHER, max_size=4))
LINE = st.one_of(
    st.tuples(
        PIECE,
        st.sampled_from([",", ", ", " ,\t", ",,", "", "#,", "\x0b,\x1c"]),
        PIECE,
        st.sampled_from(["", " # note", "#", ", extra", "\x85", "::"]),
    ).map("".join),
    st.lists(PIECE, max_size=4).map(",".join),
)


@settings(max_examples=500, deadline=None)
@given(st.lists(LINE, max_size=5), st.sampled_from(["", "\n"]))
@example(["french, france", "", "country::egypt, iraq # c"], "\n")
@example(["egypt, france, iraq"], "")
@example(["egypt, "], "\n")
def test_lines_without_quotes_parse_as_before(lines, end):
    text = "\n".join(lines) + end
    assert outcome(parse_curated_edges, text) == outcome(oracle_parse_curated_edges, text)


# ---------------------------------------------------------------------------
# Lines with quotes, against records read off the csv module


def outside_quotes(prefix: str) -> bool:
    """Whether csv reads the end of ``prefix`` outside a quoted field: a ','
    in that place would end a cell."""

    def cells(text):
        return sum(map(len, csv.reader((text,))))

    return cells(prefix + ",") > cells(prefix)


def csv_records(stream: IO[str]):
    """``(line, record)`` for each non-blank record: each line left-stripped
    where a record starts, cut at its first '#' outside a quoted field, and
    joined to the next line while csv still reads inside a quoted field."""
    record, start = None, 0
    for lineno, raw in enumerate(stream, start=1):
        if record is None:
            record, start, raw = "", lineno, raw.lstrip()
        for i, c in enumerate(raw):
            if c == "#" and outside_quotes(record + raw[:i]):
                raw = raw[:i]
                break
        record += raw
        if outside_quotes(record.rstrip("\n")):
            if record.strip():
                yield start, record.strip()
            record = None
    if record is not None and record.strip():
        yield start, record.strip()


def csv_parse_curated_edges(stream: IO[str], catalog: LabelCatalog) -> list[tuple[int, int]]:
    """Each record split by the csv module; a cell whose field opens with a
    quote is kept as csv reads it, any other cell is stripped, a first
    record ``label_a,label_b`` is a header, and a pair naming one label twice
    is an error."""
    edges: list[tuple[int, int]] = []
    source = getattr(stream, "name", "<edges>")
    for n, (lineno, record) in enumerate(csv_records(stream)):
        try:
            cells = next(csv.reader((record,)))
        except csv.Error as exc:
            raise ParseError(str(exc), source=source, line=lineno) from None
        starts = [0] + [
            i + 1 for i, c in enumerate(record) if c == "," and outside_quotes(record[:i])
        ]
        assert len(starts) == len(cells)
        parts = [
            cell if record.startswith('"', at) else cell.strip()
            for cell, at in zip(cells, starts)
        ]
        if n == 0 and parts == ["label_a", "label_b"]:
            continue
        if len(parts) != 2 or not all(p.strip() for p in parts):
            raise ParseError(
                "expected two comma-separated label names",
                source=source,
                line=lineno,
            )
        try:
            a = catalog.resolve_name(parts[0]).id
            b = catalog.resolve_name(parts[1]).id
        except KeyError as exc:
            raise ParseError(exc.args[0], source=source, line=lineno) from None
        if a == b:
            raise ParseError(f"self-edge on label {parts[0]!r}", source=source, line=lineno)
        edges.append((a, b))
    return edges


QUOTED_CATALOG = build_catalog(
    MINI_LABEL_ROWS
    + [(30, "tags", "no. #5"), (31, "medium", "paper"), (32, "tags", '5" frame')]
)
QUOTED_PIECE = st.one_of(
    st.sampled_from(
        ['"', '""', "#", ",", " ", "\n", "paper", "tags::no. #5", '"no. #5"', '5" frame',
         '"5"" frame"', '" medium::paper"', "label_a,label_b"]
    ),
    st.text(OTHER, max_size=3),
)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.lists(QUOTED_PIECE, max_size=8).map("".join), max_size=4))
@example(['tags::5" frame,medium::paper # reviewed'])
@example(['"no. #5",paper#"', '"no. #5"x#,paper', '"a""#"'])
def test_lines_with_quotes_cut_comments_where_csv_leaves_a_field(lines):
    text = "\n".join(lines) + "\n"

    def outcome_in(parse):
        try:
            return ("ok", parse(io.StringIO(text), QUOTED_CATALOG))
        except ParseError as exc:
            return ("error", str(exc))

    assert outcome_in(parse_curated_edges) == outcome_in(csv_parse_curated_edges)
