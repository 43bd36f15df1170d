"""Curated edge lines split by CSV rules, against the comma-splitting parser
they replaced: a quoted name may hold a comma, and any line holding no quote
character parses exactly as before.

The csv module ends a record at a bare carriage return (the CLI's reader
already ends the line there) and, before Python 3.11, rejects NUL; an
unquoted cell longer than ``csv.field_size_limit()`` is a field-limit error
where the old parser reported an unknown label. Those characters and sizes
are left out of the comparison.
"""

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
# Oracle: the comma-splitting parser, verbatim.


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
