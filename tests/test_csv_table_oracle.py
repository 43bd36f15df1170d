"""The CsvTable-based label, annotation and family parsers against the
DictReader parsers they replaced.

The new parsers must return equal objects, or raise a ParseError with the
same message, and log the same warnings. Two differences are on purpose:

- a header without the required columns reads ``<file>: expected header with
  columns a, b`` (the wording score and family files already used), where
  labels and annotations said ``<file>:1: missing required columns: ...`` or
  ``<file>:1: empty file, expected a header row``;
- a family file's repeated tag or non-finite score names the line of its
  row, and is reported when that row is read, before any later bad row.
"""

import csv
import io
import logging
import math
from contextlib import contextmanager
from typing import IO, Iterator

from hypothesis import HealthCheck, example, given, settings, strategies as st

from labelkit.catalog import (
    UNCATEGORIZED,
    AnnotationSet,
    LabelCatalog,
    LabelRecord,
    parse_annotations,
    parse_labels,
)
from labelkit.errors import ParseError
from labelkit.metricmp import FamilyEntry, ModelFamily, parse_family
from conftest import build_catalog

log = logging.getLogger("labelkit.catalog")
CATALOG = build_catalog()
HUGE = "h" * 140_000  # above csv.field_size_limit()'s default of 131072


# ---------------------------------------------------------------------------
# Oracles: the DictReader parsers and their error helper, verbatim.


@contextmanager
def csv_errors(reader, source: str) -> Iterator[None]:
    """Raise a ``csv.Error`` from ``reader`` (such as a cell longer than
    ``csv.field_size_limit()``) as a :class:`ParseError` naming
    ``source`` and the physical line it failed on. ``reader`` is a
    ``csv.reader``; pass a ``DictReader``'s ``.reader``, whose own
    ``line_num`` still names the last row it returned."""
    try:
        yield
    except csv.Error as exc:
        raise ParseError(str(exc), source=source, line=reader.line_num) from None


def oracle_parse_labels(stream: IO[str]) -> LabelCatalog:
    """Parse a label vocabulary file into a catalog.

    Rows missing the category separator land in the "uncategorized" category
    with a warning. Malformed rows and duplicate ids are hard errors.
    """
    source = getattr(stream, "name", "<labels>")
    reader = csv.DictReader(stream)
    with csv_errors(reader.reader, source):
        if reader.fieldnames is None:
            raise ParseError("empty file, expected a header row", source=source, line=1)
        missing = {"attribute_id", "attribute_name"} - set(reader.fieldnames)
        if missing:
            raise ParseError(
                f"missing required columns: {', '.join(sorted(missing))}",
                source=source,
                line=1,
            )

        records: list[LabelRecord] = []
        seen: set[int] = set()
        for row in reader:
            line = reader.line_num
            raw_id = row.get("attribute_id")
            raw_name = row.get("attribute_name")
            if raw_id is None or raw_name is None:
                raise ParseError("wrong number of fields", source=source, line=line)
            try:
                label_id = int(raw_id)
            except ValueError:
                raise ParseError(f"bad label id {raw_id!r}", source=source, line=line) from None
            if label_id < 0:
                raise ParseError(f"negative label id {label_id}", source=source, line=line)
            if label_id in seen:
                raise ParseError(f"duplicate label id {label_id}", source=source, line=line)
            seen.add(label_id)

            category, separator, name = raw_name.partition("::")
            if not separator:
                log.warning(
                    "%s:%d: label %d has no %r separator, categorized as %r",
                    source,
                    line,
                    label_id,
                    "::",
                    UNCATEGORIZED,
                )
                category, name = UNCATEGORIZED, raw_name
            records.append(LabelRecord(id=label_id, category=category, name=name))
    return LabelCatalog(records)


def oracle_parse_annotations(
    stream: IO[str],
    catalog: LabelCatalog,
    *,
    on_duplicate_label: str = "warn",
) -> AnnotationSet:
    """Parse a sample/label-ids file, validating every id against ``catalog``.

    Each row is checked once, while it is read, and errors name the file and
    the physical line. Duplicate label ids within one row are deduplicated
    with a warning by default (``on_duplicate_label="error"`` makes them
    fatal); the files are third-party data and hard failure would block
    ingestion.
    """
    if on_duplicate_label not in ("warn", "error"):
        raise ValueError(f"bad on_duplicate_label {on_duplicate_label!r}")
    source = getattr(stream, "name", "<annotations>")
    reader = csv.DictReader(stream)
    with csv_errors(reader.reader, source):
        if reader.fieldnames is None:
            raise ParseError("empty file, expected a header row", source=source, line=1)
        missing = {"id", "attribute_ids"} - set(reader.fieldnames)
        if missing:
            raise ParseError(
                f"missing required columns: {', '.join(sorted(missing))}",
                source=source,
                line=1,
            )

        known = catalog.ids()
        samples: dict[str, frozenset[int]] = {}
        for row in reader:
            line = reader.line_num
            sample_id = row.get("id")
            raw_ids = row.get("attribute_ids")
            if sample_id is None or raw_ids is None:
                raise ParseError("wrong number of fields", source=source, line=line)
            if sample_id in samples:
                raise ParseError(f"duplicate sample id {sample_id!r}", source=source, line=line)

            parts = raw_ids.split()
            labels: set[int] = set()
            for part in parts:
                try:
                    label_id = int(part)
                except ValueError:
                    raise ParseError(
                        f"bad label id {part!r} in sample {sample_id!r}",
                        source=source,
                        line=line,
                    ) from None
                if label_id not in known:
                    raise ParseError(
                        f"sample {sample_id!r} references unknown label id {label_id}",
                        source=source,
                        line=line,
                    )
                if label_id in labels:
                    if on_duplicate_label == "error":
                        raise ParseError(
                            f"duplicate label id {label_id} in sample {sample_id!r}",
                            source=source,
                            line=line,
                        )
                    log.warning(
                        "%s:%d: duplicate label id %d in sample %r, deduplicated",
                        source,
                        line,
                        label_id,
                        sample_id,
                    )
                labels.add(label_id)
            samples[sample_id] = frozenset(labels)
    return AnnotationSet._trusted(samples, known)


def oracle_parse_family(stream: IO[str]) -> ModelFamily:
    """Read a family file with header model,f_score,g_score. Errors name the
    physical line; a row missing a required cell is rejected."""
    source = getattr(stream, "name", "<family>")
    reader = csv.DictReader(stream)
    required = {"model", "f_score", "g_score"}
    with csv_errors(reader.reader, source):
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ParseError(
                "expected header with columns model, f_score, g_score", source=source
            )
        entries = []
        for row in reader:
            line = reader.line_num
            model, f_score, g_score = row["model"], row["f_score"], row["g_score"]
            if model is None or f_score is None or g_score is None:
                raise ParseError("wrong number of fields", source=source, line=line)
            try:
                entries.append(FamilyEntry(model, float(f_score), float(g_score)))
            except ValueError as exc:
                raise ParseError(str(exc), source=source, line=line) from None
    try:
        return ModelFamily(entries)
    except ValueError as exc:
        raise ParseError(str(exc), source=source) from None


# ---------------------------------------------------------------------------
# Comparison


def outcome(parse, text, caplog):
    """(("ok", value) or ("error", message), warnings logged)."""
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="labelkit.catalog"):
        try:
            result = ("ok", parse(io.StringIO(text, newline="")))
        except ParseError as exc:
            result = ("error", str(exc))
    return result, [(r.levelname, r.getMessage()) for r in caplog.records]


def header_mapped(result, columns):
    """The oracle's header errors in the shared wording."""
    if result[0] == "error" and (
        ":1: missing required columns: " in result[1]
        or ":1: empty file, expected a header row" in result[1]
    ):
        source = result[1].split(":1: ", 1)[0]
        return ("error", f"{source}: expected header with columns {', '.join(columns)}")
    return result


def family_mapped(result, text):
    """The oracle's family outcome with its first repeated tag or non-finite
    score moved to the line of its row, when that row comes before the row
    the oracle failed on (every row before it parsed)."""
    if result[0] == "error" and "expected header" in result[1]:
        return result
    failed_at = None
    if result[0] == "error" and result[1].startswith("<family>:"):
        prefix = result[1].split(": ", 1)[0]
        if prefix.count(":") == 1:
            failed_at = int(prefix.split(":")[1])
    reader = csv.reader(io.StringIO(text, newline=""))
    cells = None
    tags = set()
    while True:
        try:
            row = next(reader)
        except (StopIteration, csv.Error):  # the oracle stopped here too
            return result
        if cells is None:
            position = {name: i for i, name in enumerate(row)}
            cells = [position[name] for name in ("model", "f_score", "g_score")]
            continue
        if failed_at is not None and reader.line_num >= failed_at:
            return result
        if not row:
            continue
        tag, f, g = row[cells[0]], float(row[cells[1]]), float(row[cells[2]])
        if tag in tags:
            fault = f"duplicate model tag {tag!r}"
        elif not (math.isfinite(f) and math.isfinite(g)):
            fault = f"model {tag!r} has a non-finite score"
        else:
            tags.add(tag)
            continue
        return ("error", f"<family>:{reader.line_num}: {fault}")


@st.composite
def csv_files(draw, required, pools, extras=("note", "extra")):
    """CSV text with a header over ``required`` (reordered, sometimes
    repeated, sometimes missing one) plus extra columns, and rows of cells
    drawn from ``pools``: blank lines, short rows and extra cells, LF or
    CRLF, minimal or full quoting, and raw lines with stray quotes."""
    columns = list(required) + draw(st.lists(st.sampled_from([*extras, *required]), max_size=3))
    columns = draw(st.permutations(columns))
    if draw(st.integers(0, 9)) == 0:
        dropped = draw(st.sampled_from(required))
        columns = [c for c in columns if c != dropped]
    terminator = draw(st.sampled_from(["\n", "\r\n"]))
    quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
    out = io.StringIO(newline="")
    writer = csv.writer(out, lineterminator=terminator, quoting=quoting)
    if draw(st.integers(0, 19)):
        writer.writerow(columns)
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            out.write(terminator)  # a blank line
        elif kind == 1:
            out.write(draw(st.sampled_from(['a"b,0', '"x"y,0', '0,"open'])) + terminator)
        else:
            row = [draw(st.sampled_from(pools.get(name, ["", "z", "1,2"]))) for name in columns]
            if kind == 2:
                row = row[: draw(st.integers(0, max(0, len(row) - 1)))]
            elif kind == 3:
                row.append("surplus")
            writer.writerow(row)
    return out.getvalue()


LABEL_COLUMNS = ("attribute_id", "attribute_name")
LABEL_POOLS = {
    "attribute_id": ["0", "1", "2", "17", " 3", "+4", "05", "-1", "x", "", "1.0", HUGE],
    "attribute_name": [
        "country::egypt",
        "medium::ink, color",
        'medium::18" rule',
        "no separator",
        "multi\nline::name",
        "::",
        "",
        HUGE,
    ],
}

ANNOTATION_COLUMNS = ("id", "attribute_ids")
ANNOTATION_POOLS = {
    "id": ["s1", "s2", "", "a,b", 'q"t', "multi\nline", "crlf\r\nid"],
    "attribute_ids": ["0", "0 1", "1 1", " 2  3 ", "0\t29", "5 99", "x", "", "-1", HUGE],
}

FAMILY_COLUMNS = ("model", "f_score", "g_score")
SCORE_CELLS = ["0.1", "0.5", "1", " 0.3 ", "-2", "1e-9"] * 3 + [
    "nan", "inf", "-inf", "1e400", "oops", ""
]
FAMILY_POOLS = {
    "model": ["a", "b", "c", "d", "e", "", "a,b", 'q"t', "multi\nline", HUGE],
    "f_score": SCORE_CELLS,
    "g_score": SCORE_CELLS,
}


SETTINGS = settings(
    max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@SETTINGS
@given(text=csv_files(LABEL_COLUMNS, LABEL_POOLS))
@example(text="")
@example(text="\nattribute_id,attribute_name\n0,a::b\n")
@example(text="attribute_name,attribute_id,attribute_id\r\nx::y,0\r\n")
@example(text='attribute_id,attribute_name\n0,"a::b\nc"\n\n1,nosep\n1,dup::x\n')
@example(text=f"attribute_id,attribute_name\n0,a::b\n\n1,{HUGE}\n")
def test_parse_labels_matches_dictreader_oracle(text, caplog):
    expected, warnings = outcome(oracle_parse_labels, text, caplog)
    got = outcome(parse_labels, text, caplog)
    if expected[0] == "ok":
        expected = ("ok", expected[1].records)
        got = (("ok", got[0][1].records) if got[0][0] == "ok" else got[0], got[1])
    assert got == (header_mapped(expected, LABEL_COLUMNS), warnings)


@SETTINGS
@given(
    text=csv_files(ANNOTATION_COLUMNS, ANNOTATION_POOLS),
    on_duplicate_label=st.sampled_from(["warn", "error"]),
)
@example(text="", on_duplicate_label="warn")
@example(text="attribute_ids,id,id\n1 1,s1\n", on_duplicate_label="warn")
@example(text="id,attribute_ids\ns1,0 0\n\ns2,1\ns1,2\n", on_duplicate_label="warn")
@example(text="id,attribute_ids\ns1,0 0\n", on_duplicate_label="error")
@example(text='id,attribute_ids\n"a\r\nb",0\n"c,d",1\ne,99\n', on_duplicate_label="warn")
def test_parse_annotations_matches_dictreader_oracle(text, on_duplicate_label, caplog):
    def parser(parse):
        return lambda s: parse(s, CATALOG, on_duplicate_label=on_duplicate_label)

    expected, warnings = outcome(parser(oracle_parse_annotations), text, caplog)
    got = outcome(parser(parse_annotations), text, caplog)
    assert got == (header_mapped(expected, ANNOTATION_COLUMNS), warnings)


@SETTINGS
@given(text=csv_files(FAMILY_COLUMNS, FAMILY_POOLS))
@example(text="")
@example(text="model,f_score,g_score\na,0.1,0.2\n\nb,inf,0.3\nc,oops,1\n")
@example(text="model,f_score,g_score\na,0.1,0.2\nb,0.1,0.2\n\na,0.5,0.5\n")
@example(text="g_score,model,f_score,model\n0.1,x,0.2,a\n0.3,y,0.4,b\n")
@example(text="model,f_score,g_score\na,0.1,0.2\n")
@example(text=f"model,f_score,g_score\na,0.1,0.2\na,0.3,0.4\n{HUGE},1,1\n")
@example(text="model,f_score,g_score\na,0.1\n")
@example(text=f"{HUGE},f_score,g_score\na,0.1,0.2\n")
def test_parse_family_matches_dictreader_oracle(text, caplog):
    expected, warnings = outcome(oracle_parse_family, text, caplog)
    got = outcome(parse_family, text, caplog)
    if expected[0] == "ok":
        expected = ("ok", expected[1].entries)
        got = (("ok", got[0][1].entries) if got[0][0] == "ok" else got[0], got[1])
    assert got == (family_mapped(expected, text), warnings)
