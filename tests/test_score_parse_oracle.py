"""The positional score parser against the DictReader parser it replaced.
With a floor (``at_least``), the oracle is the DictReader parse with the
cells scored under it taken out afterwards, every sample kept."""

import csv
import io
import math
from array import array
from functools import partial

import pytest
from hypothesis import example, given, settings, strategies as st

from labelkit.catalog import LabelCatalog
from labelkit.errors import ParseError
from labelkit.metrics import ScoreSet, parse_scores
from conftest import build_catalog

CATALOG = build_catalog()
REQUIRED = ("id", "attribute_id", "score")


# ---------------------------------------------------------------------------
# Oracle: the DictReader parser, verbatim. It numbers data rows instead of
# physical lines and reads a missing cell of a short row as None.


def oracle_parse_scores(stream, catalog: LabelCatalog) -> ScoreSet:
    """Read a score file with header id,attribute_id,score. Rows for one
    sample need not be contiguous; a repeated (sample, label) cell is a hard
    error because silently keeping either value would hide a producer bug."""
    source = getattr(stream, "name", "<scores>")
    reader = csv.DictReader(stream)
    required = {"id", "attribute_id", "score"}
    if reader.fieldnames is None or not required.issubset(reader.fieldnames):
        raise ParseError(
            "expected header with columns id, attribute_id, score", source=source
        )
    known = catalog.ids()
    order: list[str] = []
    acc: dict[str, dict[int, float]] = {}
    for lineno, row in enumerate(reader, start=2):
        sid = row["id"]
        try:
            label_id = int(row["attribute_id"])
        except (TypeError, ValueError):
            raise ParseError(
                f"bad attribute id {row['attribute_id']!r}", source=source, line=lineno
            ) from None
        if label_id not in known:
            raise ParseError(
                f"unknown label id {label_id}", source=source, line=lineno
            )
        try:
            score = float(row["score"])
        except (TypeError, ValueError):
            raise ParseError(
                f"bad score {row['score']!r}", source=source, line=lineno
            ) from None
        if not 0.0 <= score <= 1.0 or math.isnan(score):
            raise ParseError(
                f"score {score!r} outside [0, 1]", source=source, line=lineno
            )
        if sid not in acc:
            order.append(sid)
            acc[sid] = {}
        elif label_id in acc[sid]:
            raise ParseError(
                f"duplicate score for sample {sid!r}, label {label_id}",
                source=source,
                line=lineno,
            )
        acc[sid][label_id] = score
    return ScoreSet(((sid, acc[sid]) for sid in order), known)


# ---------------------------------------------------------------------------
# Comparison


def floored(parse, at_least):
    """``parse`` followed by taking out every cell scored under ``at_least``."""

    def parse_then_filter(stream, catalog):
        scores = parse(stream, catalog)
        return ScoreSet(
            ((sid, {k: s for k, s in cells.items() if s >= at_least}) for sid, cells in scores),
            scores.known_labels,
        )

    return parse_then_filter


FLOORS = (0.0, 0.1, 0.5, 1.0)


def outcome(parse, text):
    """("ok", the samples' cells with their scores' exact bits) or ("error",
    line, message)."""
    try:
        scores = parse(io.StringIO(text, newline=""), CATALOG)
    except ParseError as exc:
        return ("error", exc.line, str(exc))
    bits = [(sid, list(cells), array("d", cells.values()).tobytes()) for sid, cells in scores]
    return ("ok", bits)


def data_records(text):
    """(physical end line, cells) of every non-empty record after the header."""
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, None)
    records = [(reader.line_num, row) for row in reader if row]
    return header, records


def expected_outcome(text, at_least=0.0):
    """The oracle's outcome at floor ``at_least``, corrected where the new
    parser differs on purpose: errors name the physical line, and the first
    short row (one without a cell for every required column) is rejected as
    ``wrong number of fields`` unless the oracle fails on an earlier row."""
    result = outcome(floored(oracle_parse_scores, at_least), text)
    header, records = data_records(text)
    if result[0] == "error" and result[1] is None:
        return result
    width = max(
        max(i for i, name in enumerate(header) if name == column) for column in REQUIRED
    ) + 1
    short = next((n for n, (_, row) in enumerate(records) if len(row) < width), None)
    failed_at = result[1] - 2 if result[0] == "error" else None
    if short is not None and (failed_at is None or short <= failed_at):
        line = records[short][0]
        return ("error", line, f"<scores>:{line}: wrong number of fields")
    if failed_at is None:
        return result
    line = records[failed_at][0]
    return ("error", line, result[2].replace(f":{result[1]}: ", f":{line}: ", 1))


SAMPLE_IDS = ["a", "b", "", " a", "x,y", 'q"t', "multi\nline", "crlf\r\nid"]
GOOD_LABELS = ["0", "1", "5", "12", "17", "29"]
ODD_LABELS = [" 5", "+5", "05", "5 ", "٥", "1_2", "99999", "-1", "30", "abc", "", "5.0"]
GOOD_SCORES = ["0", "1", "0.5", "0.25", "1e-3", "-0.0", "0.0", " 0.75 ", "1.0"]
ODD_SCORES = ["nan", "NaN", "inf", "-inf", "1.5", "-0.1", "abc", "", "1_0", "0x1"]


@st.composite
def score_files(draw):
    hostile = draw(st.booleans())
    columns = list(REQUIRED) + draw(
        st.lists(st.sampled_from(["extra", "note", *REQUIRED]), max_size=3)
    )
    columns = draw(st.permutations(columns))
    if hostile and draw(st.integers(0, 9)) == 0:
        columns = [c for c in columns if c != draw(st.sampled_from(REQUIRED))]
    labels = GOOD_LABELS + ODD_LABELS if hostile else GOOD_LABELS
    scores = GOOD_SCORES + ODD_SCORES if hostile else GOOD_SCORES
    values = {
        "id": st.sampled_from(SAMPLE_IDS),
        "attribute_id": st.sampled_from(labels),
        "score": st.sampled_from(scores),
    }
    rows = []
    seen = set()
    for _ in range(draw(st.integers(0, 8))):
        row = [draw(values.get(name, st.sampled_from(["", "z", "1,2"]))) for name in columns]
        cell = {name: row[i] for i, name in enumerate(columns)}
        if not hostile:
            pair = (cell.get("id"), cell.get("attribute_id"))
            if pair in seen:
                continue
            seen.add(pair)
        if hostile and draw(st.integers(0, 7)) == 0:
            row = row[: draw(st.integers(1, max(1, len(row) - 1)))]
        rows.append(row)
        if draw(st.integers(0, 4)) == 0:
            rows.append([])  # a blank line
    terminator = draw(st.sampled_from(["\n", "\r\n"]))
    quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
    out = io.StringIO(newline="")
    writer = csv.writer(out, lineterminator=terminator, quoting=quoting)
    writer.writerow(columns)
    for row in rows:
        if row:
            writer.writerow(row)
        else:
            out.write(terminator)
    return out.getvalue()


@settings(max_examples=500, deadline=None)
@given(score_files(), st.sampled_from(FLOORS))
@example("score,extra,attribute_id,id\r\n0.5,z,5,a\r\n-0.0,,12,b\r\n", 0.0)
@example("id,score,attribute_id,score\n\na,0.1,5,0.9\n\nb,0.2,17\n", 0.0)
@example('id,attribute_id,score\n" 5",+5,0.5\n"multi\nline",05,1\n"a,b", 5 ,0\n', 0.0)
@example("id,attribute_id,score\na,5,0.5\na,05,0.6\n", 0.0)
@example("id,attribute_id,score\na,99999,0.5\n", 0.0)
@example("id,attribute_id,score\na,5,nan\n", 0.0)
@example("id,attribute_id,score\na,5,inf\n", 0.0)
@example("id,attribute_id,score\nb,5\n", 0.0)
@example("attribute_id,score,id\n5,0.5\n", 0.0)
@example("", 0.0)
@example("id,attribute_id,score\na,5,0.05\nb,5,0.5\na,5,0.75\n", 0.1)
@example("id,attribute_id,score\na,5,0.75\na,5,0.05\nb,5,2\n", 0.1)
def test_parse_scores_matches_dictreader_oracle(text, at_least):
    assert outcome(partial(parse_scores, at_least=at_least), text) == expected_outcome(
        text, at_least
    )


# ---------------------------------------------------------------------------
# Line numbers, short rows and ownership


def parse_file(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8", newline="")
    with open(path, encoding="utf-8", newline="") as handle:
        return parse_scores(handle, CATALOG)


def test_errors_name_the_physical_line(tmp_path):
    with pytest.raises(ParseError) as info:
        parse_file(tmp_path, "blank.csv", "id,attribute_id,score\n\na,0,0.5\n\na,1,2.0\n")
    assert str(info.value) == f"{tmp_path / 'blank.csv'}:5: score 2.0 outside [0, 1]"
    text = 'id,attribute_id,score\r\n"two\r\nlines",0,0.5\r\n\r\na,0,0.5\r\na,0,0.7\r\n'
    with pytest.raises(ParseError) as info:
        parse_file(tmp_path, "multi.csv", text)
    assert info.value.line == 6
    assert "duplicate score for sample 'a', label 0" in str(info.value)


def test_short_row_is_rejected(tmp_path):
    with pytest.raises(ParseError) as info:
        parse_file(tmp_path, "short.csv", "id,attribute_id,score\na,0,0.5\nb,1\n")
    assert str(info.value) == f"{tmp_path / 'short.csv'}:3: wrong number of fields"
    # The id column is the short one here; the DictReader parser used to
    # accept the row under the sample id None.
    with pytest.raises(ParseError, match=":2: wrong number of fields"):
        parse_file(tmp_path, "short.csv", "attribute_id,score,id\n0,0.5\n")
    # A missing cell outside the three required columns is not an error.
    scores = parse_file(tmp_path, "ok.csv", "id,attribute_id,score,note\na,0,0.5\n")
    assert scores.scores_for("a") == {0: 0.5}


def test_parsed_set_owns_its_dicts():
    text = "id,attribute_id,score\na,0,0.5\nb,0,0.5\na,1,0.25\n"
    first = parse_scores(io.StringIO(text), CATALOG)
    second = parse_scores(io.StringIO(text), CATALOG)
    held = [cells for _, cells in first]
    assert len({id(cells) for cells in held}) == 2
    assert not {id(cells) for cells in held} & {id(cells) for _, cells in second}
    assert not {id(cells) for cells in held} & {id(v) for v in vars(CATALOG).values()}
    first.scores_for("a")[0] = 0.75
    assert second.scores_for("a") == {0: 0.5, 1: 0.25}
    assert first.scores_for("b") == {0: 0.5}
    assert first.known_labels == CATALOG.ids()


def test_public_constructor_still_checks_and_copies():
    cells = {0: 0.5}
    scores = ScoreSet([("a", cells)], {0})
    cells[0] = 0.9
    assert scores.scores_for("a") == {0: 0.5}
    with pytest.raises(ValueError, match="outside"):
        ScoreSet([("a", {0: math.nan})], {0})


def test_parsed_label_ids_are_the_catalogs_ints():
    # Ids above 256 are not cached by CPython, so only a lookup returns the
    # catalog's own object; one new int per cell would cost ~28 bytes a row.
    catalog = build_catalog([(1000, "medium", "silk"), (1001, "medium", "wool")])
    catalog_ids = {label_id: label_id for label_id in catalog.ids()}
    text = "id,attribute_id,score\na,1000,0.5\nb,01001,0.5\nb, 1000,0.25\n"
    scores = parse_scores(io.StringIO(text), catalog)
    parsed = [label_id for _, cells in scores for label_id in cells]
    assert parsed == [1000, 1001, 1000]
    assert all(label_id is catalog_ids[label_id] for label_id in parsed)
