"""parse_scores reads plain files in column blocks; the row loop it falls
back to is the oracle. Both must accept the same rows, or raise the same
ParseError message at the same line. A parse with a floor (``at_least``)
must equal the oracle's full parse with the cells scored under it taken
out afterwards: the same samples, empty ones included, and the same
errors."""

import csv
import io
import random
from array import array
from functools import partial
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from labelkit import csvio, metrics
from labelkit.csvio import CsvTable
from labelkit.errors import ParseError
from labelkit.metrics import parse_scores
from conftest import build_catalog

CATALOG = build_catalog()
DEFAULT_LIMIT = csv.field_size_limit()


# ---------------------------------------------------------------------------
# Oracle: parse_scores as it was before the block reader, verbatim, with the
# score row and duplicate check of that time. It reads every file one row at
# a time.


class PlainScores:
    """A score set as it was: the rows in a dict, iterated in file order."""

    def __init__(self, samples, known_labels):
        self.samples, self.known_labels = samples, known_labels

    def __iter__(self):
        return iter(self.samples.items())


class PlainRow:
    """A score row as it was: a list of label ids and an ``array('d')``."""

    __slots__ = ("labels", "scores")

    def __init__(self):
        self.labels = []
        self.scores = array("d")

    def __iter__(self):
        return iter(self.labels)


def _reject_duplicates(samples, stream, start, source):
    repeats = {}  # sample id -> index of its first repeated cell
    for sid, held in samples.items():
        labels = held.labels
        if len(set(labels)) < len(labels):
            seen = set()
            for index, label_id in enumerate(labels):
                if label_id in seen:
                    repeats[sid] = index
                    break
                seen.add(label_id)
    if not repeats:
        return
    stream.seek(start)
    table = CsvTable(stream, ("id", "attribute_id"), source)
    counts = dict.fromkeys(repeats, 0)
    for sid, _ in table:
        if sid in counts:
            if counts[sid] == repeats[sid]:
                label_id = samples[sid].labels[repeats[sid]]
                raise table.error(f"duplicate score for sample {sid!r}, label {label_id}")
            counts[sid] += 1


def row_loop_parse_scores(stream, catalog):
    source = getattr(stream, "name", "<scores>")
    start = stream.tell()
    table = CsvTable(stream, ("id", "attribute_id", "score"), source)
    known = {label_id: label_id for label_id in catalog.ids()}
    by_text = {str(label_id): label_id for label_id in known}
    samples = {}
    try:
        for sid, raw_label, raw_score in table:
            label_id = by_text.get(raw_label)
            if label_id is None:
                try:
                    number = int(raw_label)
                except ValueError:
                    raise table.error(f"bad attribute id {raw_label!r}") from None
                label_id = known.get(number)
                if label_id is None:
                    raise table.error(f"unknown label id {number}")
            try:
                score = float(raw_score)
            except ValueError:
                raise table.error(f"bad score {raw_score!r}") from None
            if not 0.0 <= score <= 1.0:
                raise table.error(f"score {score!r} outside [0, 1]")
            held = samples.get(sid)
            if held is None:
                samples[sid] = held = PlainRow()
            held.labels.append(label_id)
            held.scores.append(score)
    except ParseError:
        _reject_duplicates(samples, stream, start, source)
        raise
    _reject_duplicates(samples, stream, start, source)
    return PlainScores(samples, frozenset(known))


def floored(parse, at_least):
    """``parse`` followed by taking out every cell scored under ``at_least``,
    keeping each sample, in place; the oracle of a parse with that floor."""

    def parse_then_filter(stream, catalog):
        scores = parse(stream, catalog)
        for held in scores.samples.values():
            cells = [(label, s) for label, s in zip(held.labels, held.scores) if s >= at_least]
            held.labels = [label for label, _ in cells]
            held.scores = array("d", [s for _, s in cells])
        return scores

    return parse_then_filter


FLOORS = (0.0, 0.1, 0.5, 1.0)


# ---------------------------------------------------------------------------
# Comparison


def outcome(parse, data, catalog=CATALOG, block_size=None, limit=DEFAULT_LIMIT):
    """What ``parse`` makes of the bytes ``data``, opened as the CLI opens a
    file (utf-8-sig, so a byte-order mark is dropped, and newline=""): the
    rows with their scores' exact bits, or the error's line and message."""
    stream = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline="")
    csv.field_size_limit(limit)
    try:
        with mock.patch.object(csvio, "BLOCK_SIZE", block_size or csvio.BLOCK_SIZE):
            scores = parse(stream, catalog)
    except ParseError as exc:
        return ("error", exc.line, str(exc))
    except UnicodeDecodeError:
        return ("undecodable",)  # the CLI names the file and line from the bytes
    finally:
        csv.field_size_limit(DEFAULT_LIMIT)
    rows = [(sid, list(row), row.scores.tobytes()) for sid, row in scores]
    return ("ok", rows, scores.known_labels)


def assert_same(data, at_least=0.0, **kwargs):
    got = outcome(partial(parse_scores, at_least=at_least), data, **kwargs)
    assert got == outcome(floored(row_loop_parse_scores, at_least), data, **kwargs)
    return got


# Characters that str.splitlines() would end a line at, but neither the csv
# reader nor a stream opened with newline="" does, are plain.
PLAIN_IDS = [
    "a", "b", "4e6f600ef1447399", "", "a b", "é", "\U0001f600", "x;y", "a\u2028b", "\x85\x1c",
]
ODD_IDS = ['"a"', '"x,y"', '"two\nlines"', '"q""t"', 'q"t', "a\0b", "a\rb", "  "]
PLAIN_LABELS = ["0", "1", "5", "12", "17", "29"]
ODD_LABELS = [" 5", "05", "٥", "+5", "5 ", "99", "abc", "", "5.0", "1_2", '"5"']
PLAIN_SCORES = ["0", "1", "0.5", "0.25", "1e-3", "-0.0", " 0.75 ", "1.0", "0.592284"]
ODD_SCORES = ["nan", "NaN", "inf", "-inf", "1.5", "-0.1", "abc", "", "1_0", "0x1", '"0.5"']
HEADERS = [
    ["id", "attribute_id", "score"],
    ["score", "id", "attribute_id"],
    ["attribute_id", "score", "id"],
    ["id", "attribute_id", "score", "note"],
    ["id", "score", "attribute_id", "score"],
    ["id", "id", "attribute_id", "score"],
]
ODD_HEADERS = [
    ["id", "attribute_id"],
    ['"id"', "attribute_id", "score"],
    ["id", "attribute_id", "score "],
]


@st.composite
def score_files(draw):
    """Score file bytes: plain ones, which the block reader must take, and
    ones with hostile rows among plain ones, which it must hand to the row
    loop whole, however many of their blocks it has already read."""
    hostile = draw(st.booleans())
    columns = draw(st.sampled_from(HEADERS + ODD_HEADERS if hostile else HEADERS))
    plain_cells = {"id": PLAIN_IDS, "attribute_id": PLAIN_LABELS, "score": PLAIN_SCORES}
    odd_cells = {"id": ODD_IDS, "attribute_id": ODD_LABELS, "score": ODD_SCORES}
    lines = [",".join(columns) + draw(st.sampled_from(["\n", "\r\n"] if hostile else ["\n"]))]
    for _ in range(draw(st.integers(0, 12))):
        cells = [draw(st.sampled_from(plain_cells.get(name, ["", "z", "1"]))) for name in columns]
        end = "\n"
        if hostile and draw(st.integers(0, 3)) == 0:
            odd = draw(st.sampled_from(["cell", "cell", "end", "fields", "blank"]))
            if odd == "cell":
                at = draw(st.integers(0, len(columns) - 1))
                cells[at] = draw(st.sampled_from(odd_cells.get(columns[at].strip('" '), ['"z"'])))
            elif odd == "end":
                end = draw(st.sampled_from(["\r\n", "\r"]))
            elif odd == "fields":
                cells = draw(st.sampled_from([cells[:-1], [*cells, "x"]]))
            else:
                cells = draw(st.sampled_from([[], [" "]]))
        lines.append(",".join(cells) + end)
    text = "".join(lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")  # no final line end
    data = text.encode()
    if draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    if hostile and draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xe9" + data[at:]
    return data


@settings(max_examples=500, deadline=None)
@given(
    score_files(),
    st.sampled_from([1, 2, 3, 7, 16, 40, None]),  # None: the real block size
    st.sampled_from([DEFAULT_LIMIT, DEFAULT_LIMIT, 12, 4]),
    st.sampled_from(FLOORS),
)
@example(b"id,attribute_id,score\na,5,0.5\nb,12,1\n", 1, DEFAULT_LIMIT, 0.0)
@example(b'id,attribute_id,score\na,5,0.5\n"b",12,1\n', 1, DEFAULT_LIMIT, 0.0)
@example(b"id,attribute_id,score\na,5,0.5\nb,12,-0.1\n", 1, DEFAULT_LIMIT, 0.0)
@example(b"id,attribute_id,score\na,5,0.5\nb,12,1\na,5,0.25\n", 3, DEFAULT_LIMIT, 0.0)
@example(b"id,attribute_id,score\na,5,0.5\nbb,12,1\n", 3, 4, 0.0)
@example(b"score,attribute_id,id\n0.5,5,a\r\n", None, DEFAULT_LIMIT, 0.0)
@example(b"id,attribute_id,score\na,5,0.05\nb,12,1\na,12,0.5\na,5,0.25\n", 3, DEFAULT_LIMIT, 0.1)
def test_block_reader_matches_row_loop(data, block_size, limit, at_least):
    assert_same(data, at_least, block_size=block_size, limit=limit)


# ---------------------------------------------------------------------------
# Fixed cases, each through the real block size


HEADER = b"id,attribute_id,score\n"


def padding(n_rows):
    """Valid rows of distinct samples, about 15 bytes each."""
    return b"".join(b"p%06d,%d,0.5\n" % (i, i % 30) for i in range(n_rows))


CASES = {
    "quoted cells": HEADER + b'"a",5,0.5\n"x,y","12","0.25"\n',
    "CRLF": HEADER.replace(b"\n", b"\r\n") + b"a,5,0.5\r\nb,12,1\r\n",
    "bare CR": b"id,attribute_id,score\ra,5,0.5\rb,12,1\r",
    "BOM": b"\xef\xbb\xbf" + HEADER + b"a,5,0.5\n",
    "BOM and a bad row": b"\xef\xbb\xbf" + HEADER + b"a,5,0.5\nb,5,2\n",
    "blank lines": HEADER + b"\na,5,0.5\n\n\nb,12,1\n\n",
    "whitespace-only line": HEADER + b"a,5,0.5\n  \nb,12,1\n",
    "reordered header": b"score,id,attribute_id\n0.5,a,5\n1,b,12\n",
    "extra header column": b"id,note,attribute_id,score\na,,5,0.5\nb,z,12,1\n",
    "repeated header column": b"id,score,attribute_id,score\na,0.1,5,0.9\nb,0.2,12,0.3\n",
    "missing header column": b"id,score\na,0.5\n",
    "extra field": HEADER + b"a,5,0.5\nb,12,1,x\n",
    "missing field": HEADER + b"a,5,0.5\nb,12\n",
    "id with a space": HEADER + b"a,5,0.5\nb, 5,0.5\n",
    "id with a leading zero": HEADER + b"a,5,0.5\nb,05,0.5\n",
    "Arabic-Indic digit id": HEADER + "a,5,0.5\nb,٥,0.5\n".encode(),
    "unknown id": HEADER + b"a,5,0.5\nb,99,0.5\n",
    "nan": HEADER + b"a,5,0.5\nb,5,nan\n",
    "negative score": HEADER + b"a,5,0.5\nb,5,-0.1\n",
    "score above 1": HEADER + b"a,5,0.5\nb,5,1.5\n",
    "CRLF rows under an LF header, id last": b"score,attribute_id,id\n0.5,5,a\r\n1,12,b\r\n",
    "bare CR inside an id": HEADER + b"a\rb,5,0.5\n",
    "inf": HEADER + b"a,5,inf\n",
    "-0.0": HEADER + b"a,5,-0.0\nb,5,0\n",
    "1e-3": HEADER + b"a,5,1e-3\n",
    "1_0": HEADER + b"a,5,1_0\n",
    "cell over the size limit": HEADER + b"a,5,0.5\n" + b"b" * (DEFAULT_LIMIT + 1) + b",5,0.5\n",
    "NUL": HEADER + b"a,5,0.5\nb\0c,5,0.5\n",
    "no final newline": HEADER + b"a,5,0.5\nb,12,1",
    "header only": HEADER,
    "header only, no newline": HEADER[:-1],
    "empty": b"",
    "repeated cell": HEADER + b"a,5,0.5\nb,5,0.5\na,5,0.25\n",
    "repeated cell across blocks": HEADER + b"a,5,0.5\n" + padding(6000) + b"a,5,0.25\n",
    "repeated cell before a bad row": HEADER + b"a,5,0.5\na,5,0.5\n" + padding(6000) + b"b,5,x\n",
    "bad score on line 3, bad byte in a later block":
        HEADER + b"a,5,0.5\nb,5,2.0\n" + padding(6000) + b"c\xe9,5,0.5\n",
    "bad byte, then a bad score in a later block":
        HEADER + b"a\xe9,5,0.5\n" + padding(6000) + b"b,5,2.0\n",
}


@pytest.mark.parametrize("name", list(CASES))
def test_fixed_cases_match_row_loop(name):
    for at_least in FLOORS:
        assert_same(CASES[name], at_least)


def repeat_cases():
    """Files that repeat the cell (a, 5), with the copies' scores to put on
    either side of a floor, named by where the repeat is."""
    low, high = b"0.05", b"0.75"
    for first, second in ((low, high), (high, low), (low, low)):
        yield f"{first.decode()} then {second.decode()}", {
            "in one run": HEADER + b"a,5," + first + b"\na,12,0.5\na,5," + second + b"\n",
            "after another sample": HEADER + b"a,5," + first + b"\nb,5,0.5\na,5," + second + b"\n",
            "across blocks": HEADER + b"a,5," + first + b"\n" + padding(6000) + b"a,5," + second + b"\n",
            "before a bad row": HEADER + b"a,5," + first + b"\na,5," + second + b"\nb,5,x\n",
            "before a quoted row": HEADER + b"a,5," + first + b"\na,5," + second + b'\n"b",5,0.5\n',
            "before a bad byte": HEADER + b"a,5," + first + b"\na,5," + second + b"\nb\xe9,5,0.5\n",
        }


@pytest.mark.parametrize("scores, files", list(repeat_cases()))
def test_repeats_across_the_floor_match_row_loop(scores, files):
    for where, data in files.items():
        for at_least in FLOORS:
            got = assert_same(data, at_least)
            if where != "before a bad byte":  # the undecodable byte is reported instead
                assert got[0] == "error" and "duplicate score for sample 'a', label 5" in got[2]
        # A run that crosses a block boundary, cut in every place.
        for block_size in (1, 7, 16, 23):
            assert_same(data, 0.1, block_size=block_size)


def test_the_line_3_error_wins_over_a_later_bad_byte():
    got = assert_same(CASES["bad score on line 3, bad byte in a later block"])
    assert got == ("error", 3, "<scores>:3: score 2.0 outside [0, 1]")


def test_rows_straddling_a_block_boundary():
    data = HEADER + padding(6000)
    boundary = len(HEADER) + csvio.BLOCK_SIZE  # where the first block's read ends
    line = data[:boundary].count(b"\n") + 1  # the line holding that character
    rows = data.split(b"\n")
    row_start = len(b"\n".join(rows[: line - 1])) + 1
    assert row_start < boundary < row_start + len(rows[line - 1])
    assert assert_same(data)[0] == "ok"
    for bad in (b'"q",5,0.5', b"q,5,0.5,x", b"q,5", b"q,05,0.5"):
        assert_same(b"\n".join([*rows[: line - 1], bad, *rows[line:]]))
    broken = b"\n".join([*rows[: line - 1], b"q,5,2", *rows[line:]])
    assert assert_same(broken) == ("error", line, f"<scores>:{line}: score 2.0 outside [0, 1]")
    # The straddling row's cell again, at the end of the file.
    repeated = data + rows[line - 1] + b"\n"
    assert assert_same(repeated)[:2] == ("error", len(rows))


# ---------------------------------------------------------------------------
# Guard: a plain file in the benchmark's shape never reaches the row loop.


def benchmark_shaped(n_samples, seed=1):
    """A score file shaped like the benchmark's: 16-hex-digit sample ids, a
    run of distinct labels per sample, six-decimal scores, ids above 256 so
    that only a lookup shares the catalog's int objects."""
    rng = random.Random(seed)
    catalog = build_catalog([(1000 + i, "medium", f"m{i}") for i in range(60)])
    ids = sorted(catalog.ids())
    lines = ["id,attribute_id,score"]
    for _ in range(n_samples):
        sid = f"{rng.getrandbits(64):016x}"
        for label in rng.sample(ids, rng.randint(1, 40)):
            lines.append(f"{sid},{label},{rng.random():.6f}")
    return catalog, lines


@pytest.mark.parametrize("order", ["sample", "attribute"])
def test_plain_files_stay_on_the_block_path(order):
    catalog, lines = benchmark_shaped(600)
    if order == "attribute":
        lines[1:] = sorted(lines[1:], key=lambda line: int(line.split(",")[1]))
    data = ("\n".join(lines) + "\n").encode()
    assert len(data) > 3 * csvio.BLOCK_SIZE
    expected = outcome(row_loop_parse_scores, data, catalog)

    def row_loop(*args):
        raise AssertionError("a plain file fell back to the row loop")

    with mock.patch.object(metrics, "_read_rows", row_loop):
        got = outcome(parse_scores, data, catalog)
    assert got == expected and got[0] == "ok"
    own = {label_id: label_id for label_id in catalog.ids()}
    assert all(label_id is own[label_id] for _, labels, _ in got[1] for label_id in labels)
