"""parse_scores on the same cells in three row orders: sample order, sorted
by attribute_id, and shuffled. The row loop as it was before the CSR table
(``row_loop_parse_scores``, one row at a time into per-sample rows) is the
oracle: both must give the samples in order of first appearance, each
sample's cells in file order, the same predictions at every cut the floor
allows, or the same file:line for the first repeated cell.

Small block sizes make samples straddle block boundaries; a copy with a
quoted cell or CRLF line ends takes the row fallback instead of the blocks.
At each floor (``at_least``) the parse must equal the oracle's full parse
with the cells scored under the floor taken out: a file that is not grouped
by sample keeps every cell's position until its repeats are looked for.
"""

import io
import random
from array import array
from functools import partial
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from labelkit import csvio, metrics
from labelkit.metrics import parse_scores, threshold
from conftest import assert_one_layout, build_catalog, file_order_cells
from test_score_blocks_oracle import (
    FLOORS,
    benchmark_shaped,
    floored,
    outcome,
    row_loop_parse_scores,
)

CATALOG = build_catalog()
LABELS = sorted(CATALOG.ids())
SCORES = ["0", "1", "0.5", "0.25", "0.125", "0.75", "1e-3", "0.592284"]
CUTS = (0.0, 0.125, 0.25, 0.5, 1.0)


def in_order(rows, order, rng):
    """``rows`` (sample order) as a file in ``order`` would hold them."""
    if order == "attribute":
        return sorted(rows, key=lambda row: int(row[1]))  # stable: file order within a label
    if order == "shuffled":
        rows = list(rows)
        rng.shuffle(rows)
    return rows


def file_bytes(rows, copy):
    """The rows as file bytes: plain, or a copy the block reader refuses."""
    lines = ["id,attribute_id,score", *(",".join(row) for row in rows)]
    if copy == "quoted" and rows:
        lines[-1] = '"' + lines[-1].replace(",", '",', 1)
    end = "\r\n" if copy == "crlf" else "\n"
    return "".join(line + end for line in lines).encode()


def assert_matches_row_loop(
    data, rows, catalog=CATALOG, block_size=None, fallback=False, at_least=0.0
):
    parse = partial(parse_scores, at_least=at_least)
    row_loop = mock.Mock(wraps=metrics._read_rows)
    with mock.patch.object(metrics, "_read_rows", row_loop):
        got = outcome(parse, data, catalog, block_size=block_size)
    assert row_loop.called == fallback
    expected = outcome(floored(row_loop_parse_scores, at_least), data, catalog, block_size=block_size)
    assert got == expected
    if got[0] != "ok":
        return
    # The one layout, whether or not each sample's rows are contiguous.
    stream = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline="")
    with mock.patch.object(csvio, "BLOCK_SIZE", block_size or csvio.BLOCK_SIZE):
        scores = parse(stream, catalog)
    assert_one_layout(scores, file_order_cells(rows, at_least))
    assert scores.floor == at_least
    views = {cut: threshold(scores, cut, scores.sample_ids()) for cut in CUTS if cut >= at_least}
    for sid, labels, score_bits in got[1]:
        row = scores.scores_for(sid)
        assert type(row) is dict and list(row) == labels
        assert array("d", row.values()).tobytes() == score_bits
        for cut, view in views.items():
            assert view.labels_for(sid) == {label for label, s in row.items() if s >= cut}


@st.composite
def score_cells(draw):
    """Rows in sample order: distinct samples of a few distinct labels each,
    sometimes with one cell repeated later in its sample's rows."""
    n_samples = draw(st.integers(1, 7))
    rows = []
    for i in range(n_samples):
        sid = "s" * draw(st.integers(1, 4)) + str(i)
        labels = draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=6, unique=True))
        rows.extend((sid, str(label), draw(st.sampled_from(SCORES))) for label in labels)
    if draw(st.booleans()):
        sid, label, _ = draw(st.sampled_from(rows))
        at = draw(st.integers(rows.index(next(r for r in rows if r[0] == sid)) + 1, len(rows)))
        rows.insert(at, (sid, label, draw(st.sampled_from(SCORES))))
    return rows


@settings(max_examples=400, deadline=None)
@given(
    rows=score_cells(),
    order=st.sampled_from(["sample", "attribute", "shuffled"]),
    copy=st.sampled_from(["plain", "plain", "quoted", "crlf"]),
    block_size=st.sampled_from([1, 5, 16, 33, None]),  # None: the real block size
    seed=st.integers(0, 2**16),
    at_least=st.sampled_from(FLOORS),
)
@example(
    rows=[("a", "5", "0.5"), ("a", "12", "1"), ("b", "5", "0.25"), ("a", "0", "0.75")],
    order="sample", copy="plain", block_size=5, seed=0, at_least=0.0,
)
@example(
    rows=[("a", "5", "0.5"), ("b", "5", "0.25"), ("a", "12", "1"), ("b", "12", "0.5")],
    order="attribute", copy="crlf", block_size=None, seed=0, at_least=0.0,
)
@example(  # a sample comes back in the third block, after a cell was dropped
    rows=[("a", "5", "1e-3"), ("b", "12", "0.5"), ("c", "0", "1"), ("a", "5", "0.75")],
    order="sample", copy="plain", block_size=5, seed=0, at_least=0.1,
)
@example(
    rows=[("a", "5", "1e-3"), ("b", "12", "0.5"), ("c", "0", "1"), ("a", "5", "0.75")],
    order="sample", copy="crlf", block_size=None, seed=0, at_least=0.1,
)
def test_row_orders_match_row_loop(rows, order, copy, block_size, seed, at_least):
    rows = in_order(rows, order, random.Random(seed))
    data = file_bytes(rows, copy)
    assert_matches_row_loop(
        data, rows, block_size=block_size, fallback=copy != "plain", at_least=at_least
    )


@pytest.mark.parametrize("copy", ["plain", "quoted", "crlf"])
@pytest.mark.parametrize("order", ["sample", "attribute", "shuffled"])
def test_benchmark_shaped_orders_match_row_loop(order, copy):
    # More than three real blocks, so samples straddle their boundaries.
    catalog, lines = benchmark_shaped(600, seed=2)
    rows = in_order([tuple(line.split(",")) for line in lines[1:]], order, random.Random(3))
    data = file_bytes(rows, copy)
    assert len(data) > 3 * csvio.BLOCK_SIZE
    for at_least in FLOORS:
        assert_matches_row_loop(data, rows, catalog, fallback=copy != "plain", at_least=at_least)
    # A cell repeated at the end names the last line, at every floor; so
    # does one whose first copy is below the floor.
    middle = rows[len(rows) // 2]
    low = (middle[0], middle[1], "0.000001")
    for repeated_rows in ([*rows, middle], [*rows[: len(rows) // 2], low, *rows[len(rows) // 2 + 1 :], middle]):
        repeated = file_bytes(repeated_rows, copy)
        for at_least in FLOORS:
            got = outcome(partial(parse_scores, at_least=at_least), repeated, catalog)
            assert got[:2] == ("error", len(rows) + 2)
            assert got == outcome(row_loop_parse_scores, repeated, catalog)
