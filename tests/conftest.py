"""Shared corpus builders for the test suite, and the layout check every
score set must pass.

The mini corpus mirrors the shape of a real museum attribute vocabulary:
five category verticals, spelling variants, hyphen variants, connective
names, and a mutually exclusive size family. Small enough to hand-check
every expected number.
"""

import io

import pytest

from labelkit.catalog import AnnotationSet, LabelCatalog, LabelRecord, parse_labels


MINI_LABEL_ROWS = [
    (0, "country", "egypt"),
    (1, "country", "iraq"),
    (2, "country", "egypt or iraq"),
    (3, "country", "sudan and egypt"),
    (4, "country", "sudan"),
    (5, "culture", "french"),
    (6, "country", "france"),
    (7, "country", "present-day france"),
    (8, "country", "china"),
    (9, "country", "united kingdom"),
    (10, "country", "england"),
    (11, "country", "scotland"),
    (12, "medium", "watercolor"),
    (13, "medium", "watercolour"),
    (14, "medium", "bronze gilt"),
    (15, "medium", "bronze-gilt"),
    (16, "medium", "black chalk"),
    (17, "medium", "black"),
    (18, "medium", "black chalk on blue paper"),
    (19, "dimension", "tiny"),
    (20, "dimension", "small"),
    (21, "dimension", "medium"),
    (22, "dimension", "large"),
    (23, "dimension", "very large"),
    (24, "tags", "men"),
    (25, "tags", "women"),
    (26, "medium", "wool and silk"),
    (27, "medium", "silk"),
    (28, "culture", "french or spanish"),
    (29, "culture", "spanish"),
]

MINI_SAMPLE_ROWS = [
    ("s1", {12, 16, 19}),
    ("s2", {13, 17}),
    ("s3", {14, 2}),
    ("s4", {15, 3, 20}),
    ("s5", {16, 18}),
    ("s6", {8, 21}),
    ("s7", {26, 24}),
    ("s8", {28, 25}),
]


def build_catalog(rows=MINI_LABEL_ROWS) -> LabelCatalog:
    return LabelCatalog(LabelRecord(i, cat, name) for i, cat, name in rows)


def build_annotations(catalog, rows=MINI_SAMPLE_ROWS) -> AnnotationSet:
    return AnnotationSet(
        ((sid, frozenset(labels)) for sid, labels in rows), catalog.ids()
    )


@pytest.fixture(autouse=True)
def private_cache_home(tmp_path_factory, monkeypatch):
    """Each test gets its own empty cache home, which the CLI children it
    starts inherit, so no test reads or writes the user's score cache."""
    home = tmp_path_factory.mktemp("cache-home")
    monkeypatch.setenv("XDG_CACHE_HOME", str(home))
    return home


@pytest.fixture
def mini_catalog() -> LabelCatalog:
    return build_catalog()


@pytest.fixture
def mini_annotations(mini_catalog) -> AnnotationSet:
    return build_annotations(mini_catalog)


def labels_csv(rows=MINI_LABEL_ROWS) -> str:
    out = io.StringIO()
    out.write("attribute_id,attribute_name\n")
    for i, cat, name in rows:
        out.write(f"{i},{cat}::{name}\n")
    return out.getvalue()


def annotations_csv(rows=MINI_SAMPLE_ROWS) -> str:
    out = io.StringIO()
    out.write("id,attribute_ids\n")
    for sid, labels in rows:
        out.write(f"{sid},{' '.join(str(i) for i in sorted(labels))}\n")
    return out.getvalue()


def catalog_from_csv(text: str) -> LabelCatalog:
    return parse_labels(io.StringIO(text))


def file_order_cells(rows, at_least=0.0) -> dict:
    """``{sample id: [(label, score), ...]}`` for score rows given as
    ``(sample id, label text, score text)`` in file order: samples in order
    of first appearance, each with its cells scored at least ``at_least`` in
    file order (a sample whose cells all fall below keeps an empty list)."""
    cells: dict = {}
    for sid, label, score in rows:
        kept = cells.setdefault(sid, [])
        if float(score) >= at_least:
            kept.append((int(label), float(score)))
    return cells


def assert_one_layout(scores, cells: dict) -> None:
    """``scores`` has a score set's one layout, whatever order its file's
    rows came in: the offsets never decrease and end at the length of both
    columns, and sample k's slice of the columns holds ``cells[sid]``, its
    (label, score) cells in file order."""
    offsets = scores._offsets
    assert offsets[0] == 0 and len(offsets) == len(scores) + 1
    assert all(a <= b for a, b in zip(offsets, offsets[1:]))
    assert offsets[-1] == len(scores._positions) == len(scores._scores)
    assert list(scores._index.values()) == list(range(len(scores)))
    assert scores.sample_ids() == list(cells)
    for sid, k in scores._index.items():
        run = slice(offsets[k], offsets[k + 1])
        labels = [scores._ids[at] for at in scores._positions[run]]
        assert list(zip(labels, scores._scores[run])) == cells[sid]
