"""A whole plan applied in one call, against the three steps chained by an
oracle over frozensets.

``apply_plan`` chains the maps of its merges, and-splits and hierarchy edges
into one map from every label to the labels it becomes and rewrites the rows
in one pass. The oracle spells each step out on ``{sample id: frozenset}``,
one after the other, and closes the hierarchy by repeated expansion,
independently of ``supercategory_closure``.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from labelkit.catalog import AnnotationSet
from labelkit.cleanse import AndSplit, Merge, TransformPlan, apply_plan
from conftest import build_catalog

CATALOG = build_catalog()
LABELS = sorted(CATALOG.ids())
STRAY = 999  # not in the catalog
SAMPLE_IDS = st.text(st.characters(blacklist_categories=("Cs",)), max_size=3)
ROWS = st.dictionaries(SAMPLE_IDS, st.lists(st.sampled_from(LABELS), max_size=8), max_size=8)
# "sudan and egypt" (3) splits into "sudan" (4) and "egypt" (0), both held,
# so it is the one split that may remove its source.
FULL_SPLIT = AndSplit(3, (4, 0), remove_source=True)


@st.composite
def chained_plans(draw):
    """Independent merges, then splits over the labels the merges leave
    (with distinct sources, no token removed), then hierarchy edges over
    the labels the splits leave, running from a lower to a higher id."""
    pool = draw(st.permutations(LABELS))
    merges = []
    for _ in range(draw(st.integers(0, 3))):
        size = draw(st.integers(1, 3))
        merges.append(Merge(pool[0], tuple(pool[1 : 1 + size])))
        pool = pool[1 + size :]
    absorbed = {label for m in merges for label in m.absorbed}
    full = draw(st.booleans()) and absorbed.isdisjoint((FULL_SPLIT.source, *FULL_SPLIT.tokens))
    left = [label for label in LABELS if label not in absorbed]
    if full:
        left.remove(FULL_SPLIT.source)
    sources = draw(st.lists(st.sampled_from(left), unique=True, max_size=3))
    splits = [
        AndSplit(
            source,
            tuple(draw(st.lists(st.sampled_from([t for t in left if t != source]),
                                min_size=1, max_size=3))),
        )
        for source in sources
    ]
    if full:
        splits.append(FULL_SPLIT)
    edge = st.tuples(st.sampled_from(left), st.sampled_from(left)).filter(lambda e: e[0] < e[1])
    return merges, splits, draw(st.lists(edge, max_size=6))


def oracle_merges(rows, merges):
    rewrite = {label: m.survivor for m in merges for label in m.absorbed}
    return {sid: frozenset(rewrite.get(label, label) for label in labels)
            for sid, labels in rows.items()}


def oracle_splits(rows, splits):
    removed = {s.source for s in splits if s.remove_source}
    result = {}
    for sid, labels in rows.items():
        tokens = {t for s in splits if s.source in labels for t in s.tokens}
        result[sid] = (labels | tokens) - removed
    return result


def oracle_propagation(rows, edges):
    result = {}
    for sid, labels in rows.items():
        labels = set(labels)
        while True:
            supers = {sup for sup, sub in edges if sub in labels} - labels
            if not supers:
                break
            labels |= supers
        result[sid] = frozenset(labels)
    return result


def assert_applied(before, after, want, known):
    """``after`` reads as ``want`` over ``known``, stores each sample as a
    tuple of distinct ids within ``known``, and keeps the stored tuple of
    every sample the plan leaves as it was."""
    assert list(after) == list(want.items())
    assert after.known_labels == known
    for sid, stored in after._index.items():
        assert type(stored) is tuple and len(stored) == len(set(stored))
        assert set(stored) <= known
        if want[sid] == before.labels_for(sid):
            assert stored is before._index[sid]


@settings(max_examples=300, deadline=None)
@given(rows=ROWS, plan=chained_plans(), stray=st.booleans())
@example(
    rows={"a": [13, 17], "b": [3, 26, 9], "c": [18], "d": [4, 0, 12]},
    plan=([Merge(12, (13,))], [FULL_SPLIT, AndSplit(26, (27,))], [(17, 16), (16, 18)]),
    stray=False,
)
def test_chained_steps_match_the_oracle(rows, plan, stray):
    merges, splits, edges = plan
    whole = TransformPlan(merges=merges, and_splits=splits, hierarchy_edges=edges)
    annotations = AnnotationSet(rows.items(), CATALOG.ids())
    if stray:
        # A row holding an id outside the catalog fails the plan.
        outside = AnnotationSet([*rows.items(), ("stray", [STRAY])], CATALOG.ids() | {STRAY})
        with pytest.raises(ValueError, match=rf"outside the catalog: \[{STRAY}\]"):
            apply_plan(outside, CATALOG, whole)

    applied, catalog = apply_plan(annotations, CATALOG, whole)
    want = oracle_merges({sid: frozenset(labels) for sid, labels in rows.items()}, merges)
    want = oracle_propagation(oracle_splits(want, splits), edges)
    absorbed = {label for m in merges for label in m.absorbed}
    removed = {s.source for s in splits if s.remove_source}
    assert_applied(annotations, applied, want, CATALOG.ids() - absorbed - removed)
    assert catalog.ids() == applied.known_labels
