"""Candidate generation and plan application."""

import io
import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from labelkit.catalog import AnnotationSet, LabelCatalog, LabelRecord, parse_labels
from labelkit.cleanse import (
    AndSplit,
    DuplicatePair,
    Merge,
    OrGroup,
    TransformPlan,
    and_splits_from_tally,
    apply_plan,
    classify_connectives,
    find_duplicates,
    find_hierarchy_candidates,
    load_plan,
    or_groups_from_tally,
    split_label,
    supercategory_closure,
    tally_as_dict,
    validate_plan,
    write_plan,
    _fold_hyphens,
)
from labelkit.errors import PlanError
from labelkit.textkit import Connective, SplitClass, edit_distance_capped
from conftest import MINI_LABEL_ROWS, build_annotations, build_catalog


# ---------------------------------------------------------------------------
# Duplicate candidates


def similarity_ratio(a, b):
    """``1 - d / L`` with L the longer length, 1.0 for equal strings; the cap
    L never cuts the distance short."""
    if a == b:
        return 1.0
    longest = max(len(a), len(b))
    return 1.0 - edit_distance_capped(a, b, longest) / longest


def brute_force_duplicates(catalog, threshold, same_category_only=True):
    """Independent quadratic scan using the uncapped ratio directly."""
    records = list(catalog)
    found = set()
    for i, a in enumerate(records):
        for b in records[i + 1:]:
            if same_category_only and a.category != b.category:
                continue
            fold_a = " ".join(a.canonical.replace("-", " ").split())
            fold_b = " ".join(b.canonical.replace("-", " ").split())
            score = 1.0 if fold_a == fold_b else similarity_ratio(a.canonical, b.canonical)
            if score >= threshold:
                found.add((a.id, b.id))
    return found


def all_pairs_duplicates(catalog, threshold, same_category_only=True, category=None):
    """The all-pairs scan ``find_duplicates`` ran before its filtered join:
    every pair of a pool through the capped kernel. Same pairs, scores and
    order are expected from the join."""
    records = [r for r in catalog if category is None or r.category == category]
    if same_category_only:
        pools = {}
        for record in records:
            pools.setdefault(record.category, []).append(record)
        groups = pools.values()
    else:
        groups = [records]

    pairs = []
    for group in groups:
        strings = [r.canonical for r in group]
        folded = [_fold_hyphens(s) for s in strings]
        lengths = [len(s) for s in strings]
        n = len(group)
        for i in range(n):
            si, fi, li = strings[i], folded[i], lengths[i]
            for j in range(i + 1, n):
                longest = max(li, lengths[j])
                if longest == 0:
                    score = 1.0
                elif fi == folded[j]:
                    score = 1.0
                else:
                    # Smallest cap that cannot lose a qualifying pair.
                    cap = min(longest, int((1.0 - threshold) * longest) + 1)
                    d = edit_distance_capped(si, strings[j], cap)
                    if d > cap:
                        continue
                    score = 1.0 - d / longest
                if score >= threshold:
                    a, b = group[i], group[j]
                    if a.id > b.id:
                        a, b = b, a
                    pairs.append(DuplicatePair(a, b, score))
    pairs.sort(key=lambda p: (-p.score, p.a.id, p.b.id))
    return pairs


# Near-duplicates come from random edits of a few base names, so pairs at
# every distance occur; the fixed names add hyphen-fold ties, repeated and
# empty canonical names, whitespace-only names (canonically empty) and
# Unicode that NFC-normalizes or lowercases to an existing name.
_DUPE_ALPHABET = "abcé漢 -"
_FIXED_NAMES = ["", "   ", "\t", "-", "--", "a", "a-", "bronze gilt", "bronze-gilt",
                "bronze - gilt", "Bronze-Gilt", "watercolor", "watercolour",
                "naïve", "nai\u0308ve", "ÉTÉ", "été", "straße", "strasse"]


@st.composite
def _edited(draw, base):
    chars = list(base)
    for _ in range(draw(st.integers(0, 4))):
        op = draw(st.sampled_from(["insert", "delete", "substitute"]))
        at = draw(st.integers(0, len(chars)))
        char = draw(st.sampled_from(_DUPE_ALPHABET))
        if op == "insert":
            chars.insert(at, char)
        elif at < len(chars):
            if op == "delete":
                del chars[at]
            else:
                chars[at] = char
    return "".join(chars)


@st.composite
def _dupe_catalogs(draw):
    bases = draw(st.lists(st.text(alphabet=_DUPE_ALPHABET, max_size=16), min_size=1, max_size=4))
    names = draw(
        st.lists(
            st.one_of(
                st.sampled_from(_FIXED_NAMES),
                st.sampled_from(bases).flatmap(_edited),
                st.text(max_size=6),
            ),
            max_size=24,
        )
    )
    categories = [draw(st.sampled_from(["m", "t", "c"])) for _ in names]
    ids = draw(st.permutations(range(len(names))))
    return LabelCatalog(LabelRecord(i, c, n) for i, c, n in zip(ids, categories, names))


@given(
    catalog=_dupe_catalogs(),
    threshold=st.one_of(
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
        st.sampled_from([1.0, 0.9, 0.8, 0.75, 2 / 3, 0.5, 1e-9, 5e-324]),
    ),
    same_category_only=st.booleans(),
    scoped=st.booleans(),
)
@settings(max_examples=400, deadline=None)
# Thresholds where float rounding lets a pair at distance exactly K qualify:
# a partner at the bottom of the length window, and a pair with a zero
# bigram bound that shares no bigram at all.
@example(build_catalog([(0, "m", "abcdefghij"), (1, "m", "abcdefghi")]), 0.9, True, False)
@example(build_catalog([(0, "m", "abc"), (1, "m", "axc")]), 1 - 1 / 3, True, False)
def test_find_duplicates_matches_all_pairs(catalog, threshold, same_category_only, scoped):
    category = catalog.categories()[0] if scoped and len(catalog) else None
    got = find_duplicates(
        catalog, threshold=threshold, same_category_only=same_category_only, category=category
    )
    want = all_pairs_duplicates(catalog, threshold, same_category_only, category)
    assert got == want


def test_find_duplicates_filter_engages_on_long_names():
    # Long names at a high threshold give a positive bigram bound, so the
    # count filter, not the window fallback, picks the verified pairs.
    rng = random.Random(3)
    base = ["".join(rng.choice("abcdefgh ") for _ in range(rng.randrange(15, 40))) for _ in range(20)]
    names = base + [b[:k] + rng.choice("xyz") + b[k + 1:] for b in base for k in (3, 9)]
    catalog = LabelCatalog(LabelRecord(i, "m", n) for i, n in enumerate(names))
    for threshold in (0.95, 0.9, 0.8, 0.6):
        assert find_duplicates(catalog, threshold) == all_pairs_duplicates(catalog, threshold)


def test_find_duplicates_mini(mini_catalog):
    pairs = find_duplicates(mini_catalog, threshold=0.9)
    by_ids = {(p.a.id, p.b.id): p.score for p in pairs}
    assert by_ids[(14, 15)] == 1.0  # hyphen variants fold together
    assert by_ids[(12, 13)] == pytest.approx(1 - 1 / 11)
    assert (16, 18) not in by_ids


def test_find_duplicates_sorted(mini_catalog):
    pairs = find_duplicates(mini_catalog, threshold=0.5)
    keys = [(-p.score, p.a.id, p.b.id) for p in pairs]
    assert keys == sorted(keys)


def test_find_duplicates_matches_brute_force():
    rng = random.Random(41)
    alphabet = "abcdef -"
    rows = []
    for i in range(80):
        name = "".join(rng.choice(alphabet) for _ in range(rng.randrange(3, 12))).strip()
        rows.append((i, rng.choice(["m", "t"]), name or "x"))
    # Unique names per category are not guaranteed by construction, so build
    # the catalog leniently: identical canonical names are legitimate dupes.
    catalog = LabelCatalog(LabelRecord(i, c, n) for i, c, n in rows)
    for threshold in (0.5, 0.7, 0.9, 1.0):
        got = {(p.a.id, p.b.id) for p in find_duplicates(catalog, threshold=threshold)}
        want = brute_force_duplicates(catalog, threshold)
        assert got == want, threshold


def test_find_duplicates_threshold_boundary_exact():
    # Score exactly at the threshold must be included; a naive floor() cap
    # computation drops it when (1 - t) * len rounds just below an integer.
    catalog = build_catalog([(0, "m", "abcdefghij"), (1, "m", "abcdefghiX")])
    pairs = find_duplicates(catalog, threshold=0.9)
    assert len(pairs) == 1
    assert pairs[0].score == pytest.approx(0.9)


def test_find_duplicates_cross_category(mini_catalog):
    catalog = build_catalog([(0, "m", "silk"), (1, "t", "silk")])
    assert find_duplicates(catalog) == []
    cross = find_duplicates(catalog, same_category_only=False)
    assert [(p.a.id, p.b.id, p.score) for p in cross] == [(0, 1, 1.0)]


def test_find_duplicates_category_filter(mini_catalog):
    pairs = find_duplicates(mini_catalog, threshold=0.5, category="dimension")
    assert all(p.a.category == "dimension" for p in pairs)


def test_unknown_category_rejected(mini_catalog):
    with pytest.raises(ValueError, match="unknown category 'nosuch'"):
        find_duplicates(mini_catalog, category="nosuch")
    with pytest.raises(ValueError, match="unknown category 'nosuch'"):
        find_hierarchy_candidates(mini_catalog, category="nosuch")


def test_find_duplicates_rejects_bad_threshold(mini_catalog):
    with pytest.raises(ValueError):
        find_duplicates(mini_catalog, threshold=0.0)
    with pytest.raises(ValueError):
        find_duplicates(mini_catalog, threshold=1.5)


# ---------------------------------------------------------------------------
# Hierarchy candidates


def test_hierarchy_candidates(mini_catalog):
    got = {
        (c.super_label.id, c.sub_label.id)
        for c in find_hierarchy_candidates(mini_catalog, category="medium")
    }
    assert (16, 18) in got  # black chalk < black chalk on blue paper
    assert (17, 16) in got  # black < black chalk
    assert (17, 18) in got
    assert (27, 26) in got  # silk < wool and silk
    assert (18, 16) not in got


def test_hierarchy_requires_contiguous_tokens():
    catalog = build_catalog(
        [
            (0, "m", "black paper"),
            (1, "m", "black chalk on blue paper"),
            (2, "m", "chalk on blue"),
            (3, "m", "blue paper"),
        ]
    )
    got = {
        (c.super_label.id, c.sub_label.id) for c in find_hierarchy_candidates(catalog)
    }
    # "black paper" tokens are a subsequence but not contiguous in the sub.
    assert (0, 1) not in got
    assert (2, 1) in got
    assert (3, 1) in got


def test_hierarchy_ignores_identical_tokenizations():
    catalog = build_catalog([(0, "m", "bronze gilt"), (1, "m", "bronze-gilt")])
    assert find_hierarchy_candidates(catalog) == []


def test_hierarchy_proposes_a_repeated_window_once():
    catalog = build_catalog([(0, "m", "a"), (1, "m", "a b a")])
    got = find_hierarchy_candidates(catalog)
    assert [(c.super_label.id, c.sub_label.id) for c in got] == [(0, 1)]


def test_hierarchy_same_category_only():
    catalog = build_catalog([(0, "m", "black"), (1, "t", "black chalk")])
    assert find_hierarchy_candidates(catalog) == []


# ---------------------------------------------------------------------------
# Connective classification


def test_classify_connectives(mini_catalog):
    tally = classify_connectives(mini_catalog, Connective.AND)
    assert tally.total == 2
    assert tally.all_resolved == 1  # sudan and egypt
    assert tally.partial == 1  # wool and silk (silk exists, wool does not)
    assert tally.none_resolved == 0

    tally_or = classify_connectives(mini_catalog, Connective.OR)
    assert tally_or.total == 2
    # Both "egypt or iraq" (country) and "french or spanish" (culture)
    # resolve every token within their own category.
    assert tally_or.all_resolved == 2
    assert tally_or.partial == 0
    split = [s for s in tally_or.splits if s.source == 28][0]
    assert split.split_class is SplitClass.ALL_RESOLVED
    assert split.resolved_ids == (5, 29)


def test_classify_connectives_itemization(mini_catalog):
    doc = tally_as_dict(classify_connectives(mini_catalog, Connective.AND), mini_catalog)
    assert doc["total"] == doc["all_resolved"] + doc["none_resolved"] + doc["partial"]
    assert len(doc["labels"]) == doc["total"]
    by_id = {item["id"]: item for item in doc["labels"]}
    assert by_id[3]["class"] == "all_resolved"
    assert by_id[3]["resolved"] == ["country::sudan", "country::egypt"]


def test_split_label_none_for_plain_names(mini_catalog):
    assert split_label(mini_catalog.get(4), Connective.AND, mini_catalog) is None
    # A connective that leaves fewer than two tokens does not split either.
    dangling = LabelRecord(30, "medium", "silk and ,")
    assert split_label(dangling, Connective.AND, mini_catalog) is None


# The mini corpus plus an AND label none of whose tokens is a label, and an
# OR label one of whose tokens is a label of another category only.
SPLIT_ROWS = MINI_LABEL_ROWS + [(30, "medium", "velvet and lace"),
                                (31, "country", "french or egypt")]


def test_split_label_classes():
    catalog = build_catalog(SPLIT_ROWS)
    all_resolved = split_label(catalog.get(3), Connective.AND, catalog)
    assert all_resolved.split_class is SplitClass.ALL_RESOLVED
    assert all_resolved.resolved_ids == (4, 0)
    assert (all_resolved.source, all_resolved.connective) == (3, Connective.AND)
    assert all_resolved.tokens == ("sudan", "egypt")

    none = split_label(catalog.get(30), Connective.AND, catalog)
    assert none.split_class is SplitClass.NONE_RESOLVED
    assert none.resolved_ids == ()

    partial = split_label(catalog.get(26), Connective.AND, catalog)
    assert partial.split_class is SplitClass.PARTIAL
    assert partial.resolved_ids == (27,)


def test_split_label_same_category_only():
    catalog = build_catalog(SPLIT_ROWS)
    # "french" exists in culture, not in country, so a country label's token
    # must not resolve against it.
    split = split_label(catalog.get(31), Connective.OR, catalog)
    assert split.resolution == (None, 0)


def test_plan_entries_from_tallies(mini_catalog):
    and_tally = classify_connectives(mini_catalog, Connective.AND)
    entries = and_splits_from_tally(and_tally)
    by_source = {e.source: e for e in entries}
    assert by_source[3].remove_source is True
    assert set(by_source[3].tokens) == {0, 4}
    assert by_source[26].remove_source is False
    assert by_source[26].tokens == (27,)

    or_entries = or_groups_from_tally(classify_connectives(mini_catalog, Connective.OR))
    by_source = {e.source: e for e in or_entries}
    assert set(by_source[2].members) == {0, 1}
    assert set(by_source[28].members) == {5, 29}


# ---------------------------------------------------------------------------
# Plan validation and serialization


def test_validate_plan_ok(mini_catalog):
    plan = TransformPlan(
        merges=[Merge(12, (13,))],
        hierarchy_edges=[(17, 16), (16, 18)],
        and_splits=[AndSplit(3, (4, 0), remove_source=True)],
        or_groups=[OrGroup(2, (0, 1))],
        exclusion_groups=[frozenset({19, 20, 21, 22, 23})],
    )
    validate_plan(plan, mini_catalog)


@pytest.mark.parametrize(
    "plan",
    [
        TransformPlan(merges=[Merge(12, (12,))]),
        TransformPlan(merges=[Merge(12, ())]),
        TransformPlan(merges=[Merge(12, (13,)), Merge(14, (13,))]),
        TransformPlan(merges=[Merge(12, (13,)), Merge(13, (14,))]),
        TransformPlan(merges=[Merge(99999, (13,))]),
        TransformPlan(hierarchy_edges=[(16, 16)]),
        TransformPlan(hierarchy_edges=[(16, 17), (17, 16)]),
        TransformPlan(hierarchy_edges=[(16, 99999)]),
        TransformPlan(and_splits=[AndSplit(3, ())]),
        TransformPlan(and_splits=[AndSplit(3, (3,))]),
        TransformPlan(and_splits=[AndSplit(26, (27,), remove_source=True)]),
        TransformPlan(or_groups=[OrGroup(2, ())]),
        TransformPlan(or_groups=[OrGroup(2, (2,))]),
        TransformPlan(exclusion_groups=[frozenset()]),
        TransformPlan(exclusion_groups=[frozenset({19, 20}), frozenset({20, 21})]),
        # A repeated source: applied, only its last entry would count, while
        # the graph would hold an edge for every entry.
        TransformPlan(and_splits=[AndSplit(3, (4,)), AndSplit(3, (0,))]),
        TransformPlan(or_groups=[OrGroup(2, (0,)), OrGroup(2, (1,))]),
    ],
)
def test_validate_plan_rejects(mini_catalog, plan):
    with pytest.raises(PlanError):
        validate_plan(plan, mini_catalog)


def test_validate_rejects_token_of_removed_source(mini_catalog):
    plan = TransformPlan(
        and_splits=[
            AndSplit(3, (4, 0), remove_source=True),
            AndSplit(26, (3,), remove_source=False),
        ]
    )
    with pytest.raises(PlanError, match="removed"):
        validate_plan(plan, mini_catalog)


@pytest.mark.parametrize(
    "plan, message",
    [
        # A hierarchy edge or and-split on a label a merge absorbs.
        (
            TransformPlan(merges=[Merge(12, (13,))], hierarchy_edges=[(17, 13)]),
            "hierarchy edge references label id 13, which a merge absorbs",
        ),
        (
            TransformPlan(merges=[Merge(4, (0,))], and_splits=[AndSplit(3, (4, 0))]),
            "and-split references label id 0, which a merge absorbs",
        ),
        (
            TransformPlan(merges=[Merge(4, (3,))], and_splits=[AndSplit(3, (4, 0))]),
            "and-split references label id 3, which a merge absorbs",
        ),
        # A hierarchy edge on a source its split removes.
        (
            TransformPlan(and_splits=[AndSplit(3, (4, 0), remove_source=True)],
                          hierarchy_edges=[(4, 3)]),
            "hierarchy edge references label id 3, which an and-split removes",
        ),
        # The re-split of a removed source runs on the merged catalog, where
        # "egypt" no longer resolves.
        (
            TransformPlan(merges=[Merge(1, (0,))],
                          and_splits=[AndSplit(3, (4, 1), remove_source=True)]),
            "not every token resolves",
        ),
    ],
)
def test_validate_plan_checks_each_step_against_what_earlier_steps_leave(
    mini_catalog, plan, message
):
    with pytest.raises(PlanError, match=message):
        validate_plan(plan, mini_catalog)


def test_validate_plan_checks_groups_against_the_catalog_as_given(mini_catalog):
    # The graph and eval-or read or-groups and exclusion groups on the
    # unmerged catalog, so a merge does not hide their labels.
    validate_plan(
        TransformPlan(
            merges=[Merge(1, (0,)), Merge(20, (19,))],
            or_groups=[OrGroup(2, (0, 1))],
            exclusion_groups=[frozenset({19, 20, 21})],
        ),
        mini_catalog,
    )


def test_plan_round_trip(mini_catalog):
    plan = TransformPlan(
        merges=[Merge(12, (13,)), Merge(14, (15,))],
        hierarchy_edges=[(17, 16)],
        and_splits=[AndSplit(3, (4, 0), remove_source=True)],
        or_groups=[OrGroup(2, (0, 1))],
        exclusion_groups=[frozenset({19, 20, 21, 22, 23})],
    )
    out = io.StringIO()
    write_plan(plan, mini_catalog, out)
    loaded = load_plan(io.StringIO(out.getvalue()), mini_catalog)
    assert loaded.merges == plan.merges
    assert loaded.hierarchy_edges == plan.hierarchy_edges
    assert loaded.and_splits == plan.and_splits
    assert loaded.or_groups == plan.or_groups
    assert loaded.exclusion_groups == plan.exclusion_groups


def test_plan_merging_canonical_equal_duplicates_loads():
    catalog = LabelCatalog([LabelRecord(0, "medium", "Silk"), LabelRecord(1, "medium", "silk")])
    out = io.StringIO()
    write_plan(TransformPlan(merges=[Merge(0, (1,))]), catalog, out)
    assert load_plan(io.StringIO(out.getvalue()), catalog).merges == [Merge(0, (1,))]


def test_plan_round_trips_a_category_with_outer_spaces():
    # parse_labels keeps the category " medium" as written, so the plan names
    # the label " medium::silk", which must resolve back to it.
    catalog = parse_labels(io.StringIO(
        "attribute_id,attribute_name\n0, medium::silk\n1,medium::paper\n2, medium::silks\n"
    ))
    assert catalog.get(0).category == " medium"
    plan = TransformPlan(merges=[Merge(0, (2,))], hierarchy_edges=[(0, 1)])
    out = io.StringIO()
    write_plan(plan, catalog, out)
    assert " medium::silk" in out.getvalue()
    assert load_plan(io.StringIO(out.getvalue()), catalog) == plan


# Names that JSON escapes, that qualify a name twice, or that differ from
# another only in case, spacing or NFC form.
PLAN_NAMES = st.text(st.sampled_from(list("aA é\u0301,\"\r\n:")), min_size=1, max_size=6)


@st.composite
def catalogs_with_plans(draw):
    names = draw(
        st.lists(
            st.tuples(st.sampled_from(["medium", "tags"]), PLAN_NAMES),
            min_size=2,
            max_size=8,
            unique=True,
        )
    )
    catalog = LabelCatalog(LabelRecord(i, c, n) for i, (c, n) in enumerate(names))
    ids = draw(st.permutations(range(len(names))))
    rank = {label_id: i for i, label_id in enumerate(ids)}
    # Merges leave at least two labels for the steps applied after them.
    n_merges = draw(st.integers(0, min(len(ids) // 2, len(ids) - 2)))
    merges = [Merge(ids[i], (ids[n_merges + i],)) for i in range(n_merges)]
    left = ids[:n_merges] + ids[2 * n_merges:]

    def pairs_of(labels):
        return st.tuples(st.sampled_from(labels), st.sampled_from(labels)).filter(
            lambda p: p[0] != p[1]
        )

    pairs = draw(st.lists(pairs_of(left), max_size=4, unique=True))
    # Edges point down the drawn order, so they form a DAG.
    hierarchy = sorted({tuple(sorted(p, key=rank.get)) for p in pairs})
    # A label is the source of at most one split and one group. Splits and
    # edges use the labels the merges leave; or-groups may use any label.
    and_splits = [
        AndSplit(a, (b,))
        for a, b in draw(st.lists(pairs_of(left), max_size=3, unique_by=lambda p: p[0]))
    ]
    or_groups = [
        OrGroup(a, (b,))
        for a, b in draw(st.lists(pairs_of(ids), max_size=3, unique_by=lambda p: p[0]))
    ]
    excluded = draw(st.lists(st.sampled_from(ids), max_size=4, unique=True))
    cut = draw(st.integers(0, len(excluded)))
    exclusion_groups = [frozenset(g) for g in (excluded[:cut], excluded[cut:]) if g]
    plan = TransformPlan(merges, hierarchy, and_splits, or_groups, exclusion_groups)
    return catalog, plan


@settings(max_examples=200, deadline=None)
@given(catalogs_with_plans())
def test_plan_round_trips_through_names(catalog_and_plan):
    catalog, plan = catalog_and_plan
    out = io.StringIO()
    write_plan(plan, catalog, out)
    assert load_plan(io.StringIO(out.getvalue()), catalog) == plan


def test_load_plan_unknown_name(mini_catalog):
    doc = {"merges": [{"survivor": "medium::watercolor", "absorbed": ["no such label"]}]}
    with pytest.raises(PlanError, match="no such label"):
        load_plan(io.StringIO(json.dumps(doc)), mini_catalog)


def test_load_plan_unknown_section(mini_catalog):
    with pytest.raises(PlanError, match="renames"):
        load_plan(io.StringIO('{"renames": []}'), mini_catalog)


def test_load_plan_sections_filter(mini_catalog):
    doc = {
        "merges": [{"survivor": "medium::watercolor", "absorbed": ["bad name"]}],
        "or_groups": [
            {"source": "country::egypt or iraq", "members": ["egypt", "iraq"]}
        ],
    }
    text = json.dumps(doc)
    with pytest.raises(PlanError):
        load_plan(io.StringIO(text), mini_catalog)
    partial = load_plan(io.StringIO(text), mini_catalog, sections=("or_groups",))
    assert partial.merges == []
    assert partial.or_groups == [OrGroup(2, (0, 1))]


# ---------------------------------------------------------------------------
# Plan application: merges


def test_apply_merges(mini_catalog, mini_annotations):
    plan = TransformPlan(merges=[Merge(12, (13,)), Merge(14, (15,))])
    new_annotations, new_catalog = apply_plan(mini_annotations, mini_catalog, plan)
    assert len(new_catalog) == len(mini_catalog) - 2
    assert 13 not in new_catalog.ids()
    assert new_annotations.labels_for("s2") == frozenset({12, 17})
    assert new_annotations.labels_for("s4") == frozenset({14, 3, 20})
    # Inputs are untouched.
    assert mini_annotations.labels_for("s2") == frozenset({13, 17})
    assert 13 in mini_catalog.ids()


def test_apply_merges_frequency_conservation(mini_catalog, mini_annotations):
    plan = TransformPlan(merges=[Merge(12, (13,))])
    before = mini_annotations.label_frequency()
    after, _ = apply_plan(mini_annotations, mini_catalog, plan)
    freq = after.label_frequency()
    # No sample holds both variants here, so counts add exactly.
    assert freq[12] == before[12] + before[13]


def test_apply_merges_overlap_dedupes():
    catalog = build_catalog([(0, "m", "a"), (1, "m", "b")])
    annotations = AnnotationSet([("x", frozenset({0, 1}))], catalog.ids())
    merged, new_catalog = apply_plan(annotations, catalog, TransformPlan(merges=[Merge(0, (1,))]))
    assert merged.labels_for("x") == frozenset({0})
    assert len(new_catalog) == 1


def test_apply_merges_property_random():
    rng = random.Random(99)
    for _ in range(500):
        n_labels = rng.randrange(3, 12)
        catalog = build_catalog([(i, "m", f"label {i}") for i in range(n_labels)])
        samples = []
        for s in range(rng.randrange(1, 8)):
            labels = frozenset(
                i for i in range(n_labels) if rng.random() < 0.4
            )
            samples.append((f"s{s}", labels))
        annotations = AnnotationSet(samples, catalog.ids())

        ids = list(range(n_labels))
        rng.shuffle(ids)
        survivor, absorbed = ids[0], tuple(ids[1 : 1 + rng.randrange(1, 3)])
        plan = TransformPlan(merges=[Merge(survivor, absorbed)])
        merged, new_catalog = apply_plan(annotations, catalog, plan)

        assert len(merged) == len(annotations)  # sample count conserved
        merged_ids = set(absorbed)
        for sid, labels in annotations:
            expected = frozenset(
                survivor if label in merged_ids else label for label in labels
            )
            assert merged.labels_for(sid) == expected
        assert new_catalog.ids() == catalog.ids() - merged_ids


# ---------------------------------------------------------------------------
# Plan application: supercategory propagation


def propagate(annotations, catalog, edges):
    return apply_plan(annotations, catalog, TransformPlan(hierarchy_edges=edges))[0]


def test_propagation_transitive(mini_catalog, mini_annotations):
    edges = [(17, 16), (16, 18)]
    result = propagate(mini_annotations, mini_catalog, edges)
    assert result.labels_for("s5") == frozenset({16, 17, 18})
    assert result.labels_for("s1") == frozenset({12, 16, 17, 19})
    # A sample holding only the leaf gains its grandparent too.
    only_leaf = AnnotationSet([("x", frozenset({18}))], mini_annotations.known_labels)
    assert propagate(only_leaf, mini_catalog, edges).labels_for("x") == frozenset({16, 17, 18})


def test_propagation_idempotent_random():
    rng = random.Random(7)
    for _ in range(500):
        n = rng.randrange(3, 15)
        catalog = build_catalog([(i, "m", f"label {i}") for i in range(n)])
        # Random DAG: edges only from lower to higher id.
        edges = []
        for sub in range(n):
            for sup in range(sub):
                if rng.random() < 0.25:
                    edges.append((sup, sub))
        samples = [
            (f"s{s}", frozenset(i for i in range(n) if rng.random() < 0.3))
            for s in range(rng.randrange(1, 6))
        ]
        annotations = AnnotationSet(samples, catalog.ids())
        once = propagate(annotations, catalog, edges)
        twice = propagate(once, catalog, edges)
        assert once == twice
        for sid, labels in annotations:
            assert labels <= once.labels_for(sid)


def test_propagation_cycle_rejected(mini_catalog, mini_annotations):
    with pytest.raises(PlanError, match="cycle"):
        propagate(mini_annotations, mini_catalog, [(16, 17), (17, 16)])


def test_propagation_unknown_label(mini_catalog, mini_annotations):
    with pytest.raises(PlanError, match="unknown"):
        propagate(mini_annotations, mini_catalog, [(99999, 16)])


def test_closure_multiple_parents():
    closure = supercategory_closure([(1, 3), (2, 3), (0, 1)])
    assert closure[3] == frozenset({0, 1, 2})
    assert closure[1] == frozenset({0})


# ---------------------------------------------------------------------------
# Plan application: and-splits, and the steps chained


def test_apply_and_splits(mini_catalog, mini_annotations):
    plan = TransformPlan(
        and_splits=[
            AndSplit(3, (4, 0), remove_source=True),
            AndSplit(26, (27,), remove_source=False),
        ]
    )
    result, new_catalog = apply_plan(mini_annotations, mini_catalog, plan)
    assert 3 not in new_catalog.ids()
    assert 26 in new_catalog.ids()
    assert result.labels_for("s4") == frozenset({15, 20, 4, 0})
    assert result.labels_for("s7") == frozenset({26, 27, 24})
    # Untouched samples keep identical label sets.
    assert result.labels_for("s6") == mini_annotations.labels_for("s6")


def test_apply_and_splits_validates(mini_catalog, mini_annotations):
    with pytest.raises(PlanError):
        apply_plan(
            mini_annotations,
            mini_catalog,
            TransformPlan(and_splits=[AndSplit(26, (27,), remove_source=True)]),
        )


def test_apply_plan_runs_merges_then_splits_then_hierarchy(mini_catalog, mini_annotations):
    # "watercolour" becomes "watercolor", which a split adds to "wool and
    # silk" and whose parent is "black"; "sudan and egypt" becomes "sudan"
    # and "egypt", and "egypt" gains its parent "iraq".
    plan = TransformPlan(
        merges=[Merge(12, (13,))],
        and_splits=[AndSplit(3, (4, 0), remove_source=True), AndSplit(26, (27, 12))],
        hierarchy_edges=[(17, 12), (1, 0)],
    )
    result, new_catalog = apply_plan(mini_annotations, mini_catalog, plan)
    assert new_catalog.ids() == mini_catalog.ids() - {3, 13}
    assert result.known_labels == new_catalog.ids()
    assert result.labels_for("s2") == frozenset({12, 17})
    assert result.labels_for("s4") == frozenset({15, 4, 0, 1, 20})
    assert result.labels_for("s7") == frozenset({26, 27, 12, 17, 24})
    assert result.labels_for("s6") == mini_annotations.labels_for("s6")
