"""Candidate generation and plan application for label-space cleaning.

The workflow is deliberately two-phase: ``find_*`` operations only *propose*
(duplicate pairs, hierarchy edges, connective splits) and never mutate data.
A human reviews the proposals, edits a :class:`TransformPlan` file, and
:func:`apply_plan` executes the verified plan against a catalog and its
annotations, returning new values.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from typing import IO, Iterable, Sequence

from .catalog import AnnotationSet, LabelCatalog, LabelRecord
from .csvio import csv_writer
from .defaults import DEFAULT_SIMILARITY
from .errors import PlanError
from .textkit import (
    Connective,
    ConnectiveSplit,
    SplitClass,
    edit_distance_capped,
    split_connective,
    tokenize,
)


# ---------------------------------------------------------------------------
# Transformation plans


@dataclass(frozen=True)
class Merge:
    survivor: int
    absorbed: tuple[int, ...]


@dataclass(frozen=True)
class AndSplit:
    source: int
    tokens: tuple[int, ...]  # resolved token label ids
    remove_source: bool = False


@dataclass(frozen=True)
class OrGroup:
    source: int
    members: tuple[int, ...]


@dataclass
class TransformPlan:
    """Serialized, human-editable list of verified cleaning operations."""

    merges: list[Merge] = field(default_factory=list)
    hierarchy_edges: list[tuple[int, int]] = field(default_factory=list)  # (super, sub)
    and_splits: list[AndSplit] = field(default_factory=list)
    or_groups: list[OrGroup] = field(default_factory=list)
    exclusion_groups: list[frozenset[int]] = field(default_factory=list)


def validate_plan(plan: TransformPlan, catalog: LabelCatalog) -> None:
    """Check a plan against its catalog; raises :class:`PlanError`.

    Each applied step is checked against the labels the earlier ones leave:
    and-splits without the absorbed labels, hierarchy edges without the
    removed split sources too; or-groups and exclusion groups against the
    catalog as given. Merges must be pairwise independent (an id absorbed at
    most once, and never doubling as a survivor) so they commute. Hierarchy
    edges must form a DAG; multiple parents are fine. A label is the source
    of at most one and-split and of at most one or-group, so each source has
    one image. ``remove_source`` is only legal for splits whose every token
    resolves.
    """
    known = catalog.ids()
    left = known  # the labels the steps checked so far leave

    def check_known(label_id: int, context: str, labels: frozenset[int] = known) -> None:
        if label_id not in known:
            raise PlanError(f"{context} references unknown label id {label_id}")
        if label_id not in labels:
            gone = "a merge absorbs" if label_id in absorbed_all else "an and-split removes"
            raise PlanError(f"{context} references label id {label_id}, which {gone}")

    def check_once(label_id: int, seen: set[int], repeat: str) -> None:
        if label_id in seen:
            raise PlanError(f"label {label_id} {repeat}")
        seen.add(label_id)

    absorbed_all: set[int] = set()
    survivors: set[int] = set()
    for merge in plan.merges:
        check_known(merge.survivor, "merge")
        if not merge.absorbed:
            raise PlanError(f"merge into {merge.survivor} absorbs nothing")
        survivors.add(merge.survivor)
        for label_id in merge.absorbed:
            check_known(label_id, "merge")
            if label_id == merge.survivor:
                raise PlanError(f"label {label_id} cannot be merged with itself")
            check_once(label_id, absorbed_all, "absorbed by two merges")
    overlap = survivors & absorbed_all
    if overlap:
        raise PlanError(
            f"labels {sorted(overlap)} appear both as survivor and absorbed; "
            "merges must be independent"
        )
    left -= absorbed_all

    removed = {s.source for s in plan.and_splits if s.remove_source}
    merged = LabelCatalog(r for r in catalog if r.id in left) if absorbed_all else catalog
    split_sources: set[int] = set()
    for split in plan.and_splits:
        check_known(split.source, "and-split", left)
        check_once(split.source, split_sources, "is the source of two and-splits")
        if not split.tokens:
            raise PlanError(f"and-split of {split.source} resolves no tokens")
        for token_id in split.tokens:
            check_known(token_id, "and-split", left)
            if token_id == split.source:
                raise PlanError(f"and-split of {split.source} lists itself as a token")
            if token_id in removed:
                raise PlanError(
                    f"and-split token {token_id} is itself removed by another split"
                )
        if split.remove_source:
            recomputed = split_label(merged.get(split.source), Connective.AND, merged)
            if recomputed is None or recomputed.split_class is not SplitClass.ALL_RESOLVED:
                raise PlanError(
                    f"and-split of {split.source} sets remove_source but not every "
                    "token resolves to an existing label"
                )
    left -= removed

    for super_id, sub_id in plan.hierarchy_edges:
        check_known(super_id, "hierarchy edge", left)
        check_known(sub_id, "hierarchy edge", left)
        if super_id == sub_id:
            raise PlanError(f"hierarchy self-edge on label {super_id}")
    supercategory_closure(plan.hierarchy_edges, transitive=False)  # the cycle check

    group_sources: set[int] = set()
    for group in plan.or_groups:
        check_known(group.source, "or-group")
        check_once(group.source, group_sources, "is the source of two or-groups")
        if not group.members:
            raise PlanError(f"or-group of {group.source} has no members")
        for member in group.members:
            check_known(member, "or-group")
            if member == group.source:
                raise PlanError(f"or-group of {group.source} lists itself as a member")

    seen_exclusive: set[int] = set()
    for group in plan.exclusion_groups:
        if not group:
            raise PlanError("empty exclusion group")
        for label_id in group:
            check_known(label_id, "exclusion group")
            check_once(label_id, seen_exclusive, "appears in two exclusion groups")


def load_plan(
    stream: IO[str],
    catalog: LabelCatalog,
    sections: Iterable[str] | None = None,
) -> TransformPlan:
    """Load a plan file. Labels are referenced by their human-readable
    "category::name" strings and resolved to ids here; unknown names are
    hard errors. Every error names the file (``<plan>`` for a stream without
    a name) and a bad entry's section and index, e.g. ``plan.json:
    merges[0]: unknown label 'medium::watercolour'``.

    ``sections`` restricts loading to the named operation lists. A consumer
    that only needs, say, the graph relations can then read a plan against a
    catalog the plan's other sections no longer resolve against (merged or
    split-away labels).
    """
    try:
        return _read_plan(stream, catalog, sections)
    except PlanError as exc:
        raise PlanError(f"{getattr(stream, 'name', '<plan>')}: {exc}") from exc


def _read_plan(stream: IO[str], catalog: LabelCatalog, sections) -> TransformPlan:
    """The plan ``stream`` holds, resolved and validated."""
    text = stream.read()  # outside the try: a decode error is the caller's
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad syntax, over 4300 digits, too deep
        raise PlanError(f"plan file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise PlanError("plan file must contain a JSON object")
    allowed = {"merges", "hierarchy_edges", "and_splits", "or_groups", "exclusion_groups"}
    unknown = set(doc) - allowed
    if unknown:
        raise PlanError(f"unknown plan sections: {', '.join(sorted(unknown))}")
    if sections is not None:
        wanted = set(sections)
        bad = wanted - allowed
        if bad:
            raise PlanError(f"unknown plan sections requested: {', '.join(sorted(bad))}")
        doc = {k: v for k, v in doc.items() if k in wanted}

    def rid(text: str, where: str) -> int:
        if not isinstance(text, str):
            raise PlanError(f"{where}: expected a label name string, got {text!r}")
        try:
            return catalog.resolve_name(text).id
        except KeyError as exc:
            raise PlanError(f"{where}: {exc.args[0]}") from None

    def entries(section: str, *keys: str, lists: tuple[str, ...] = ()) -> list:
        """``(section[index], entry)`` pairs, each entry checked for shape: an
        object holding ``keys`` and the list-valued ``lists``, else a list."""
        items = doc.get(section, [])
        if not isinstance(items, list):
            raise PlanError(f"{section}: expected a list, got {items!r}")
        located = [(f"{section}[{index}]", entry) for index, entry in enumerate(items)]
        for where, entry in located:
            if not isinstance(entry, dict if keys or lists else list):
                shape = "an object" if keys or lists else "a list"
                raise PlanError(f"{where}: expected {shape}, got {entry!r}")
            for key in keys + lists:
                if key not in entry:
                    raise PlanError(f"{where}: missing key {key!r}")
            for key in lists:
                if not isinstance(entry[key], list):
                    raise PlanError(f"{where}: {key!r} must be a list, got {entry[key]!r}")
        return located

    plan = TransformPlan()
    for where, entry in entries("merges", "survivor", lists=("absorbed",)):
        plan.merges.append(
            Merge(
                survivor=rid(entry["survivor"], where),
                absorbed=tuple(rid(t, where) for t in entry["absorbed"]),
            )
        )
    for where, entry in entries("hierarchy_edges", "super", "sub"):
        plan.hierarchy_edges.append((rid(entry["super"], where), rid(entry["sub"], where)))
    for where, entry in entries("and_splits", "source", lists=("tokens",)):
        remove_source = entry.get("remove_source", False)
        if not isinstance(remove_source, bool):
            raise PlanError(f"{where}: 'remove_source' must be a boolean, got {remove_source!r}")
        plan.and_splits.append(
            AndSplit(
                source=rid(entry["source"], where),
                tokens=tuple(rid(t, where) for t in entry["tokens"]),
                remove_source=remove_source,
            )
        )
    for where, entry in entries("or_groups", "source", lists=("members",)):
        plan.or_groups.append(
            OrGroup(
                source=rid(entry["source"], where),
                members=tuple(rid(t, where) for t in entry["members"]),
            )
        )
    for where, entry in entries("exclusion_groups"):
        plan.exclusion_groups.append(frozenset(rid(t, where) for t in entry))
    validate_plan(plan, catalog)
    return plan


def write_plan(plan: TransformPlan, catalog: LabelCatalog, stream: IO[str]) -> None:
    """Serialize a plan with human-readable label references."""
    name = lambda i: catalog.get(i).qualified_name  # noqa: E731
    doc = {
        "merges": [
            {"survivor": name(m.survivor), "absorbed": [name(a) for a in m.absorbed]}
            for m in plan.merges
        ],
        "hierarchy_edges": [
            {"super": name(sup), "sub": name(sub)} for sup, sub in plan.hierarchy_edges
        ],
        "and_splits": [
            {
                "source": name(s.source),
                "tokens": [name(t) for t in s.tokens],
                "remove_source": s.remove_source,
            }
            for s in plan.and_splits
        ],
        "or_groups": [
            {"source": name(g.source), "members": [name(m) for m in g.members]}
            for g in plan.or_groups
        ],
        "exclusion_groups": [sorted(name(i) for i in g) for g in plan.exclusion_groups],
    }
    json.dump(doc, stream, indent=2, sort_keys=True, ensure_ascii=False)
    stream.write("\n")


# ---------------------------------------------------------------------------
# Candidate generation


@dataclass(frozen=True)
class DuplicatePair:
    a: LabelRecord
    b: LabelRecord
    score: float


@dataclass(frozen=True)
class HierarchyCandidate:
    super_label: LabelRecord
    sub_label: LabelRecord
    evidence: str


def _fold_hyphens(canonical: str) -> str:
    return " ".join(canonical.replace("-", " ").split())


def find_duplicates(
    catalog: LabelCatalog,
    threshold: float = DEFAULT_SIMILARITY,
    same_category_only: bool = True,
    category: str | None = None,
) -> list[DuplicatePair]:
    """All unordered label pairs whose similarity ratio reaches ``threshold``.

    Hyphen/space variants ("bronze gilt" vs "bronze-gilt") are folded and
    score 1.0 regardless of their raw ratio. Results are sorted by descending
    score, then ascending id pair, so reports are stable.

    This is the hot path. Comparing every pair is quadratic in catalog size,
    so each pool is joined instead: fold-equal names pair up through a
    dictionary, and the edit-distance kernel verifies only pairs that pass a
    length window and a bigram count filter (see :func:`_join_pool`).
    Raises ``ValueError`` for a threshold outside (0, 1] or an unknown
    ``category``.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")

    records = _category_records(catalog, category)
    if same_category_only:
        pools: dict[str, list[LabelRecord]] = {}
        for record in records:
            pools.setdefault(record.category, []).append(record)
        groups: Iterable[list[LabelRecord]] = pools.values()
    else:
        groups = [records]

    pairs: list[DuplicatePair] = []
    for group in groups:
        pairs.extend(_join_pool(group, threshold))
    pairs.sort(key=lambda p: (-p.score, p.a.id, p.b.id))
    return pairs


def _ordered_pair(a: LabelRecord, b: LabelRecord, score: float) -> DuplicatePair:
    return DuplicatePair(a, b, score) if a.id < b.id else DuplicatePair(b, a, score)


def _join_pool(group: list[LabelRecord], threshold: float) -> list[DuplicatePair]:
    """Pairs of one pool that score at least ``threshold``, unsorted.

    Names with equal hyphen folds pair up with score 1.0 through a
    dictionary. For the other pairs, names are visited shortest first, so
    each pair is found from its longer name, of length ``L``, with ``K`` the
    largest distance whose score ``1 - K / L`` reaches ``threshold`` (the
    bound ``int((1 - threshold) * L) + 1`` lowered while it falls short), so
    a partner within ``K`` qualifies. It is at least ``L - K`` long, and it
    shares at least ``L - 1 - 2K`` bigrams (counted with multiplicity) with
    the name, since each edit destroys at most two of the name's ``L - 1``
    bigrams (Ukkonen's q-gram lemma). Only partners passing both filters
    reach the kernel; when the bigram bound is not positive, every partner in
    the length window does. On the 3474-label benchmark catalog at 0.9, the
    window alone sends 260,299 pairs to the kernel, not 60, and the scan
    takes about 1.7 s, not 0.2 s.
    """
    pool = sorted(group, key=lambda r: len(r.canonical))
    lengths = [len(r.canonical) for r in pool]
    folds = [_fold_hyphens(r.canonical) for r in pool]
    pairs: list[DuplicatePair] = []
    by_fold: dict[str, list[LabelRecord]] = {}
    for fold, record in zip(folds, pool):
        by_fold.setdefault(fold, []).append(record)
    for members in by_fold.values():
        for i, a in enumerate(members):
            pairs.extend(_ordered_pair(a, b, 1.0) for b in members[i + 1:])

    # (bigram, occurrence number) -> ascending pool positions. Numbering the
    # repeats of a bigram makes the shared count of two names, with
    # multiplicity, the number of keys whose postings hold both.
    postings: dict[tuple[str, int], list[int]] = {}
    for pos, record in enumerate(pool):
        name, length = record.canonical, lengths[pos]
        cap = min(length, int((1.0 - threshold) * length) + 1)
        while cap and 1.0 - cap / length < threshold:
            cap -= 1
        start = bisect_left(lengths, length - cap, 0, pos)
        seen: Counter[str] = Counter()
        grams = []
        for i in range(length - 1):
            gram = name[i:i + 2]
            seen[gram] += 1
            grams.append((gram, seen[gram]))
        bound = length - 1 - 2 * cap
        if bound <= 0:
            candidates: Iterable[int] = range(start, pos)
        else:
            shared: Counter[int] = Counter()
            for gram in grams:
                posting = postings.get(gram)
                if posting is not None:
                    shared.update(posting[bisect_left(posting, start):])
            candidates = [other for other, n in shared.items() if n >= bound]
        for other in candidates:
            if folds[other] == folds[pos]:
                continue
            d = edit_distance_capped(pool[other].canonical, name, cap)
            if d <= cap:
                pairs.append(_ordered_pair(pool[other], record, 1.0 - d / length))
        for gram in grams:
            postings.setdefault(gram, []).append(pos)
    return pairs


def _category_records(catalog: LabelCatalog, category: str | None) -> list[LabelRecord]:
    """The catalog's records in id order, or only one category's."""
    if category is None:
        return list(catalog)
    return [catalog.get(i) for i in sorted(catalog.category_ids(category))]


def find_hierarchy_candidates(
    catalog: LabelCatalog, category: str | None = None
) -> list[HierarchyCandidate]:
    """Propose (super, sub) pairs within a category.

    A is proposed as a parent of B when A's word tokens form a strict
    contiguous subsequence of B's, so both "black" and "chalk" are proposed
    as parents of "black chalk", but reorderings are not. Raises
    ``ValueError`` for an unknown ``category``.
    """
    by_tokens: dict[tuple[str, tuple[str, ...]], list[LabelRecord]] = {}
    records = _category_records(catalog, category)
    token_lists: list[tuple[LabelRecord, tuple[str, ...]]] = []
    for record in records:
        tokens = tuple(tokenize(record.canonical))
        token_lists.append((record, tokens))
        by_tokens.setdefault((record.category, tokens), []).append(record)

    candidates: list[HierarchyCandidate] = []
    for sub, tokens in token_lists:
        # Each distinct proper window once: never the sub's own tokens, and a
        # window that repeats proposes its labels once.
        k = len(tokens)
        windows = {tokens[i:j] for i in range(k) for j in range(i + 1, k + 1)} - {tokens}
        for window in windows:
            candidates.extend(
                HierarchyCandidate(sup, sub, f"'{sup.canonical}' occurs in '{sub.canonical}'")
                for sup in by_tokens.get((sub.category, window), ())
            )
    candidates.sort(key=lambda c: (c.super_label.id, c.sub_label.id))
    return candidates


def split_label(
    record: LabelRecord, connective: Connective, catalog: LabelCatalog
) -> ConnectiveSplit | None:
    """Split one label at a connective and look each token up by canonical
    form among the labels of its category, or None when the name does not
    split in two or more tokens."""
    tokens = split_connective(record.canonical, connective)
    if len(tokens) < 2:
        return None
    found = [catalog.find(record.category, token) for token in tokens]
    return ConnectiveSplit(
        source=record.id,
        connective=connective,
        tokens=tuple(tokens),
        resolution=tuple(None if match is None else match.id for match in found),
    )


@dataclass
class ConnectiveTally:
    """Classification of every label containing a given connective."""

    connective: Connective
    splits: list[ConnectiveSplit]

    @property
    def total(self) -> int:
        return len(self.splits)

    def count(self, split_class: SplitClass) -> int:
        return sum(1 for s in self.splits if s.split_class is split_class)

    @property
    def all_resolved(self) -> int:
        return self.count(SplitClass.ALL_RESOLVED)

    @property
    def none_resolved(self) -> int:
        return self.count(SplitClass.NONE_RESOLVED)

    @property
    def partial(self) -> int:
        return self.count(SplitClass.PARTIAL)


def classify_connectives(catalog: LabelCatalog, connective: Connective) -> ConnectiveTally:
    """Split every label containing the connective and classify each split by
    how many of its tokens resolve to existing same-category labels."""
    splits = []
    for record in catalog:
        split = split_label(record, connective, catalog)
        if split is not None:
            splits.append(split)
    return ConnectiveTally(connective=connective, splits=splits)


def and_splits_from_tally(tally: ConnectiveTally) -> list[AndSplit]:
    """Plan entries from an AND tally: every split contributing at least one
    resolved token; fully-resolved sources are flagged for removal."""
    return [
        AndSplit(s.source, s.resolved_ids, remove_source=s.split_class is SplitClass.ALL_RESOLVED)
        for s in tally.splits
        if s.resolved_ids
    ]


def or_groups_from_tally(tally: ConnectiveTally) -> list[OrGroup]:
    """Plan entries from an OR tally: every split with resolved members."""
    return [
        OrGroup(source=s.source, members=s.resolved_ids)
        for s in tally.splits
        if s.resolved_ids
    ]


# ---------------------------------------------------------------------------
# Plan application


def supercategory_closure(
    hierarchy_edges: Iterable[tuple[int, int]], transitive: bool = True
) -> dict[int, frozenset[int]]:
    """Map each sub label to the super labels it implies.

    Raises :class:`PlanError` on a cycle, naming one from its lowest id, with
    that id repeated last. With ``transitive=False`` only direct parents are
    returned, which :func:`validate_plan` uses as its cycle check. One
    topological sort (Kahn's algorithm) finds the cycle or orders every label
    after its parents, so the closure is built without recursion, however
    deep the hierarchy.
    """
    from graphlib import CycleError, TopologicalSorter

    parents: dict[int, set[int]] = {}
    for super_id, sub_id in hierarchy_edges:
        parents.setdefault(sub_id, set()).add(super_id)
    try:
        order = list(TopologicalSorter(parents).static_order())
    except CycleError as exc:
        # Each id of the cycle is a parent of the next; the first is repeated last.
        cycle = exc.args[1][:-1]
        start = cycle.index(min(cycle))
        cycle = cycle[start:] + cycle[:start + 1]
        raise PlanError(f"hierarchy edges contain a cycle through labels {cycle}") from None
    if not transitive:
        return {sub: frozenset(sups) for sub, sups in parents.items()}

    closure: dict[int, frozenset[int]] = {}
    for node in order:
        sups = parents.get(node)
        if sups:
            closure[node] = frozenset(sups).union(*(closure.get(s, ()) for s in sups))
    return closure


def apply_plan(
    annotations: AnnotationSet, catalog: LabelCatalog, plan: TransformPlan
) -> tuple[AnnotationSet, LabelCatalog]:
    """New annotations and catalog: the plan's merges, then its and-splits,
    then its hierarchy edges applied.

    Each step maps a label to the labels it becomes: an absorbed label its
    survivor, an and-split source its tokens (and itself unless
    ``remove_source`` is set), a sub label itself and all its ancestors. The
    maps are chained into one, so every sample is rewritten once, and a
    label not among the labels it becomes leaves the catalog. Raises
    :class:`PlanError` for a plan :func:`validate_plan` rejects, and
    ``ValueError`` when ``annotations`` know a label outside the catalog."""
    validate_plan(plan, catalog)
    steps = (
        {absorbed: (m.survivor,) for m in plan.merges for absorbed in m.absorbed},
        {s.source: s.tokens if s.remove_source else (s.source, *s.tokens)
         for s in plan.and_splits},
        {sub: (sub, *sups) for sub, sups in supercategory_closure(plan.hierarchy_edges).items()},
    )
    images: dict[int, tuple[int, ...]] = {}
    for step in steps:
        # A label the earlier steps map goes on through this one from what it became.
        images = step | {
            label: tuple({new for old in image for new in step.get(old, (old,))})
            for label, image in images.items()
        }
    new_catalog = LabelCatalog(r for r in catalog if r.id in images.get(r.id, (r.id,)))
    return _relabel(annotations, images, new_catalog.ids()), new_catalog


def _relabel(
    annotations: AnnotationSet, images: dict[int, tuple[int, ...]], known: frozenset[int]
) -> AnnotationSet:
    """Each sample's labels become the union of their images, a label
    without an image staying itself. The rows are adopted over ``known``
    without a per-row check: the plan's images lie in ``known``, and one
    set-level check puts every other label the annotations know there too.
    A sample whose labels come out the same keeps its stored tuple."""
    stray = annotations.known_labels - images.keys() - known
    if stray:
        raise ValueError(f"annotations reference label ids outside the catalog: {sorted(stray)}")
    rows: dict[str, tuple[int, ...]] = {}
    for sid, labels in annotations._rows():
        if images.keys().isdisjoint(labels):
            rows[sid] = tuple(labels)
            continue
        # zip(labels) yields each label as a 1-tuple: its image when it has none.
        new = set().union(*map(images.get, labels, zip(labels)))
        same = len(new) == len(labels) and new.issuperset(labels)
        rows[sid] = tuple(labels) if same else tuple(new)
    return AnnotationSet._trusted(rows, known)


# ---------------------------------------------------------------------------
# Report writers


def write_duplicate_candidates(pairs: Sequence[DuplicatePair], stream: IO[str]) -> None:
    """Candidate CSV, one pair per row, scores with 4 decimal places."""
    writer = csv_writer(stream)
    writer.writerow(["id_a", "name_a", "id_b", "name_b", "score"])
    for pair in pairs:
        writer.writerow(
            [
                pair.a.id,
                pair.a.qualified_name,
                pair.b.id,
                pair.b.qualified_name,
                f"{pair.score:.4f}",
            ]
        )


def write_hierarchy_candidates(
    candidates: Sequence[HierarchyCandidate], stream: IO[str]
) -> None:
    writer = csv_writer(stream)
    writer.writerow(["super_id", "super_name", "sub_id", "sub_name", "evidence"])
    for cand in candidates:
        writer.writerow(
            [
                cand.super_label.id,
                cand.super_label.qualified_name,
                cand.sub_label.id,
                cand.sub_label.qualified_name,
                cand.evidence,
            ]
        )


def tally_as_dict(tally: ConnectiveTally, catalog: LabelCatalog) -> dict:
    """JSON-ready view of a connective tally, itemized label by label so any
    tally discrepancy against an external count can be audited."""
    items = []
    for split in sorted(tally.splits, key=lambda s: s.source):
        record = catalog.get(split.source)
        items.append(
            {
                "id": split.source,
                "name": record.qualified_name,
                "tokens": list(split.tokens),
                "resolved": [
                    None if r is None else catalog.get(r).qualified_name
                    for r in split.resolution
                ],
                "class": split.split_class.value,
            }
        )
    return {
        "connective": tally.connective.value,
        "total": tally.total,
        "all_resolved": tally.all_resolved,
        "none_resolved": tally.none_resolved,
        "partial": tally.partial,
        "labels": items,
    }
