"""Candidate generation and plan application for label-space cleaning.

The workflow is deliberately two-phase: ``find_*`` operations only *propose*
(duplicate pairs, hierarchy edges, connective splits) and never mutate data.
A human reviews the proposals, edits a :class:`TransformPlan` file, and
``apply_*`` operations execute the verified plan against a catalog and its
annotations, returning new values.
"""

from __future__ import annotations

import csv
import json
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from typing import IO, Iterable, Sequence

from .catalog import AnnotationSet, LabelCatalog, LabelRecord
from .errors import PlanError
from .textkit import (
    Connective,
    ConnectiveSplit,
    SplitClass,
    edit_distance_capped,
    resolve_split,
    split_connective,
    tokenize,
)

DEFAULT_SIMILARITY_THRESHOLD = 0.90


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

    Merges must be pairwise independent (an id absorbed at most once, and
    never doubling as a survivor) so they commute. Hierarchy edges must form
    a DAG; multiple parents are fine. ``remove_source`` is only legal for
    splits whose every token resolves.
    """
    known = catalog.ids()

    def check_known(label_id: int, context: str) -> None:
        if label_id not in known:
            raise PlanError(f"{context} references unknown label id {label_id}")

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
            if label_id in absorbed_all:
                raise PlanError(f"label {label_id} absorbed by two merges")
            absorbed_all.add(label_id)
    overlap = survivors & absorbed_all
    if overlap:
        raise PlanError(
            f"labels {sorted(overlap)} appear both as survivor and absorbed; "
            "merges must be independent"
        )

    for super_id, sub_id in plan.hierarchy_edges:
        check_known(super_id, "hierarchy edge")
        check_known(sub_id, "hierarchy edge")
        if super_id == sub_id:
            raise PlanError(f"hierarchy self-edge on label {super_id}")
    cycle = _find_cycle(plan.hierarchy_edges)
    if cycle is not None:
        raise PlanError(f"hierarchy edges contain a cycle through labels {cycle}")

    removed = {s.source for s in plan.and_splits if s.remove_source}
    for split in plan.and_splits:
        check_known(split.source, "and-split")
        if not split.tokens:
            raise PlanError(f"and-split of {split.source} resolves no tokens")
        for token_id in split.tokens:
            check_known(token_id, "and-split")
            if token_id == split.source:
                raise PlanError(f"and-split of {split.source} lists itself as a token")
            if token_id in removed:
                raise PlanError(
                    f"and-split token {token_id} is itself removed by another split"
                )
        if split.remove_source:
            record = catalog.get(split.source)
            recomputed = split_label(record, Connective.AND, catalog)
            if recomputed is None or recomputed.split_class is not SplitClass.ALL_RESOLVED:
                raise PlanError(
                    f"and-split of {split.source} sets remove_source but not every "
                    "token resolves to an existing label"
                )

    for group in plan.or_groups:
        check_known(group.source, "or-group")
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
            if label_id in seen_exclusive:
                raise PlanError(f"label {label_id} appears in two exclusion groups")
            seen_exclusive.add(label_id)


def _find_cycle(edges: Iterable[tuple[int, int]]) -> list[int] | None:
    """Return one cycle (as a node list) in the directed edge set, or None."""
    children: dict[int, list[int]] = {}
    for parent, child in edges:
        children.setdefault(parent, []).append(child)
    WHITE, GRAY, BLACK = 0, 1, 2
    color: dict[int, int] = {}
    stack_path: list[int] = []

    def visit(node: int) -> list[int] | None:
        color[node] = GRAY
        stack_path.append(node)
        for child in children.get(node, ()):
            c = color.get(child, WHITE)
            if c == GRAY:
                return stack_path[stack_path.index(child):] + [child]
            if c == WHITE:
                found = visit(child)
                if found is not None:
                    return found
        stack_path.pop()
        color[node] = BLACK
        return None

    for node in list(children):
        if color.get(node, WHITE) == WHITE:
            found = visit(node)
            if found is not None:
                return found
    return None


def load_plan(
    stream: IO[str],
    catalog: LabelCatalog,
    sections: Iterable[str] | None = None,
) -> TransformPlan:
    """Load a plan file. Labels are referenced by their human-readable
    "category::name" strings and resolved to ids here; unknown names are
    hard errors.

    ``sections`` restricts loading to the named operation lists. A consumer
    that only needs, say, the graph relations can then read a plan against a
    catalog the plan's other sections no longer resolve against (merged or
    split-away labels).
    """
    try:
        doc = json.load(stream)
    except json.JSONDecodeError as exc:
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

    def rid(text: str, context: str) -> int:
        if not isinstance(text, str):
            raise PlanError(f"{context}: expected a label name string, got {text!r}")
        try:
            return catalog.resolve_name(text).id
        except KeyError as exc:
            raise PlanError(f"{context}: {exc.args[0]}") from None

    plan = TransformPlan()
    for entry in doc.get("merges", []):
        plan.merges.append(
            Merge(
                survivor=rid(entry["survivor"], "merge"),
                absorbed=tuple(rid(t, "merge") for t in entry["absorbed"]),
            )
        )
    for entry in doc.get("hierarchy_edges", []):
        plan.hierarchy_edges.append(
            (rid(entry["super"], "hierarchy edge"), rid(entry["sub"], "hierarchy edge"))
        )
    for entry in doc.get("and_splits", []):
        plan.and_splits.append(
            AndSplit(
                source=rid(entry["source"], "and-split"),
                tokens=tuple(rid(t, "and-split") for t in entry["tokens"]),
                remove_source=bool(entry.get("remove_source", False)),
            )
        )
    for entry in doc.get("or_groups", []):
        plan.or_groups.append(
            OrGroup(
                source=rid(entry["source"], "or-group"),
                members=tuple(rid(t, "or-group") for t in entry["members"]),
            )
        )
    for entry in doc.get("exclusion_groups", []):
        plan.exclusion_groups.append(frozenset(rid(t, "exclusion group") for t in entry))
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


@dataclass
class CandidateReport:
    """Everything the generators propose for one catalog, for human review."""

    duplicate_pairs: list[DuplicatePair]
    hierarchy_candidates: list[HierarchyCandidate]
    split_candidates: list[ConnectiveSplit]


def _fold_hyphens(canonical: str) -> str:
    return " ".join(canonical.replace("-", " ").split())


def find_duplicates(
    catalog: LabelCatalog,
    threshold: float = DEFAULT_SIMILARITY_THRESHOLD,
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
    _check_category(catalog, category)

    records = [r for r in catalog if category is None or r.category == category]
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
    each pair is found from its longer name, of length ``L``, with
    ``K = min(L, int((1 - threshold) * L) + 1)`` the smallest distance cap
    that cannot lose a qualifying pair. A partner within distance ``K`` is at
    least ``L - K`` long, and it shares at least ``L - 1 - 2K`` bigrams
    (counted with multiplicity) with the name, since each edit destroys at
    most two of the name's ``L - 1`` bigrams (Ukkonen's q-gram lemma). Only
    partners passing both filters reach the kernel; when the bigram bound is
    not positive, every partner in the length window does.
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
            if d > cap:
                continue
            score = 1.0 - d / length
            if score >= threshold:
                pairs.append(_ordered_pair(pool[other], record, score))
        for gram in grams:
            postings.setdefault(gram, []).append(pos)
    return pairs


def _check_category(catalog: LabelCatalog, category: str | None) -> None:
    if category is not None and category not in catalog.categories():
        raise ValueError(f"unknown category {category!r}")


def find_hierarchy_candidates(
    catalog: LabelCatalog, category: str | None = None
) -> list[HierarchyCandidate]:
    """Propose (super, sub) pairs within a category.

    A is proposed as a parent of B when A's word tokens form a strict
    contiguous subsequence of B's, so both "black" and "chalk" are proposed
    as parents of "black chalk", but reorderings are not. Raises
    ``ValueError`` for an unknown ``category``.
    """
    _check_category(catalog, category)
    by_tokens: dict[tuple[str, tuple[str, ...]], list[LabelRecord]] = {}
    records = [r for r in catalog if category is None or r.category == category]
    token_lists: list[tuple[LabelRecord, tuple[str, ...]]] = []
    for record in records:
        tokens = tuple(tokenize(record.canonical))
        token_lists.append((record, tokens))
        by_tokens.setdefault((record.category, tokens), []).append(record)

    candidates: list[HierarchyCandidate] = []
    seen: set[tuple[int, int]] = set()
    for sub, tokens in token_lists:
        k = len(tokens)
        for width in range(1, k):  # strict: proper subsequence only
            for start in range(0, k - width + 1):
                window = tokens[start:start + width]
                for sup in by_tokens.get((sub.category, window), ()):
                    if sup.id == sub.id:
                        continue
                    key = (sup.id, sub.id)
                    if key in seen:
                        continue
                    seen.add(key)
                    candidates.append(
                        HierarchyCandidate(
                            super_label=sup,
                            sub_label=sub,
                            evidence=f"'{sup.canonical}' occurs in '{sub.canonical}'",
                        )
                    )
    candidates.sort(key=lambda c: (c.super_label.id, c.sub_label.id))
    return candidates


def split_label(
    record: LabelRecord, connective: Connective, catalog: LabelCatalog
) -> ConnectiveSplit | None:
    """Split one label at a connective and resolve its tokens, or None when
    the name contains no connective."""
    tokens = split_connective(record.canonical, connective)
    if len(tokens) < 2:
        return None
    return resolve_split(
        tokens,
        record.category,
        catalog,
        source_id=record.id,
        connective=connective,
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
    entries = []
    for split in tally.splits:
        resolved = split.resolved_ids
        if not resolved:
            continue
        entries.append(
            AndSplit(
                source=split.source,
                tokens=resolved,
                remove_source=split.split_class is SplitClass.ALL_RESOLVED,
            )
        )
    return entries


def or_groups_from_tally(tally: ConnectiveTally) -> list[OrGroup]:
    """Plan entries from an OR tally: every split with resolved members."""
    return [
        OrGroup(source=s.source, members=s.resolved_ids)
        for s in tally.splits
        if s.resolved_ids
    ]


# ---------------------------------------------------------------------------
# Plan application


def apply_merges(
    annotations: AnnotationSet,
    catalog: LabelCatalog,
    merges: Sequence[Merge],
) -> tuple[AnnotationSet, LabelCatalog]:
    """Rewrite absorbed labels to their survivors and drop them from the
    catalog. Per-sample sets deduplicate naturally, so a sample carrying both
    sides of a merge counts once afterwards."""
    _validate_merges_only(merges, catalog)
    rewrite: dict[int, int] = {}
    for merge in merges:
        for absorbed in merge.absorbed:
            rewrite[absorbed] = merge.survivor

    new_catalog = LabelCatalog(r for r in catalog if r.id not in rewrite)
    new_samples = (
        (sid, frozenset(rewrite.get(label, label) for label in labels))
        for sid, labels in annotations
    )
    return AnnotationSet(new_samples, new_catalog.ids()), new_catalog


def _validate_merges_only(merges: Sequence[Merge], catalog: LabelCatalog) -> None:
    probe = TransformPlan(merges=list(merges))
    validate_plan(probe, catalog)


def supercategory_closure(
    hierarchy_edges: Iterable[tuple[int, int]], transitive: bool = True
) -> dict[int, frozenset[int]]:
    """Map each sub label to the super labels it implies.

    Raises :class:`PlanError` on a cycle. With ``transitive=False`` only
    direct parents are returned (ablation mode).
    """
    edges = list(hierarchy_edges)
    cycle = _find_cycle(edges)
    if cycle is not None:
        raise PlanError(f"hierarchy edges contain a cycle through labels {cycle}")
    parents: dict[int, set[int]] = {}
    for super_id, sub_id in edges:
        parents.setdefault(sub_id, set()).add(super_id)
    if not transitive:
        return {sub: frozenset(sups) for sub, sups in parents.items()}

    closure: dict[int, frozenset[int]] = {}

    def ancestors(node: int) -> frozenset[int]:
        cached = closure.get(node)
        if cached is not None:
            return cached
        result: set[int] = set()
        for parent in parents.get(node, ()):
            result.add(parent)
            result |= ancestors(parent)
        frozen = frozenset(result)
        closure[node] = frozen
        return frozen

    for sub in list(parents):
        ancestors(sub)
    return {sub: sups for sub, sups in closure.items() if sups}


def propagate_supercategories(
    annotations: AnnotationSet,
    hierarchy_edges: Iterable[tuple[int, int]],
    transitive: bool = True,
) -> AnnotationSet:
    """Add every (transitively) implied super label to each sample carrying a
    sub label. No labels are removed; applying twice equals applying once."""
    closure = supercategory_closure(hierarchy_edges, transitive=transitive)
    referenced = set(closure) | {s for sups in closure.values() for s in sups}
    unknown = referenced - annotations.known_labels
    if unknown:
        raise PlanError(f"hierarchy edges reference unknown label ids {sorted(unknown)}")

    def expanded(labels: frozenset[int]) -> frozenset[int]:
        extra: set[int] = set()
        for label in labels:
            sups = closure.get(label)
            if sups:
                extra |= sups
        return labels | extra if extra else labels

    return AnnotationSet(
        ((sid, expanded(labels)) for sid, labels in annotations),
        annotations.known_labels,
    )


def apply_and_splits(
    annotations: AnnotationSet,
    catalog: LabelCatalog,
    and_splits: Sequence[AndSplit],
) -> tuple[AnnotationSet, LabelCatalog]:
    """Label every resolved token wherever its split source is labeled, and
    drop fully-resolved sources from the catalog and all samples. Sources of
    partial splits stay."""
    probe = TransformPlan(and_splits=list(and_splits))
    validate_plan(probe, catalog)

    additions: dict[int, tuple[int, ...]] = {s.source: s.tokens for s in and_splits}
    removed = {s.source for s in and_splits if s.remove_source}

    new_catalog = LabelCatalog(r for r in catalog if r.id not in removed)

    def transform(labels: frozenset[int]) -> frozenset[int]:
        extra: set[int] = set()
        for label in labels:
            tokens = additions.get(label)
            if tokens:
                extra.update(tokens)
        if extra or labels & removed:
            return (labels | extra) - removed
        return labels

    new_samples = ((sid, transform(labels)) for sid, labels in annotations)
    return AnnotationSet(new_samples, new_catalog.ids()), new_catalog


# ---------------------------------------------------------------------------
# Report writers


def write_duplicate_candidates(pairs: Sequence[DuplicatePair], stream: IO[str]) -> None:
    """Candidate CSV, one pair per row, scores with 4 decimal places."""
    writer = csv.writer(stream, lineterminator="\n")
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
    writer = csv.writer(stream, lineterminator="\n")
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
    class_counts = Counter(s.split_class.value for s in tally.splits)
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
        "all_resolved": class_counts.get(SplitClass.ALL_RESOLVED.value, 0),
        "none_resolved": class_counts.get(SplitClass.NONE_RESOLVED.value, 0),
        "partial": class_counts.get(SplitClass.PARTIAL.value, 0),
        "labels": items,
    }
