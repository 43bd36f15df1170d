"""Label vocabulary and annotation ingestion, plus corpus statistics.

The label file is a header-bearing CSV with columns ``attribute_id`` and
``attribute_name``, where the name embeds the category as
``<category>::<name>``. The annotation file has columns ``id`` and
``attribute_ids`` with the label ids space-separated. Both are UTF-8
comma-separated files.
"""

from __future__ import annotations

import unicodedata
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import IO, Collection, Iterable, Iterator

from .csvio import CsvTable, csv_writer
from .errors import UnknownCategory

UNCATEGORIZED = "uncategorized"


def _warn(message: str, *args) -> None:
    # logging is imported only when there is a warning to give.
    import logging

    logging.getLogger(__name__).warning(message, *args)


def canonicalize(name: str) -> str:
    """Deterministic, idempotent normal form of a label name.

    NFC-normalized, lowercased, whitespace runs collapsed to single spaces,
    stripped. Hyphen/space equivalence is deliberately NOT folded here so the
    catalog keeps surface distinctions like "bronze gilt" vs "bronze-gilt";
    duplicate detection folds hyphens itself.
    """
    return " ".join(unicodedata.normalize("NFC", name).lower().split())


@dataclass(frozen=True)
class LabelRecord:
    id: int
    category: str
    name: str
    canonical: str = field(init=False)

    def __post_init__(self) -> None:
        if self.id < 0:
            raise ValueError(f"label id must be non-negative, got {self.id}")
        object.__setattr__(self, "canonical", canonicalize(self.name))

    @property
    def qualified_name(self) -> str:
        """The full name as it appears in the label file, e.g. "culture::abruzzi"."""
        return f"{self.category}::{self.name}"


class LabelCatalog:
    """Immutable label vocabulary with id and canonical-form lookups.

    Iteration order is ascending id. ``(category, canonical)`` duplicates are
    allowed (that is precisely the noise the cleaning pipeline removes) and
    canonical lookups resolve to the lowest matching id. Bare and qualified
    names are both looked up in one ``canonical -> [records]`` index, each
    list in id order.
    """

    def __init__(self, records: Iterable[LabelRecord]):
        self.records: list[LabelRecord] = sorted(records, key=lambda r: r.id)
        self.by_id: dict[int, LabelRecord] = {}
        self._by_canonical: dict[str, list[LabelRecord]] = {}
        for record in self.records:
            if record.id in self.by_id:
                raise ValueError(f"duplicate label id {record.id}")
            self.by_id[record.id] = record
            self._by_canonical.setdefault(record.canonical, []).append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[LabelRecord]:
        return iter(self.records)

    def __contains__(self, label_id: int) -> bool:
        return label_id in self.by_id

    def get(self, label_id: int) -> LabelRecord:
        try:
            return self.by_id[label_id]
        except KeyError:
            raise KeyError(f"unknown label id {label_id}") from None

    def find(self, category: str, name: str) -> LabelRecord | None:
        """Look a label up by category and (canonicalized) name."""
        for record in self._by_canonical.get(canonicalize(name), ()):
            if record.category == category:
                return record
        return None

    def ids(self) -> frozenset[int]:
        return frozenset(self.by_id)

    def categories(self) -> list[str]:
        return sorted({r.category for r in self.records})

    def category_ids(self, category: str) -> frozenset[int]:
        """Ids of the category's labels; :class:`UnknownCategory`, a
        ``ValueError``, for a category the catalog does not hold."""
        ids = frozenset(r.id for r in self.records if r.category == category)
        if not ids:
            raise UnknownCategory(f"unknown category {category!r}")
        return ids

    def resolve_name(self, text: str) -> LabelRecord:
        """Resolve a human-written label reference to a record.

        Accepts the qualified "category::name" form, or a bare name which must
        be unambiguous. A qualified name spelled exactly as a record's
        ``qualified_name`` resolves to that record, so canonical-equal
        duplicates stay apart and a category with outer spaces round-trips;
        any other spelling resolves to the lowest id with the stripped
        category and that canonical form.
        """
        if "::" in text:
            cat, _, bare = text.partition("::")
            candidates = self._by_canonical.get(canonicalize(bare), ())
            exact = next((r for r in candidates if r.qualified_name == text), None)
            if exact is not None:
                return exact
            cat = cat.strip()
            match = next((r for r in candidates if r.category == cat), None)
            if match is None:
                raise KeyError(f"unknown label {text!r}")
            return match
        matches = self._by_canonical.get(canonicalize(text), ())
        if not matches:
            raise KeyError(f"unknown label {text!r}")
        if len(matches) > 1:
            cats = ", ".join(sorted(r.category for r in matches))
            raise KeyError(f"ambiguous label {text!r} (categories: {cats}); qualify it")
        return matches[0]


class SampleTable:
    """Ordered ``{sample id: stored value}`` index over the label ids of a
    catalog, read through one path.

    ``known_labels`` is the id set of the companion catalog. The constructor
    rejects repeated sample ids and runs each subclass's per-sample check,
    which returns the value to store. Code whose rows are already valid hands
    its dict over through :meth:`_trusted` instead, which neither checks nor
    copies. A subclass says how a stored value reads, ``_read(sample id,
    value)``; iteration yields ``(sample id, read value)`` in stored order,
    and :meth:`_lookup` (``labels_for``, ``scores_for``) reads one sample or
    raises ``KeyError("unknown sample id ...")``.
    """

    def __init__(self, samples: Iterable[tuple[str, object]], known_labels: Iterable[int]):
        self.known_labels: frozenset[int] = frozenset(known_labels)
        self._index: dict = {}
        for sample_id, value in samples:
            if sample_id in self._index:
                raise ValueError(f"duplicate sample id {sample_id!r}")
            self._index[sample_id] = self._checked(sample_id, value)

    @classmethod
    def _trusted(cls, index: dict, known_labels: frozenset[int]):
        """Adopt validated per-sample values as they are, in ``index`` order."""
        self = cls.__new__(cls)
        self.known_labels, self._index = known_labels, index
        return self

    def _checked(self, sample_id: str, value):
        raise NotImplementedError

    def _read(self, sample_id: str, value):
        raise NotImplementedError

    def _lookup(self, sample_id: str):
        try:
            value = self._index[sample_id]
        except KeyError:
            raise KeyError(f"unknown sample id {sample_id!r}") from None
        return self._read(sample_id, value)

    def __len__(self) -> int:
        return len(self._index)

    def __iter__(self) -> Iterator:
        index = self._index
        return zip(index, map(self._read, index, index.values()))

    def __contains__(self, sample_id: str) -> bool:
        return sample_id in self._index

    def sample_ids(self) -> list[str]:
        return list(self._index)


class AnnotationSet(SampleTable):
    """Ordered sample -> label-id-set mapping. Every label of a sample must
    belong to ``known_labels``; the constructor checks this.

    Each sample is stored as a ``tuple`` of its distinct label ids, in no
    particular order, which costs 8 bytes a label where a ``frozenset`` of
    five or more costs a 728-byte table; :func:`parse_annotations` fills
    the tuples with the catalog's own int objects. A sample reads as a
    ``frozenset`` built each time (late materialization); the frequency,
    statistics and writer functions here and the cleanse transforms read
    the tuples themselves (:meth:`_rows`). :func:`parse_annotations` checks
    every id while reading, with file and line, and adopts its rows without
    a second pass.
    """

    def _checked(self, sample_id: str, labels: Iterable[int]) -> tuple[int, ...]:
        labels = set(labels)
        if not labels <= self.known_labels:
            raise ValueError(
                f"sample {sample_id!r} references unknown label ids "
                f"{sorted(labels - self.known_labels)}"
            )
        return tuple(labels)

    def _read(self, sample_id: str, labels: Collection[int]) -> frozenset[int]:
        return frozenset(labels)

    labels_for = SampleTable._lookup

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AnnotationSet):
            return NotImplemented
        return list(self) == list(other) and self.known_labels == other.known_labels

    def _rows(self) -> Iterable[tuple[str, Collection[int]]]:
        """``(sample id, its distinct labels)`` in sample order, as they are
        stored, with no set built."""
        return self._index.items()

    def label_frequency(self) -> Counter[int]:
        """Positive-sample count per label id."""
        return Counter(chain.from_iterable(labels for _, labels in self._rows()))


@dataclass
class CorpusStats:
    """Corpus-level statistics of a catalog/annotation pair."""

    n_samples: int
    per_label_frequency: dict[int, int]
    labels_per_sample_histogram: dict[int, int]
    median_labels_per_sample: int
    category_coverage: dict[str, int]  # samples holding >= 1 label of the category


def parse_labels(stream: IO[str]) -> LabelCatalog:
    """Parse a label vocabulary file into a catalog.

    Rows missing the category separator land in the "uncategorized" category
    with a warning. Malformed rows and duplicate ids are hard errors; like
    the warnings, they name the file and the physical line (:class:`CsvTable`).
    """
    source = getattr(stream, "name", "<labels>")
    table = CsvTable(stream, ("attribute_id", "attribute_name"), source)
    records: list[LabelRecord] = []
    seen: set[int] = set()
    for raw_id, raw_name in table:
        try:
            label_id = int(raw_id)
        except ValueError:
            raise table.error(f"bad label id {raw_id!r}") from None
        if label_id < 0:
            raise table.error(f"negative label id {label_id}")
        if label_id in seen:
            raise table.error(f"duplicate label id {label_id}")
        seen.add(label_id)

        category, separator, name = raw_name.partition("::")
        if not separator:
            _warn(
                "%s:%d: label %d has no %r separator, categorized as %r",
                source,
                table.line,
                label_id,
                "::",
                UNCATEGORIZED,
            )
            category, name = UNCATEGORIZED, raw_name
        records.append(LabelRecord(id=label_id, category=category, name=name))
    return LabelCatalog(records)


def write_labels(catalog: LabelCatalog, stream: IO[str]) -> None:
    """Serialize a catalog in the label file format, ascending id."""
    writer = csv_writer(stream)
    writer.writerow(["attribute_id", "attribute_name"])
    for record in catalog:
        writer.writerow([record.id, record.qualified_name])


def parse_annotations(
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
    table = CsvTable(stream, ("id", "attribute_ids"), getattr(stream, "name", "<annotations>"))
    known = catalog.ids()
    # An id in canonical form (str(id)) resolves in one lookup, to the
    # catalog's own int; any other spelling ("05", "+5", "٥") goes through
    # int(), which accepts or rejects it.
    by_text = {str(label_id): label_id for label_id in known}
    samples: dict[str, tuple[int, ...]] = {}
    for sample_id, raw_ids in table:
        if sample_id in samples:
            raise table.error(f"duplicate sample id {sample_id!r}")
        labels: set[int] = set()
        for part in raw_ids.split():
            label_id = by_text.get(part)
            if label_id is None:
                try:
                    label_id = int(part)
                except ValueError:
                    raise table.error(f"bad label id {part!r} in sample {sample_id!r}") from None
                if label_id not in known:
                    raise table.error(
                        f"sample {sample_id!r} references unknown label id {label_id}"
                    )
            if label_id in labels:
                if on_duplicate_label == "error":
                    raise table.error(f"duplicate label id {label_id} in sample {sample_id!r}")
                _warn(
                    "%s:%d: duplicate label id %d in sample %r, deduplicated",
                    table.source,
                    table.line,
                    label_id,
                    sample_id,
                )
            labels.add(label_id)
        samples[sample_id] = tuple(labels)
    return AnnotationSet._trusted(samples, known)


def write_annotations(annotations: AnnotationSet, stream: IO[str]) -> None:
    """Serialize annotations; label ids ascending within each row."""
    writer = csv_writer(stream)
    writer.writerow(["id", "attribute_ids"])
    writer.writerows(
        (sample_id, " ".join(map(str, sorted(labels))))
        for sample_id, labels in annotations._rows()
    )


def compute_stats(annotations: AnnotationSet, catalog: LabelCatalog) -> CorpusStats:
    """Exact corpus statistics: label frequencies, the labels-per-sample
    histogram with its (lower) median, and per-category sample coverage,
    from one read of each sample."""
    category_of = {r.id: r.category for r in catalog}
    frequency: Counter[int] = Counter()
    histogram: Counter[int] = Counter()
    cat_coverage: Counter[str] = Counter()
    for _, labels in annotations._rows():
        frequency.update(labels)
        histogram[len(labels)] += 1
        cat_coverage.update({category_of[i] for i in labels})

    return CorpusStats(
        n_samples=len(annotations),
        per_label_frequency={i: frequency.get(i, 0) for i in sorted(catalog.ids())},
        labels_per_sample_histogram=dict(histogram),
        median_labels_per_sample=_histogram_median(histogram),
        category_coverage={c: cat_coverage.get(c, 0) for c in catalog.categories()},
    )


def _histogram_median(histogram: Counter[int]) -> int:
    """Lower median of the distribution the histogram encodes."""
    total = sum(histogram.values())
    if total == 0:
        return 0
    rank = (total + 1) // 2  # 1-based rank of the lower median
    running = 0
    for value in sorted(histogram):
        running += histogram[value]
        if running >= rank:
            return value
    raise AssertionError("histogram exhausted before median rank")


def cooccurrence(annotations: AnnotationSet, a: int, b: int) -> tuple[int, int, int]:
    """Positive-sample counts (count_a, count_b, count_both) for two labels."""
    if a == b:
        raise ValueError("cooccurrence requires two distinct labels")
    for label_id in (a, b):
        if label_id not in annotations.known_labels:
            raise ValueError(f"unknown label id {label_id}")
    count_a = count_b = count_both = 0
    for _, labels in annotations._rows():
        has_a = a in labels
        has_b = b in labels
        count_a += has_a
        count_b += has_b
        count_both += has_a and has_b
    return count_a, count_b, count_both
