"""Seeded generator of an iMet-shaped corpus for the labelkit benchmark.

The seed is the only input: the same seed writes byte-identical files. Each
file draws from its own random stream (seeded from the seed and the file's
role), so writing only the files one workload needs gives the same bytes as
writing all of them.

Vocabulary: 3474 labels in the iMet 2020 category sizes, with planted
near-duplicates (hyphen, one-letter spelling and plural variants), "a and b"
and "a or b" names that resolve fully or partly, and contiguous-containment
names ("x" inside "x y"). Every other name is a fresh combination of
pseudo-words, so the planted constructs are the only hyphens and the only
connective words in the vocabulary.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

CATEGORY_SIZES = {"country": 100, "culture": 681, "dimension": 5, "medium": 1920, "tags": 768}
DIMENSION_NAMES = ("flat", "small", "medium size", "large", "monumental")
PLANTED_KINDS = ("hyphen", "spelling", "plural", "and_full", "and_partial", "or_full", "or_partial", "contain")
PLANTED = {
    "country": {"hyphen": 2, "spelling": 1, "plural": 0, "and_full": 1, "and_partial": 1, "or_full": 1, "or_partial": 1, "contain": 2},
    "culture": {"hyphen": 10, "spelling": 8, "plural": 4, "and_full": 6, "and_partial": 6, "or_full": 8, "or_partial": 6, "contain": 8},
    "medium": {"hyphen": 24, "spelling": 14, "plural": 10, "and_full": 14, "and_partial": 10, "or_full": 4, "or_partial": 4, "contain": 20},
    "tags": {"hyphen": 6, "spelling": 5, "plural": 8, "and_full": 3, "and_partial": 3, "or_full": 2, "or_partial": 2, "contain": 8},
}
# Lexicon size per category and name-length weights (1..4 words): medium
# names reuse a smaller word pool across more words, as real material names do.
LEXICON = {"country": (140, (0.8, 0.2)), "culture": (520, (0.6, 0.35, 0.05)),
           "medium": (420, (0.3, 0.4, 0.2, 0.1)), "tags": (500, (0.55, 0.4, 0.05))}
TRAIN_SAMPLES = 20_000
VAL_SAMPLES = 2_500
CURATED_EDGES = {"culture": 120, "country": 20, "medium": 60, "tags": 40}

_ONSETS = ("b", "br", "c", "ch", "d", "f", "g", "gr", "k", "l", "m", "n", "p", "pl", "r", "s", "st", "t", "tr", "v", "z")
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ea", "io", "ou")
_CODAS = ("", "", "", "n", "r", "l", "s", "t", "m", "nd", "rk")
_LETTERS = "abcdefghijklmnopqrstuvwxyz"
_FORBIDDEN_WORDS = {"and", "or", "on"}
FILES = ("labels.csv", "train.csv", "train_scores.csv", "val.csv", "val_scores.csv", "plan.json", "edges.txt")


@dataclass
class Vocabulary:
    """Qualified label names by id, plus the manifest of planted constructs.

    ``planted[kind]`` lists, per construct, the qualified names involved:
    (base, variant) for hyphen/spelling/plural, (composite, resolved tokens,
    missing tokens) for connectives, (super, sub) for containment.
    """

    names: list[str]
    planted: dict[str, list[tuple]] = field(default_factory=dict)

    def category_ids(self, category: str) -> list[int]:
        return [i for i, n in enumerate(self.names) if n.split("::", 1)[0] == category]


def _stream(seed: int, role: str) -> random.Random:
    # String seeds hash through sha512, so streams do not depend on PYTHONHASHSEED.
    return random.Random(f"labelkit-bench:{seed}:{role}")


def _pseudo_word(rng: random.Random) -> str:
    return "".join(
        rng.choice(_ONSETS) + rng.choice(_VOWELS) + rng.choice(_CODAS)
        for _ in range(rng.choice((1, 2, 2)))
    )


class _CategoryNames:
    def __init__(self, rng: random.Random, category: str):
        self.rng = rng
        self.category = category
        size, self.word_weights = LEXICON[category]
        # The word pool is the same for every seed (the seed picks how words
        # combine), so the name-length mix, which sets the cost of the
        # pairwise scans, barely moves between seeds.
        word_rng = random.Random(f"labelkit-bench:lexicon:{category}")
        lexicon: list[str] = []
        seen: set[str] = set()
        while len(lexicon) < size:
            word = _pseudo_word(word_rng)
            if word not in seen and word not in _FORBIDDEN_WORDS:
                seen.add(word)
                lexicon.append(word)
        self.lexicon = lexicon
        self.names: list[str] = []
        self.taken: set[str] = set()  # hyphen-folded forms in use or reserved
        self.counts: list[int] = []

    @staticmethod
    def _fold(name: str) -> str:
        return " ".join(name.replace("-", " ").split())

    def _free(self, name: str) -> bool:
        return self._fold(name) not in self.taken

    def reserve(self, name: str) -> None:
        self.taken.add(self._fold(name))

    def add(self, name: str, fold_twin: bool = False) -> str:
        """Add a name; ``fold_twin`` allows the planted hyphen variant of a
        name already present."""
        if not fold_twin and not self._free(name):
            raise ValueError(f"name {name!r} already taken in {self.category}")
        self.reserve(name)
        self.names.append(name)
        return name

    def _word_count(self) -> int:
        # Word counts come in shuffled blocks of 20 with exact proportions,
        # for the same reason the word pool is fixed.
        if not self.counts:
            self.counts = [k + 1 for k, w in enumerate(self.word_weights) for _ in range(round(w * 20))]
            self.rng.shuffle(self.counts)
        return self.counts.pop()

    def fresh(self, min_words: int = 1, min_len: int = 0, no_trailing_s: bool = False) -> str:
        """A new name not yet taken or reserved (not added)."""
        n_words = max(self._word_count(), min_words)
        for attempt in itertools.count(1):
            if attempt % 50 == 0:  # this word count is (nearly) used up
                n_words += 1
            name = " ".join(self.rng.choice(self.lexicon) for _ in range(n_words))
            if len(name) >= min_len and not (no_trailing_s and name.endswith("s")) and self._free(name):
                return name

    def plant(self, kind: str) -> tuple:
        q = lambda name: f"{self.category}::{name}"  # noqa: E731
        if kind == "hyphen":
            base = self.add(self.fresh(min_words=2))
            variant = self.add(base.replace(" ", "-", 1), fold_twin=True)
            return q(base), q(variant)
        if kind == "spelling":
            while True:
                base = self.fresh(min_len=10)
                spots = [i for i, ch in enumerate(base) if ch != " "]
                pos = self.rng.choice(spots)
                letter = self.rng.choice([c for c in _LETTERS if c != base[pos]])
                variant = base[:pos] + letter + base[pos + 1:]
                if self._free(variant) and set(variant.split()).isdisjoint(_FORBIDDEN_WORDS):
                    break
            self.add(base)
            self.add(variant)
            return q(base), q(variant)
        if kind == "plural":
            while True:
                base = self.fresh(min_len=10, no_trailing_s=True)
                if self._free(base + "s"):
                    break
            self.add(base)
            return q(base), q(self.add(base + "s"))
        if kind == "contain":
            while True:
                sup = self.fresh()
                sub = f"{sup} {self.rng.choice(self.lexicon)}"
                if self._free(sub):
                    break
            self.add(sup)
            return q(sup), q(self.add(sub))
        connective, _, resolution = kind.partition("_")
        left = self.add(self.fresh())
        right = self.fresh()
        if resolution == "full":
            self.add(right)
            resolved, missing = [q(left), q(right)], []
        else:
            self.reserve(right)  # never becomes a label, so it stays unresolved
            resolved, missing = [q(left)], [right]
        parts = [left, right] if self.rng.random() < 0.5 else [right, left]
        composite = self.add(f" {connective} ".join(parts))
        return q(composite), tuple(resolved), tuple(missing)


def build_vocabulary(seed: int) -> Vocabulary:
    rng = _stream(seed, "vocabulary")
    names: list[str] = []
    planted: dict[str, list[tuple]] = {kind: [] for kind in PLANTED_KINDS}
    for category, size in CATEGORY_SIZES.items():
        if category == "dimension":
            category_names = list(DIMENSION_NAMES)
        else:
            pool = _CategoryNames(rng, category)
            for kind in PLANTED_KINDS:
                for _ in range(PLANTED[category][kind]):
                    planted[kind].append(pool.plant(kind))
            while len(pool.names) < size:
                pool.add(pool.fresh())
            category_names = pool.names
        if len(category_names) != size:
            raise AssertionError(f"{category}: built {len(category_names)} names, want {size}")
        names.extend(f"{category}::{name}" for name in sorted(category_names))
    return Vocabulary(names=names, planted=planted)


def _popularity(rng: random.Random, ids: list[int]) -> tuple[list[int], list[float]]:
    """Ids in a seeded popularity order with cumulative Zipf-like weights."""
    order = list(ids)
    rng.shuffle(order)
    cumulative, total = [], 0.0
    for rank in range(len(order)):
        total += 1.0 / (rank + 1) ** 0.8
        cumulative.append(total)
    return order, cumulative


def build_annotations(vocab: Vocabulary, seed: int, role: str, n_samples: int) -> list[tuple[str, list[int]]]:
    """Samples with about 4-5 labels each, drawn by per-category popularity."""
    rng = _stream(seed, role)
    pools = {c: _popularity(rng, vocab.category_ids(c)) for c in CATEGORY_SIZES}
    # (category, probability of at least one label, extra labels up to)
    plan = (("culture", 0.9, 0), ("country", 0.25, 0), ("dimension", 0.35, 0), ("medium", 1.0, 1), ("tags", 1.0, 2))
    samples: list[tuple[str, list[int]]] = []
    seen: set[str] = set()
    while len(samples) < n_samples:
        sample_id = f"{rng.getrandbits(64):016x}"
        if sample_id in seen:
            continue
        seen.add(sample_id)
        labels: list[int] = []
        for category, p_first, extra in plan:
            if rng.random() >= p_first:
                continue
            order, cumulative = pools[category]
            for _ in range(1 + rng.randint(0, extra)):
                label = rng.choices(order, cum_weights=cumulative)[0]
                if label not in labels:
                    labels.append(label)
        samples.append((sample_id, sorted(labels)))
    return samples


def build_scores(vocab: Vocabulary, samples, seed: int, role: str) -> list[tuple[str, list[tuple[int, str]]]]:
    """About 44 scored labels per sample: the truth (mostly high scores) plus
    popular distractors (mostly low), and extra dimension labels so that the
    exclusion group has conflicts to resolve. Scores are the formatted
    strings written to the file."""
    rng = _stream(seed, role)
    order, cumulative = _popularity(rng, list(range(len(vocab.names))))
    dimension = vocab.category_ids("dimension")
    rows = []
    for sample_id, truth in samples:
        scored = {label: rng.random() ** 0.6 for label in truth}
        for label in dimension:
            if label not in scored and rng.random() < 0.3:
                scored[label] = rng.random() * 0.6
        target = len(scored) + rng.randint(34, 42)
        while len(scored) < target:
            label = rng.choices(order, cum_weights=cumulative)[0]
            if label not in scored:
                scored[label] = 0.95 * rng.random() ** 5
        items = list(scored.items())
        rng.shuffle(items)
        rows.append((sample_id, [(label, f"{score:.6f}") for label, score in items]))
    return rows


def build_plan(vocab: Vocabulary) -> dict:
    """Merges for every planted variant pair, and-splits for every planted
    "and" name, hierarchy edges for every planted containment, and one
    exclusion group holding the dimension labels."""
    p = vocab.planted
    merges = [{"survivor": base, "absorbed": [variant]} for kind in ("hyphen", "spelling", "plural") for base, variant in p[kind]]
    and_splits = [
        {"source": composite, "tokens": list(resolved), "remove_source": kind == "and_full"}
        for kind in ("and_full", "and_partial")
        for composite, resolved, _ in p[kind]
    ]
    return {
        "merges": merges,
        "and_splits": and_splits,
        "hierarchy_edges": [{"super": sup, "sub": sub} for sup, sub in p["contain"]],
        "exclusion_groups": [[vocab.names[i] for i in vocab.category_ids("dimension")]],
    }


def build_curated_edges(vocab: Vocabulary, seed: int) -> list[tuple[str, str]]:
    rng = _stream(seed, "edges")
    edges: list[tuple[str, str]] = []
    for category, count in CURATED_EDGES.items():
        ids = vocab.category_ids(category)
        for _ in range(count):
            a, b = rng.sample(ids, 2)
            edges.append((vocab.names[a], vocab.names[b]))
    return edges


def _write(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def _annotations_text(samples) -> str:
    return "id,attribute_ids\n" + "".join(f"{sid},{' '.join(map(str, labels))}\n" for sid, labels in samples)


def _scores_text(rows) -> str:
    parts = ["id,attribute_id,score\n"]
    for sid, scored in rows:
        parts.extend(f"{sid},{label},{score}\n" for label, score in scored)
    return "".join(parts)


@dataclass
class Corpus:
    """Everything generated for one seed, kept for the benchmark's oracles."""

    vocab: Vocabulary
    train: list | None = None
    train_scores: list | None = None
    val: list | None = None
    val_scores: list | None = None
    plan: dict | None = None
    edges: list | None = None


def generate(seed: int, out_dir: Path, files=FILES) -> Corpus:
    """Write the requested corpus files into ``out_dir`` and return the data."""
    unknown = set(files) - set(FILES)
    if unknown:
        raise ValueError(f"unknown corpus files {sorted(unknown)}")
    out_dir.mkdir(parents=True, exist_ok=True)
    corpus = Corpus(vocab=build_vocabulary(seed))
    names = corpus.vocab.names
    if "labels.csv" in files:
        _write(out_dir / "labels.csv", "attribute_id,attribute_name\n" + "".join(f"{i},{n}\n" for i, n in enumerate(names)))
    for split, n_samples in (("train", TRAIN_SAMPLES), ("val", VAL_SAMPLES)):
        if f"{split}.csv" in files or f"{split}_scores.csv" in files:
            samples = build_annotations(corpus.vocab, seed, split, n_samples)
            setattr(corpus, split, samples)
            if f"{split}.csv" in files:
                _write(out_dir / f"{split}.csv", _annotations_text(samples))
        if f"{split}_scores.csv" in files:
            rows = build_scores(corpus.vocab, samples, seed, f"{split}_scores")
            setattr(corpus, f"{split}_scores", rows)
            _write(out_dir / f"{split}_scores.csv", _scores_text(rows))
    if "plan.json" in files:
        corpus.plan = build_plan(corpus.vocab)
        _write(out_dir / "plan.json", json.dumps(corpus.plan, indent=2, sort_keys=True) + "\n")
    if "edges.txt" in files:
        corpus.edges = build_curated_edges(corpus.vocab, seed)
        _write(out_dir / "edges.txt", "# curated relatedness edges\n" + "".join(f"{a}, {b}\n" for a, b in corpus.edges))
    return corpus

