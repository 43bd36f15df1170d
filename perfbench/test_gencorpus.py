"""Tests of the benchmark's corpus generator.

Run with: python3 -m pytest perfbench/test_gencorpus.py
"""

import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gencorpus  # noqa: E402
import labelkit as lk  # noqa: E402


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("seed1")
    gencorpus.generate(1, out)
    return out


def _open(path):
    return open(path, encoding="utf-8", newline="")


def test_same_seed_gives_identical_bytes(corpus_dir, tmp_path):
    gencorpus.generate(1, tmp_path)
    for name in gencorpus.FILES:
        assert (tmp_path / name).read_bytes() == (corpus_dir / name).read_bytes(), name


def test_files_do_not_depend_on_which_are_written(corpus_dir, tmp_path):
    gencorpus.generate(1, tmp_path, files=("val_scores.csv", "edges.txt"))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["edges.txt", "val_scores.csv"]
    for name in ("val_scores.csv", "edges.txt"):
        assert (tmp_path / name).read_bytes() == (corpus_dir / name).read_bytes(), name


def test_other_seed_gives_other_corpus(corpus_dir, tmp_path):
    gencorpus.generate(2, tmp_path, files=("labels.csv",))
    assert (tmp_path / "labels.csv").read_bytes() != (corpus_dir / "labels.csv").read_bytes()


def test_vocabulary_shape_and_planted_counts():
    vocab = gencorpus.build_vocabulary(1)
    assert len(vocab.names) == 3474
    sizes = Counter(name.split("::", 1)[0] for name in vocab.names)
    assert sizes == {"country": 100, "culture": 681, "dimension": 5, "medium": 1920, "tags": 768}
    for kind in gencorpus.PLANTED_KINDS:
        want = sum(per_category[kind] for per_category in gencorpus.PLANTED.values())
        assert len(vocab.planted[kind]) == want, kind
    names = set(vocab.names)
    for kind in ("hyphen", "spelling", "plural", "contain"):
        for a, b in vocab.planted[kind]:
            assert a in names and b in names
    for base, variant in vocab.planted["hyphen"]:
        assert variant == base.replace(" ", "-", 1)
    for base, variant in vocab.planted["plural"]:
        assert variant == base + "s"
    for base, variant in vocab.planted["spelling"]:
        assert len(base) == len(variant) and sum(x != y for x, y in zip(base, variant)) == 1
    for sup, sub in vocab.planted["contain"]:
        assert sub.startswith(sup + " ")


def test_every_file_parses_with_labelkit(corpus_dir):
    with _open(corpus_dir / "labels.csv") as handle:
        catalog = lk.parse_labels(handle)
    assert len(catalog) == 3474
    for split, n_samples in (("train", gencorpus.TRAIN_SAMPLES), ("val", gencorpus.VAL_SAMPLES)):
        with _open(corpus_dir / f"{split}.csv") as handle:
            annotations = lk.parse_annotations(handle, catalog, on_duplicate_label="error")
        assert len(annotations) == n_samples
        assert 4.0 <= sum(len(labels) for _, labels in annotations) / n_samples <= 5.0
        with _open(corpus_dir / f"{split}_scores.csv") as handle:
            scores = lk.parse_scores(handle, catalog)
        assert scores.sample_ids() == annotations.sample_ids()
        rows = sum(len(s) for _, s in scores)
        assert 42 <= rows / n_samples <= 46
    with _open(corpus_dir / "plan.json") as handle:
        plan = lk.load_plan(handle, catalog)
    vocab = gencorpus.build_vocabulary(1)
    planted = {kind: len(items) for kind, items in vocab.planted.items()}
    assert len(plan.merges) == planted["hyphen"] + planted["spelling"] + planted["plural"]
    assert len(plan.and_splits) == planted["and_full"] + planted["and_partial"]
    assert sum(s.remove_source for s in plan.and_splits) == planted["and_full"]
    assert len(plan.hierarchy_edges) == planted["contain"]
    assert plan.exclusion_groups == [catalog.category_ids("dimension")]
    with _open(corpus_dir / "edges.txt") as handle:
        edges = lk.parse_curated_edges(handle, catalog)
    assert len(edges) == sum(gencorpus.CURATED_EDGES.values())


def test_connective_tallies_match_planted():
    vocab = gencorpus.build_vocabulary(1)
    catalog = lk.LabelCatalog(
        lk.LabelRecord(id=i, category=name.split("::", 1)[0], name=name.split("::", 1)[1])
        for i, name in enumerate(vocab.names)
    )
    for connective in (lk.Connective.AND, lk.Connective.OR):
        tally = lk.classify_connectives(catalog, connective)
        word = connective.value
        assert tally.all_resolved == len(vocab.planted[f"{word}_full"])
        assert tally.partial == len(vocab.planted[f"{word}_partial"])
        assert tally.none_resolved == 0
