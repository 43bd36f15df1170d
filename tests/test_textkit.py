"""Edit distance kernel, string splitting, and tokenization.

Two oracles check the bit-parallel kernel: an independent textbook
recursion for the distance, and the dynamic-programming kernel it replaced,
kept here verbatim, for the exact capped value.
"""

import functools
import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelkit import cleanse, textkit
from labelkit.catalog import LabelCatalog, LabelRecord
from labelkit.textkit import (
    Connective,
    ConnectiveSplit,
    edit_distance_capped,
    split_connective,
    tokenize,
)


def oracle_distance(a: str, b: str) -> int:
    """Plain memoized recursion, no trimming or row tricks."""

    @functools.lru_cache(maxsize=None)
    def rec(i: int, j: int) -> int:
        if i == 0:
            return j
        if j == 0:
            return i
        cost = 0 if a[i - 1] == b[j - 1] else 1
        return min(rec(i - 1, j) + 1, rec(i, j - 1) + 1, rec(i - 1, j - 1) + cost)

    return rec(len(a), len(b))


def _trim(a: str, b: str) -> tuple[str, str]:
    # A shared prefix/suffix never participates in an optimal edit script.
    lo = 0
    hi_a, hi_b = len(a), len(b)
    while lo < hi_a and lo < hi_b and a[lo] == b[lo]:
        lo += 1
    while hi_a > lo and hi_b > lo and a[hi_a - 1] == b[hi_b - 1]:
        hi_a -= 1
        hi_b -= 1
    return a[lo:hi_a], b[lo:hi_b]


def dp_edit_distance_capped(a: str, b: str, cap: int) -> int:
    """The row-by-row DP kernel the bit-parallel one replaced: the reference
    for its exact return value, ``cap + 1`` included."""
    if cap < 0:
        return 0 if a == b else cap + 1
    if a == b:
        return 0
    a, b = _trim(a, b)
    if abs(len(a) - len(b)) > cap:
        return cap + 1
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(a) > len(b):
        a, b = b, a

    prev = list(range(len(a) + 1))
    for j, cb in enumerate(b, start=1):
        cur = [j]
        append = cur.append
        best = j
        for i, ca in enumerate(a, start=1):
            v = min(
                prev[i] + 1,
                cur[i - 1] + 1,
                prev[i - 1] + (ca != cb),
            )
            append(v)
            if v < best:
                best = v
        if best > cap:
            return cap + 1
        prev = cur
    return prev[-1] if prev[-1] <= cap else cap + 1


def edit_distance(a: str, b: str) -> int:
    """The kernel with a cap no distance exceeds, so it never cuts short."""
    return edit_distance_capped(a, b, max(len(a), len(b)))


WORDS = ["", "a", "ab", "bronze", "bronze gilt", "bronze-gilt", "watercolor",
         "watercolour", "black chalk", "chalk", "kitten", "sitting"]


@pytest.mark.parametrize("a", WORDS)
@pytest.mark.parametrize("b", WORDS)
def test_distance_matches_oracle_on_fixed_pairs(a, b):
    assert edit_distance(a, b) == oracle_distance(a, b)


def test_distance_matches_oracle_random():
    rng = random.Random(20260813)
    alphabet = "abcde -"
    for _ in range(400):
        a = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 14)))
        b = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 14)))
        assert edit_distance(a, b) == oracle_distance(a, b)


@given(st.text(alphabet=string.ascii_lowercase + " -", max_size=12),
       st.text(alphabet=string.ascii_lowercase + " -", max_size=12))
@settings(max_examples=200, deadline=None)
def test_metric_axioms(a, b):
    d = edit_distance(a, b)
    assert d >= 0
    assert (d == 0) == (a == b)
    assert d == edit_distance(b, a)
    assert d <= max(len(a), len(b))
    assert d >= abs(len(a) - len(b))


@given(st.text(alphabet="abcd", max_size=8), st.text(alphabet="abcd", max_size=8),
       st.text(alphabet="abcd", max_size=8))
@settings(max_examples=150, deadline=None)
def test_triangle_inequality(a, b, c):
    assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)


@given(st.text(alphabet="abc -", max_size=10), st.text(alphabet="abc -", max_size=10),
       st.integers(min_value=0, max_value=12))
@settings(max_examples=300, deadline=None)
def test_capped_distance_contract(a, b, cap):
    d = oracle_distance(a, b)
    capped = edit_distance_capped(a, b, cap)
    if d <= cap:
        assert capped == d
    else:
        assert capped > cap


# Combining acute (U+0301) and a non-BMP emoji: each is one code point.
_KERNEL_ALPHABET = "ab -\u00e9\u0301\U0001F600"


@given(st.text(alphabet=_KERNEL_ALPHABET, max_size=10),
       st.text(alphabet=_KERNEL_ALPHABET, max_size=10))
@settings(max_examples=500, deadline=None)
def test_kernel_returns_the_dp_value_at_every_cap(a, b):
    for cap in range(-1, max(len(a), len(b)) + 2):
        assert edit_distance_capped(a, b, cap) == dp_edit_distance_capped(a, b, cap), cap


def test_kernel_returns_the_dp_value_past_one_machine_word():
    # Patterns of 60 to 150 code points make bit vectors that span several
    # of a Python int's 30-bit digits, so carries cross digit boundaries.
    rng = random.Random(25)
    for _ in range(60):
        a = "".join(rng.choice("abcd ") for _ in range(rng.randrange(60, 150)))
        b = list(a)
        for _ in range(rng.randrange(0, 25)):
            b.insert(rng.randrange(len(b) + 1), rng.choice("abx"))
            del b[rng.randrange(len(b))]
        b = "".join(b)
        for cap in (0, 3, 10, 24, 200):
            assert edit_distance_capped(a, b, cap) == dp_edit_distance_capped(a, b, cap)


def _planted_catalog(seed: int) -> LabelCatalog:
    """A few hundred labels in three categories, a third of them hyphen,
    spelling or plural variants of the others."""
    rng = random.Random(seed)
    syllables = ["ar", "bro", "chal", "de", "gil", "ka", "lin", "mo", "nze", "or",
                 "pa", "que", "ri", "sil", "ter", "ul", "ver", "wo"]

    def word():
        return "".join(rng.choice(syllables) for _ in range(rng.randrange(1, 4)))

    def variant(name):
        kind = rng.randrange(3)
        if kind == 0 and " " in name:
            return name.replace(" ", "-", 1)
        if kind == 1:
            k = rng.randrange(len(name))
            return name[:k] + rng.choice("aeiouy") + name[k + 1:]
        return name + "s"

    rows = []
    for category in ("medium", "tags", "culture"):
        bases = [" ".join(word() for _ in range(rng.randrange(1, 4))) for _ in range(70)]
        rows += [(category, name) for name in bases]
        rows += [(category, variant(rng.choice(bases))) for _ in range(35)]
    rng.shuffle(rows)
    return LabelCatalog(LabelRecord(i, c, n) for i, (c, n) in enumerate(rows))


def loose_cap_pairs(catalog: LabelCatalog, threshold: float) -> list[tuple[int, int, float]]:
    """Every same-category pair scoring at least ``threshold``, as
    ``find_duplicates`` lists them, from a scan of all pairs: each is checked
    by the DP kernel at the loose cap ``min(L, int((1 - threshold) * L) + 1)``
    of its longer length ``L``, and then by its score."""
    pools: dict[str, list[LabelRecord]] = {}
    for record in catalog:
        pools.setdefault(record.category, []).append(record)
    pairs = []
    for pool in pools.values():
        for i, a in enumerate(pool):
            for b in pool[i + 1:]:
                score = 1.0
                if cleanse._fold_hyphens(a.canonical) != cleanse._fold_hyphens(b.canonical):
                    length = max(len(a.canonical), len(b.canonical))
                    cap = min(length, int((1.0 - threshold) * length) + 1)
                    d = dp_edit_distance_capped(a.canonical, b.canonical, cap)
                    score = 1.0 - d / length if d <= cap else 0.0
                if score >= threshold:
                    pairs.append((a.id, b.id, score))
    return sorted(pairs, key=lambda p: (-p[2], p[0], p[1]))


@pytest.mark.parametrize("threshold", [0.9, 0.7, 0.6, 0.5])
def test_find_duplicates_pairs_match_the_dp_kernel(monkeypatch, threshold):
    # find_duplicates caps each distance exactly; the reference scan uses
    # the loose cap, so a cap too low would lose pairs it finds.
    catalog = _planted_catalog(25)
    got = [(p.a.id, p.b.id, p.score) for p in cleanse.find_duplicates(catalog, threshold)]
    assert got == loose_cap_pairs(catalog, threshold)
    monkeypatch.setattr(cleanse, "edit_distance_capped", dp_edit_distance_capped)
    want = [(p.a.id, p.b.id, p.score) for p in cleanse.find_duplicates(catalog, threshold)]
    assert got == want
    assert any(score < 1.0 for _, _, score in got)  # the kernel found some


def test_backend_name_exported():
    assert textkit.EDITDIST_BACKEND == "python"


def test_unicode_distance():
    assert edit_distance("café", "cafe") == 1
    assert edit_distance("naïve", "naïve") == 0


def test_negative_cap():
    # No distance can satisfy a negative cap, so the result only promises to
    # exceed it.
    assert edit_distance_capped("same", "same", -1) > -1
    assert edit_distance_capped("a", "b", -1) > -1


# ---------------------------------------------------------------------------
# Connective splitting


def test_split_requires_word_boundaries():
    # "sand" contains the letters a-n-d but no standalone connective.
    assert split_connective("sand", Connective.AND) == ["sand"]
    assert split_connective("sandy shore", Connective.AND) == ["sandy shore"]
    assert split_connective("orchid", Connective.OR) == ["orchid"]


def test_split_basic():
    assert split_connective("wool and silk", Connective.AND) == ["wool", "silk"]
    assert split_connective("french or spanish", Connective.OR) == ["french", "spanish"]


def test_split_serial_commas():
    assert split_connective("gold, silver and bronze", Connective.AND) == [
        "gold", "silver", "bronze"]
    assert split_connective("gold, silver, and bronze", Connective.AND) == [
        "gold", "silver", "bronze"]


def test_split_multiple_connectives():
    assert split_connective("a and b and c", Connective.AND) == ["a", "b", "c"]


def test_split_no_cross_connective():
    # An "or" name is not an "and" split and vice versa.
    assert split_connective("french or spanish", Connective.AND) == ["french or spanish"]
    assert split_connective("wool and silk", Connective.OR) == ["wool and silk"]


def test_split_edge_whitespace():
    assert split_connective("wool  and  silk", Connective.AND) == ["wool", "silk"]


def test_connective_split_validation():
    with pytest.raises(ValueError):
        ConnectiveSplit(source=1, connective=Connective.AND, tokens=("one",), resolution=(None,))
    with pytest.raises(ValueError):
        ConnectiveSplit(
            source=1, connective=Connective.AND, tokens=("a", "b"), resolution=(None,)
        )


def test_tokenize():
    assert tokenize("Black Chalk on blue-paper") == ["black", "chalk", "on", "blue", "paper"]
    assert tokenize("  ") == []
    assert tokenize("18th century") == ["18th", "century"]
