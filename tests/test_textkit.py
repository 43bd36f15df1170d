"""Edit distance kernels, string splitting, and tokenization.

The distance oracle here is an independent textbook recursion; the shipped
kernel must agree with it exactly.
"""

import functools
import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelkit import textkit
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


def test_backends_agree():
    # The kernel must match the oracle exactly, including the capped
    # early-exit values.
    rng = random.Random(7)
    alphabet = "abcdef -"
    for _ in range(300):
        a = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 16)))
        b = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 16)))
        want = oracle_distance(a, b)
        assert edit_distance(a, b) == want
        for cap in (0, 1, 2, 5):
            got = textkit.edit_distance_capped(a, b, cap)
            assert (got <= cap) == (want <= cap)
            if got <= cap:
                assert got == want


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
