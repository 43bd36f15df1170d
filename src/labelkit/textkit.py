"""String algorithms behind label cleaning.

Capped edit distance drives duplicate detection; connective splitting
("and" / "or") and word tokenization drive label decomposition and hierarchy
candidate search.

The Levenshtein kernel is a single pure-Python implementation. Duplicate
detection keeps it off the quadratic path: it verifies only the pairs that
pass a q-gram count filter (see ``cleanse.find_duplicates``).
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

# Name of the edit-distance implementation, recorded in benchmark run metadata.
EDITDIST_BACKEND = "python"

_WORD_RE = re.compile(r"[^\W_]+", re.UNICODE)


class Connective(enum.Enum):
    AND = "and"
    OR = "or"


class SplitClass(enum.Enum):
    ALL_RESOLVED = "all_resolved"
    NONE_RESOLVED = "none_resolved"
    PARTIAL = "partial"


@dataclass(frozen=True)
class ConnectiveSplit:
    """Decomposition of one label name at a connective word.

    ``resolution`` holds, per token, the id of the same-category label whose
    canonical form equals the token, or None when no such label exists.
    """

    source: int
    connective: Connective
    tokens: tuple[str, ...]
    resolution: tuple[int | None, ...]

    def __post_init__(self) -> None:
        if len(self.tokens) < 2:
            raise ValueError("a connective split needs at least two tokens")
        if len(self.tokens) != len(self.resolution):
            raise ValueError("tokens and resolution must align")

    @property
    def split_class(self) -> SplitClass:
        resolved = sum(1 for r in self.resolution if r is not None)
        if resolved == len(self.resolution):
            return SplitClass.ALL_RESOLVED
        if resolved == 0:
            return SplitClass.NONE_RESOLVED
        return SplitClass.PARTIAL

    @property
    def resolved_ids(self) -> tuple[int, ...]:
        return tuple(r for r in self.resolution if r is not None)


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


def edit_distance_capped(a: str, b: str, cap: int) -> int:
    """Levenshtein distance over Unicode code points (insertions, deletions
    and substitutions all cost 1), or ``cap + 1`` once the distance provably
    exceeds ``cap``. Used by pairwise scans to skip hopeless pairs; a cap of
    ``max(len(a), len(b))`` never cuts short.

    Any alignment of the full strings passes through one cell per DP row, so
    once every entry of a row exceeds ``cap`` the final distance must too.
    """
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


def split_connective(name: str, connective: Connective) -> list[str]:
    """Split a label name at a standalone connective word.

    Splits on the whitespace-delimited word (" and " / " or "), so "sand"
    never splits. Commas act as additional separators, but only when the
    connective word itself occurs in the name (serial constructions like
    "a, b and c"); otherwise commas are left alone. Returns the name as a
    single token when no connective occurs.
    """
    word = connective.value
    pattern = re.compile(rf"\s+{word}\s+")
    if not pattern.search(name):
        return [name]
    tokens: list[str] = []
    for part in pattern.split(name):
        for token in part.split(","):
            token = token.strip()
            if token:
                tokens.append(token)
    return tokens


def tokenize(name: str) -> list[str]:
    """Lowercase word tokens, split on whitespace and punctuation, in order."""
    return _WORD_RE.findall(name.lower())
