"""String algorithms behind label cleaning.

Capped edit distance drives duplicate detection; connective splitting
("and" / "or") and word tokenization drive label decomposition and hierarchy
candidate search.

The Levenshtein kernel is a single pure-Python bit-vector implementation
that stops once the distance provably exceeds its cap. Duplicate detection
keeps it off the quadratic path: it verifies only the pairs that pass a
q-gram count filter (see ``cleanse.find_duplicates``).
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


def edit_distance_capped(a: str, b: str, cap: int) -> int:
    """Levenshtein distance over Unicode code points (insertions, deletions
    and substitutions all cost 1), or ``cap + 1`` once the distance provably
    exceeds ``cap``. Used by pairwise scans to skip hopeless pairs; a cap of
    ``max(len(a), len(b))`` never cuts short.

    Myers' bit-vector algorithm (1999), Hyyrö's Levenshtein form (2003): the
    shorter string is the pattern, one bit per code point, and each code
    point of the longer one advances a whole DP column. ``pv`` and ``mv`` mark
    the column's +1 and -1 vertical deltas, and ``score`` is its bottom cell,
    which moves by at most one a column: once it exceeds ``cap`` by more than
    the columns left, so does the distance.
    """
    if cap < 0:
        return 0 if a == b else cap + 1
    if len(a) > len(b):
        a, b = b, a
    if len(b) - len(a) > cap:
        return cap + 1
    if not a:  # a 0-bit pattern has no bottom cell to score
        return len(b)
    peq: dict[str, int] = {}
    for i, char in enumerate(a):
        peq[char] = peq.get(char, 0) | 1 << i
    mask, last = (1 << len(a)) - 1, 1 << (len(a) - 1)
    pv, mv, score, left = mask, 0, len(a), len(b)
    for char in b:
        eq = peq.get(char, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & last:
            score += 1
        elif mh & last:
            score -= 1
        left -= 1
        if score - left > cap:
            return cap + 1
        ph = (ph << 1) | 1  # row 0 of the table rises by one per column
        pv = ((mh << 1) | ~(xv | ph)) & mask
        mv = ph & xv
    return score


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
