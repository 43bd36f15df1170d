"""Pairwise comparison of two performance measures over a model family.

Given per-model scores under measures f and g, every unordered model pair is
classified by whether the measures order it the same way. Consistency (doc)
is the fraction of f-ordered pairs that g orders the same way; discriminancy
(dod) is the ratio of pairs only f separates to pairs only g separates. A
measure is preferable when it is consistent with (doc > 0.5) and more
discriminating than (dod > 1) the other.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import IO, Iterable, Sequence

from .csvio import CsvTable, csv_writer
from .defaults import DEFAULT_EPSILON
from .errors import EvalError

F_BETTER = "F_BETTER"
G_BETTER = "G_BETTER"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class FamilyEntry:
    tag: str
    f_score: float
    g_score: float


class ModelFamily:
    """At least two models, each scored once by both measures."""

    def __init__(self, entries: Iterable[tuple[str, float, float]]):
        self.entries: list[FamilyEntry] = []
        tags: set[str] = set()
        for tag, f_score, g_score in entries:
            if tag in tags:
                raise ValueError(f"duplicate model tag {tag!r}")
            if not (math.isfinite(f_score) and math.isfinite(g_score)):
                raise ValueError(f"model {tag!r} has a non-finite score")
            tags.add(tag)
            self.entries.append(FamilyEntry(tag, f_score, g_score))
        if len(self.entries) < 2:
            raise ValueError("a model family needs at least two models")

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


@dataclass(frozen=True)
class ComparisonReport:
    r_count: int
    s_count: int
    p_count: int
    q_count: int
    skipped: int
    pair_total: int
    epsilon: float
    doc: float | None
    dod: float | None  # math.inf when only f separates pairs

    def as_dict(self) -> dict:
        return {**asdict(self), "verdict": interpret(self)}


def compare(family: ModelFamily, epsilon: float = DEFAULT_EPSILON) -> ComparisonReport:
    """Classify every unordered model pair and compute doc and dod.

    Each pair is oriented so f increases. Pairs tied under both measures
    (within epsilon) carry no ordering information and are skipped. With the
    pair oriented: g increasing counts toward agreement (r), g decreasing or
    tied counts toward disagreement (s); a g-tie additionally counts as a
    pair only f separates (p). Pairs f ties but g separates count as q.
    """
    if epsilon < 0:
        raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
    entries = family.entries
    n = len(entries)
    r = s = p = q = skipped = 0
    for i in range(n):
        fi, gi = entries[i].f_score, entries[i].g_score
        for j in range(i + 1, n):
            df = fi - entries[j].f_score
            dg = gi - entries[j].g_score
            f_separates = abs(df) > epsilon
            g_separates = abs(dg) > epsilon
            if not f_separates and not g_separates:
                skipped += 1
            elif not f_separates:
                q += 1
            elif not g_separates:
                s += 1
                p += 1
            else:
                if (df > 0) == (dg > 0):
                    r += 1
                else:
                    s += 1
    doc = r / (r + s) if (r + s) > 0 else None
    if q > 0:
        dod: float | None = p / q
    elif p > 0:
        dod = math.inf
    else:
        dod = None
    return ComparisonReport(
        r_count=r,
        s_count=s,
        p_count=p,
        q_count=q,
        skipped=skipped,
        pair_total=n * (n - 1) // 2,
        epsilon=epsilon,
        doc=doc,
        dod=dod,
    )


def interpret(report: ComparisonReport) -> str:
    """Apply the preference rule in both directions.

    The reverse direction uses the reciprocal identities doc(g,f) = doc(f,g)
    and dod(g,f) = 1/dod(f,g), so f wins on doc > 0.5 with dod > 1, g wins
    on doc > 0.5 with dod < 1, and everything else (boundaries included) is
    inconclusive.
    """
    doc, dod = report.doc, report.dod
    if doc is None or dod is None or doc <= 0.5:
        return INCONCLUSIVE
    if dod > 1.0:
        return F_BETTER
    if dod < 1.0:
        return G_BETTER
    return INCONCLUSIVE


def family_from_sweep(rows: Sequence[dict]) -> ModelFamily:
    """Build a family from threshold-sweep rows: f is the graph micro score,
    g the flat micro score, one model per threshold. Rows where either score
    is undefined are dropped."""
    entries = []
    for index, row in enumerate(rows):
        if "graph_micro_f" not in row:
            raise EvalError("sweep rows carry no graph scores; rerun with a graph")
        f = row["graph_micro_f"]
        g = row["flat_micro_f"]
        if not (math.isfinite(f) and math.isfinite(g)):
            continue
        entries.append((f"t{index:03d}@{row['threshold']:.6g}", f, g))
    if len(entries) < 2:
        raise EvalError("fewer than two sweep rows have defined scores")
    return ModelFamily(entries)


def parse_family(stream: IO[str]) -> ModelFamily:
    """Read a family file with header model,f_score,g_score. Errors name the
    physical line of the row at fault, a repeated tag or a non-finite score
    included; a row missing a required cell is rejected."""
    table = CsvTable(stream, ("model", "f_score", "g_score"), getattr(stream, "name", "<family>"))
    # ModelFamily checks each entry as it is read, so a bad score, a repeated
    # tag or a non-finite score is raised while the table stands at its row.
    try:
        return ModelFamily((model, float(f), float(g)) for model, f, g in table)
    except UnicodeDecodeError:
        raise
    except ValueError as exc:
        raise table.error(str(exc)) from None


def write_family(family: ModelFamily, stream: IO[str]) -> None:
    writer = csv_writer(stream)
    writer.writerow(["model", "f_score", "g_score"])
    for entry in family:
        writer.writerow([entry.tag, repr(entry.f_score), repr(entry.g_score)])
