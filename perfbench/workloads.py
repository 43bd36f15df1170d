"""The benchmark's workloads: CLI command sequences and their output checks.

Each workload is a list of ``labelkit`` commands run with the CLI defaults,
inputs passed by relative path from the corpus directory (so provenance
bytes do not depend on where the corpus lives). A command fails when it
exits non-zero or when one of its output checks fails; the checks are
oracles computed from the generator's own data and hold for any seed. For
the default seed, the report digests are also pinned in ``digests.json``,
which enforces byte-identical reports across commits.

Why these workloads:

- ``curate``: the cleaning sequence. The same-category ``dupes`` scan
  (edit-distance kernel plus ``cleanse.find_duplicates``) does about 90% of
  the work and no score is read; ``apply`` writes the cleaned corpus, so
  catalog writers and atomic writes run too.
- ``score``: one model's evaluation on the 20k-sample split. Score parsing
  runs four times and dominates; the graph report runs once over a large
  sample set with a cold BFS cache; the text kernel is idle.
- ``sweep``: the 64-threshold sweep with the graph on the 2.5k-sample split,
  then ``compare`` on the family it writes. Per-threshold re-evaluation does
  about 95% of the work; parsing is small.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gencorpus

DEFAULT_SEED = 1
DIGESTS_PATH = Path(__file__).with_name("digests.json")
SWEEP_POINTS = 64  # the CLI's default grid
EVAL_THRESHOLD = 0.1  # the CLI's default decision threshold


@dataclass(frozen=True)
class Command:
    name: str
    args: tuple[str, ...]
    outputs: tuple[str, ...]  # report files, relative to the output directory


def commands(workload: str, out: str) -> list[Command]:
    """The workload's command sequence, writing reports under ``out``."""
    eval_inputs = ("--labels", "labels.csv", "--annotations", "train.csv", "--scores", "train_scores.csv")
    table = {
        "curate": [
            Command("inspect", ("--labels", "labels.csv", "--annotations", "train.csv", "--out", f"{out}/inspect.json"), ("inspect.json",)),
            Command("dupes", ("--labels", "labels.csv", "--similarity", "0.9", "--out", f"{out}/dupes.csv"), ("dupes.csv",)),
            Command("hierarchy", ("--labels", "labels.csv", "--out", f"{out}/hierarchy.csv"), ("hierarchy.csv",)),
            Command("connectives", ("--labels", "labels.csv", "--out", f"{out}/connectives.json"), ("connectives.json",)),
            Command(
                "apply",
                ("--labels", "labels.csv", "--annotations", "train.csv", "--plan", "plan.json", "--out", f"{out}/cleaned"),
                ("cleaned/labels.csv", "cleaned/annotations.csv", "cleaned/summary.json"),
            ),
            Command(
                "graph",
                ("--labels", "labels.csv", "--graph-edges", "edges.txt", "--out", f"{out}/graph"),
                ("graph/edges.txt", "graph/graph.json"),
            ),
        ],
        "score": [
            Command("eval", (*eval_inputs, "--out", f"{out}/eval.json"), ("eval.json",)),
            Command("eval-or", (*eval_inputs, "--out", f"{out}/eval_or.json"), ("eval_or.json",)),
            Command("eval-excl", (*eval_inputs, "--plan", "plan.json", "--out", f"{out}/eval_excl.json"), ("eval_excl.json",)),
            Command("eval-graph", (*eval_inputs, "--graph-edges", "edges.txt", "--out", f"{out}/eval_graph.json"), ("eval_graph.json",)),
        ],
        "sweep": [
            Command(
                "sweep",
                ("--labels", "labels.csv", "--annotations", "val.csv", "--scores", "val_scores.csv",
                 "--graph-edges", "edges.txt", "--out", f"{out}/sweep"),
                ("sweep/sweep.csv", "sweep/sweep.json", "sweep/family.csv"),
            ),
            Command("compare", ("--family", f"{out}/sweep/family.csv", "--out", f"{out}/compare.json"), ("compare.json",)),
        ],
    }
    return table[workload]


INPUTS = {
    "curate": ("labels.csv", "train.csv", "plan.json", "edges.txt"),
    "score": ("labels.csv", "train.csv", "train_scores.csv", "plan.json", "edges.txt"),
    "sweep": ("labels.csv", "val.csv", "val_scores.csv", "edges.txt"),
}
NAMES = tuple(INPUTS)
ALL_COMMANDS = tuple(c.name for w in NAMES for c in commands(w, "out"))


# ---------------------------------------------------------------------------
# Oracles


def expectations(corpus: gencorpus.Corpus) -> dict:
    """Values the checks compare against, computed from the generated data
    alone (never from labelkit)."""
    vocab = corpus.vocab
    ids = {name: i for i, name in enumerate(vocab.names)}
    planted = vocab.planted
    exp: dict = {"n_labels": len(vocab.names), "planted": planted}
    connective_edges = {
        (min(ids[composite], ids[t]), max(ids[composite], ids[t]))
        for kind in ("and_full", "and_partial", "or_full", "or_partial")
        for composite, resolved, _ in planted[kind]
        for t in resolved
    }
    if corpus.edges is not None:
        curated = {(min(ids[a], ids[b]), max(ids[a], ids[b])) for a, b in corpus.edges}
        exp["graph_edges"] = len(connective_edges | curated)
    if corpus.plan is not None:
        plan = corpus.plan
        removed = sum(1 for s in plan["and_splits"] if s["remove_source"])
        exp["plan_counts"] = {
            "merges": len(plan["merges"]),
            "hierarchy_edges": len(plan["hierarchy_edges"]),
            "and_splits": len(plan["and_splits"]),
            "or_groups": 0,
            "exclusion_groups": len(plan["exclusion_groups"]),
        }
        exp["labels_after"] = len(vocab.names) - sum(len(m["absorbed"]) for m in plan["merges"]) - removed
    if corpus.train is not None:
        exp["train_samples"] = len(corpus.train)
        dimension = set(vocab.category_ids("dimension"))
        exp["excl_samples"] = sum(1 for _, labels in corpus.train if dimension.intersection(labels))
    if corpus.train_scores is not None:
        tp = fp = fn = 0
        truth = dict(corpus.train)
        for sid, scored in corpus.train_scores:
            t = set(truth[sid])
            p = {label for label, text in scored if float(text) >= EVAL_THRESHOLD}
            tp += len(t & p)
            fp += len(p - t)
            fn += len(t - p)
        exp["eval_totals"] = {"tp": tp, "fp": fp, "fn": fn}
    return exp


def _json(path: Path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _csv_rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


def _expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, want {want!r}")


def _check_inspect(out: Path, exp: dict) -> list[str]:
    doc, problems = _json(out / "inspect.json"), []
    _expect(problems, "inspect n_labels", doc["n_labels"], exp["n_labels"])
    _expect(problems, "inspect per_category_counts", doc["per_category_counts"], gencorpus.CATEGORY_SIZES)
    _expect(problems, "inspect n_samples", doc["n_samples"], exp["train_samples"])
    return problems


def _check_dupes(out: Path, exp: dict) -> list[str]:
    found = {frozenset((r["name_a"], r["name_b"])): r["score"] for r in _csv_rows(out / "dupes.csv")}
    return [
        f"dupes: planted hyphen pair {base!r} / {variant!r} missing or below 1.0000"
        for base, variant in exp["planted"]["hyphen"]
        if found.get(frozenset((base, variant))) != "1.0000"
    ]


def _check_hierarchy(out: Path, exp: dict) -> list[str]:
    found = {(r["super_name"], r["sub_name"]) for r in _csv_rows(out / "hierarchy.csv")}
    return [
        f"hierarchy: planted containment {sup!r} in {sub!r} missing"
        for sup, sub in exp["planted"]["contain"]
        if (sup, sub) not in found
    ]


def _check_connectives(out: Path, exp: dict) -> list[str]:
    doc, problems = _json(out / "connectives.json"), []
    planted = exp["planted"]
    for word in ("and", "or"):
        full, partial = len(planted[f"{word}_full"]), len(planted[f"{word}_partial"])
        got = {k: doc[word][k] for k in ("total", "all_resolved", "partial", "none_resolved")}
        _expect(problems, f"connectives {word}", got,
                {"total": full + partial, "all_resolved": full, "partial": partial, "none_resolved": 0})
    return problems


def _check_apply(out: Path, exp: dict) -> list[str]:
    doc, problems = _json(out / "cleaned" / "summary.json"), []
    _expect(problems, "apply labels_before", doc["labels_before"], exp["n_labels"])
    _expect(problems, "apply labels_after", doc["labels_after"], exp["labels_after"])
    _expect(problems, "apply samples", doc["samples"], exp["train_samples"])
    _expect(problems, "apply plan counts", doc["plan"], exp["plan_counts"])
    _expect(problems, "cleaned labels rows", len(_csv_rows(out / "cleaned" / "labels.csv")), exp["labels_after"])
    _expect(problems, "cleaned annotation rows", len(_csv_rows(out / "cleaned" / "annotations.csv")), exp["train_samples"])
    return problems


def _check_graph(out: Path, exp: dict) -> list[str]:
    doc, problems = _json(out / "graph" / "graph.json"), []
    _expect(problems, "graph nodes", doc["nodes"], exp["n_labels"])
    _expect(problems, "graph edges", doc["edges"], exp["graph_edges"])
    return problems


def _check_eval(out: Path, exp: dict) -> list[str]:
    doc, problems = _json(out / "eval.json"), []
    _expect(problems, "eval totals", doc["totals"], exp["eval_totals"])
    _expect(problems, "eval n_samples", doc["n_samples"], exp["train_samples"])
    return problems


def _report_check(name: str, kind: str, samples: str, extra: dict | None = None) -> Callable[[Path, dict], list[str]]:
    def check(out: Path, exp: dict) -> list[str]:
        doc, problems = _json(out / name), []
        _expect(problems, f"{name} kind", doc["kind"], kind)
        _expect(problems, f"{name} n_samples", doc["n_samples"], exp[samples])
        for key, want in (extra or {}).items():
            _expect(problems, f"{name} {key}", doc[key], want)
        return problems

    return check


def _check_sweep(out: Path, exp: dict) -> list[str]:
    problems: list[str] = []
    _expect(problems, "sweep.csv rows", len(_csv_rows(out / "sweep" / "sweep.csv")), SWEEP_POINTS)
    _expect(problems, "sweep.json rows", len(_json(out / "sweep" / "sweep.json")["rows"]), SWEEP_POINTS)
    family = _csv_rows(out / "sweep" / "family.csv")
    if len(family) < 2:
        problems.append(f"family.csv: {len(family)} models, want at least 2")
    return problems


def _check_compare(out: Path, exp: dict) -> list[str]:
    verdict = _json(out / "compare.json").get("verdict")
    if verdict not in ("F_BETTER", "G_BETTER", "INCONCLUSIVE"):
        return [f"compare verdict {verdict!r}"]
    return []


CHECKS: dict[str, Callable[[Path, dict], list[str]]] = {
    "inspect": _check_inspect,
    "dupes": _check_dupes,
    "hierarchy": _check_hierarchy,
    "connectives": _check_connectives,
    "apply": _check_apply,
    "graph": _check_graph,
    "eval": _check_eval,
    "eval-or": _report_check("eval_or.json", "or_aware", "train_samples"),
    "eval-excl": _report_check("eval_excl.json", "flat", "excl_samples", {"exclusion_groups": 1, "exclusion_labels": 5}),
    "eval-graph": _report_check("eval_graph.json", "graph", "train_samples"),
    "sweep": _check_sweep,
    "compare": _check_compare,
}


def file_sha256(path: Path) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def load_digests() -> dict:
    if not DIGESTS_PATH.exists():
        return {}
    return _json(DIGESTS_PATH)


def check_command(command: Command, out: Path, exp: dict, seed: int, pinned: dict) -> list[str]:
    """Problems with one command's outputs; empty when they are correct."""
    missing = [name for name in command.outputs if not (out / name).is_file()]
    if missing:
        return [f"{command.name}: missing outputs {missing}"]
    try:
        problems = CHECKS[command.name](out, exp)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{command.name}: unreadable output: {exc!r}"]
    if seed == DEFAULT_SEED:
        for name in command.outputs:
            want = pinned.get(name)
            if want is not None and file_sha256(out / name) != want:
                problems.append(f"{command.name}: {name} digest differs from the pinned default-seed digest")
    return problems
