"""End-to-end command behavior on a hand-checkable corpus."""

import gc
import hashlib
import importlib
import inspect
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from labelkit import cleanse, defaults, reports
from labelkit.catalog import LabelCatalog, SampleTable
from labelkit.cleanse import AndSplit, Merge, OrGroup, TransformPlan, find_duplicates, write_plan
from labelkit.cli import _CONFIG_KEYS, RunConfig, build_parser, main
from labelkit.metricmp import compare
from labelkit.metrics import fbeta_report, graph_fbeta_report, or_aware_report, sweep
from labelkit.relgraph import RelationGraph
from conftest import annotations_csv, build_catalog, labels_csv

SCORES_CSV = """id,attribute_id,score
s1,12,0.9
s1,16,0.5
s1,19,0.05
s1,17,0.3
s2,13,0.2
s2,17,0.15
s3,14,0.8
s3,2,0.12
s3,0,0.3
s4,15,0.6
s4,3,0.11
s4,20,0.25
s4,21,0.25
s5,16,0.9
s5,18,0.85
s6,8,0.9
s6,21,0.3
s6,22,0.4
s7,26,0.5
s7,24,0.5
s8,25,0.7
s8,5,0.4
"""

# Binarizing the scores above at the default threshold 0.1 yields these sets.
PREDICTIONS_CSV = """id,attribute_ids
s1,12 16 17
s2,13 17
s3,0 2 14
s4,3 15 20 21
s5,16 18
s6,8 21 22
s7,24 26
s8,5 25
"""

EDGES_TXT = """# curated geography links
french, france
france, present-day france
united kingdom, england
united kingdom, scotland
"""


def make_plan_json() -> str:
    catalog = build_catalog()
    plan = TransformPlan(
        merges=[Merge(12, (13,)), Merge(14, (15,))],
        hierarchy_edges=[(17, 16), (16, 18)],
        and_splits=[
            AndSplit(3, (4, 0), remove_source=True),
            AndSplit(26, (27,), remove_source=False),
        ],
        or_groups=[OrGroup(2, (0, 1)), OrGroup(28, (5, 29))],
        exclusion_groups=[frozenset({19, 20, 21, 22, 23})],
    )
    buffer = io.StringIO()
    write_plan(plan, catalog, buffer)
    return buffer.getvalue()


@pytest.fixture
def corpus(tmp_path):
    paths = {
        "labels": tmp_path / "labels.csv",
        "annotations": tmp_path / "annotations.csv",
        "scores": tmp_path / "scores.csv",
        "predictions": tmp_path / "predictions.csv",
        "plan": tmp_path / "plan.json",
        "edges": tmp_path / "edges.txt",
    }
    paths["labels"].write_text(labels_csv())
    paths["annotations"].write_text(annotations_csv())
    paths["scores"].write_text(SCORES_CSV)
    paths["predictions"].write_text(PREDICTIONS_CSV)
    paths["plan"].write_text(make_plan_json())
    paths["edges"].write_text(EDGES_TXT)
    paths["root"] = tmp_path
    return paths


def run(*argv):
    return main([str(a) for a in argv])


def read_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# Individual commands


def test_inspect_report(corpus, tmp_path):
    out = tmp_path / "inspect.json"
    code = run(
        "inspect",
        "--labels", corpus["labels"],
        "--annotations", corpus["annotations"],
        "--out", out,
    )
    assert code == 0
    doc = read_json(out)
    assert doc["n_labels"] == 30
    assert doc["per_category_counts"] == {
        "country": 11,
        "culture": 3,
        "dimension": 5,
        "medium": 9,
        "tags": 2,
    }
    assert doc["n_samples"] == 8
    assert doc["median_labels_per_sample"] == 2
    assert doc["labels_per_sample_histogram"] == [[2, 6], [3, 2]]
    assert doc["category_coverage"]["dimension"] == 3
    assert doc["provenance"]["tool"] == "labelkit"
    assert doc["provenance"]["inputs"]["labels"]["sha256"].startswith("sha256:")


def test_inspect_stdout(corpus, capsys):
    assert run("inspect", "--labels", corpus["labels"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n_labels"] == 30


def test_dupes_command(corpus, tmp_path):
    out = tmp_path / "dupes.csv"
    assert run("dupes", "--labels", corpus["labels"], "--out", out) == 0
    text = out.read_text()
    assert "bronze gilt" in text and "bronze-gilt" in text
    assert "watercolor" in text and "watercolour" in text


def test_hierarchy_command(corpus, tmp_path):
    out = tmp_path / "hier.csv"
    assert run("hierarchy", "--labels", corpus["labels"], "--out", out) == 0
    text = out.read_text()
    assert "black chalk on blue paper" in text
    assert "present-day france" in text


@pytest.mark.parametrize("command", ["dupes", "hierarchy"])
def test_unknown_category_rejected(corpus, tmp_path, capsys, command):
    out = tmp_path / "out.csv"
    code = run(command, "--labels", corpus["labels"], "--category", "nosuch", "--out", out)
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "unknown category 'nosuch'"


def test_connectives_command(corpus, tmp_path):
    out = tmp_path / "conn.json"
    assert run("connectives", "--labels", corpus["labels"], "--out", out) == 0
    doc = read_json(out)
    assert doc["and"]["total"] == 2
    assert doc["or"]["total"] == 2
    only_or = tmp_path / "or.json"
    assert run(
        "connectives", "--labels", corpus["labels"], "--which", "or", "--out", only_or
    ) == 0
    assert set(read_json(only_or)) == {"or", "provenance"}


def test_apply_command(corpus, tmp_path):
    out_dir = tmp_path / "cleaned"
    code = run(
        "apply",
        "--labels", corpus["labels"],
        "--annotations", corpus["annotations"],
        "--plan", corpus["plan"],
        "--out", out_dir,
    )
    assert code == 0
    summary = read_json(out_dir / "summary.json")
    # Two absorbed spellings and one fully resolved connective source leave.
    assert summary["labels_before"] == 30
    assert summary["labels_after"] == 27
    assert summary["plan"]["merges"] == 2
    labels_text = (out_dir / "labels.csv").read_text()
    assert "watercolour" not in labels_text
    assert "sudan and egypt" not in labels_text
    rows = {}
    for line in (out_dir / "annotations.csv").read_text().splitlines()[1:]:
        sid, ids = line.split(",")
        rows[sid] = set(map(int, ids.split()))
    assert rows["s2"] == {12, 17}  # watercolour rewritten to watercolor
    assert rows["s4"] == {0, 4, 14, 20}  # split source replaced by its parts
    assert rows["s5"] == {16, 17, 18}  # supercategories propagated up the chain
    assert rows["s7"] == {24, 26, 27}


DEPTH = 1200  # deeper than Python's recursion limit


def deep_chain_apply(tmp_path, closed):
    """Run apply with a plan whose hierarchy is a chain of DEPTH labels, each
    the parent of the next, closed into a cycle when ``closed``."""
    name = lambda i: f"medium::level {i}"  # noqa: E731
    labels = tmp_path / "labels.csv"
    labels.write_text(labels_csv([(i, "medium", f"level {i}") for i in range(DEPTH)]))
    annotations = tmp_path / "annotations.csv"
    annotations.write_text(annotations_csv([("deep", {DEPTH - 1}), ("top", {0})]))
    edges = [{"super": name(i), "sub": name(i + 1)} for i in range(DEPTH - 1)]
    if closed:
        edges.append({"super": name(DEPTH - 1), "sub": name(0)})
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"hierarchy_edges": edges}))
    return run("apply", "--labels", labels, "--annotations", annotations, "--plan", plan,
               "--out", tmp_path / "out")


def test_apply_deep_hierarchy_chain(tmp_path):
    assert deep_chain_apply(tmp_path, closed=False) == 0
    lines = (tmp_path / "out" / "annotations.csv").read_text().splitlines()
    assert lines[1:] == ["deep," + " ".join(map(str, range(DEPTH))), "top,0"]


def test_apply_deep_hierarchy_cycle(tmp_path, capsys):
    assert deep_chain_apply(tmp_path, closed=True) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == (
        f"{tmp_path / 'plan.json'}: hierarchy edges contain a cycle through labels "
        f"{[*range(DEPTH), 0]}"
    )


def test_graph_command(corpus, tmp_path):
    out_dir = tmp_path / "graph"
    code = run(
        "graph",
        "--labels", corpus["labels"],
        "--plan", corpus["plan"],
        "--graph-edges", corpus["edges"],
        "--out", out_dir,
    )
    assert code == 0
    doc = read_json(out_dir / "graph.json")
    assert doc["nodes"] == 30
    assert doc["edges"] == 11
    assert doc["components"] == 19  # four linked groups plus 15 singletons
    assert doc["largest_component"] == 5
    edge_lines = (out_dir / "edges.txt").read_text().splitlines()
    assert edge_lines[0] == "label_a,label_b"
    assert len(edge_lines) == 12


def test_graph_without_plan_derives_connectives(corpus, tmp_path):
    out_dir = tmp_path / "graph-auto"
    assert run("graph", "--labels", corpus["labels"], "--out", out_dir) == 0
    doc = read_json(out_dir / "graph.json")
    # Derived or-groups and and-splits: 2-(0,1), 3-(0,4), 28-(5,29), 26-(27).
    assert doc["edges"] == 7


def test_eval_flat_totals(corpus, tmp_path):
    out = tmp_path / "eval.json"
    code = run(
        "eval",
        "--labels", corpus["labels"],
        "--annotations", corpus["annotations"],
        "--scores", corpus["scores"],
        "--out", out,
    )
    assert code == 0
    doc = read_json(out)
    assert doc["totals"] == {"tp": 16, "fp": 5, "fn": 2}
    assert doc["micro_f"] == pytest.approx(80 / 93, abs=1e-12)
    assert doc["kind"] == "flat"
    assert doc["beta"] == 2.0
    # threads must not appear in the provenance block
    assert "threads" not in doc["provenance"]["config"]


def test_eval_predictions_match_scores(corpus, tmp_path):
    from_scores = tmp_path / "a.json"
    from_preds = tmp_path / "b.json"
    run(
        "eval",
        "--labels", corpus["labels"],
        "--annotations", corpus["annotations"],
        "--scores", corpus["scores"],
        "--out", from_scores,
    )
    run(
        "eval",
        "--labels", corpus["labels"],
        "--annotations", corpus["annotations"],
        "--predictions", corpus["predictions"],
        "--out", from_preds,
    )
    a, b = read_json(from_scores), read_json(from_preds)
    assert a["totals"] == b["totals"]
    assert a["micro_f"] == b["micro_f"]
    assert a["per_class"] == b["per_class"]


def test_eval_or_credits_members(corpus, tmp_path):
    out = tmp_path / "or.json"
    code = run(
        "eval-or",
        "--labels", corpus["labels"],
        "--annotations", corpus["annotations"],
        "--scores", corpus["scores"],
        "--plan", corpus["plan"],
        "--out", out,
    )
    assert code == 0
    doc = read_json(out)
    # s8 predicts a member of the disjunction it misses flatly.
    assert doc["totals"] == {"tp": 17, "fp": 5, "fn": 1}
    assert doc["micro_f"] == pytest.approx(85 / 94, abs=1e-12)
    assert doc["or_groups"] == 2


def test_eval_excl_prunes_and_scopes(corpus, tmp_path):
    out = tmp_path / "excl.json"
    code = run(
        "eval-excl",
        "--labels", corpus["labels"],
        "--annotations", corpus["annotations"],
        "--scores", corpus["scores"],
        "--plan", corpus["plan"],
        "--out", out,
    )
    assert code == 0
    doc = read_json(out)
    # Three samples carry a size label. One is below threshold (miss), one
    # survives a tie by lowest id (hit), one keeps the wrong, higher-scored
    # size (miss plus false positive).
    assert doc["totals"] == {"tp": 1, "fp": 1, "fn": 2}
    assert doc["micro_f"] == pytest.approx(5 / 14, abs=1e-12)
    assert doc["exclusion_groups"] == 1
    assert doc["exclusion_labels"] == 5
    assert doc["n_samples"] == 3


def test_eval_graph_runs_and_exceeds_flat(corpus, tmp_path):
    flat_out = tmp_path / "flat.json"
    graph_out = tmp_path / "graph.json"
    run(
        "eval",
        "--labels", corpus["labels"],
        "--annotations", corpus["annotations"],
        "--scores", corpus["scores"],
        "--out", flat_out,
    )
    code = run(
        "eval-graph",
        "--labels", corpus["labels"],
        "--annotations", corpus["annotations"],
        "--scores", corpus["scores"],
        "--plan", corpus["plan"],
        "--graph-edges", corpus["edges"],
        "--fp-mode", "complement",
        "--out", graph_out,
    )
    assert code == 0
    doc = read_json(graph_out)
    assert doc["kind"] == "graph"
    assert doc["fp_mode"] == "complement"
    # Partial credit can only help relative to exact matching here: the graph
    # links the s8 false positive to the missed disjunction label.
    assert doc["micro_f"] > read_json(flat_out)["micro_f"]


def test_sweep_writes_all_outputs(corpus, tmp_path):
    out_dir = tmp_path / "sweep"
    code = run(
        "sweep",
        "--labels", corpus["labels"],
        "--annotations", corpus["annotations"],
        "--scores", corpus["scores"],
        "--plan", corpus["plan"],
        "--graph-edges", corpus["edges"],
        "--thresholds", "0.05,0.1,0.3",
        "--out", out_dir,
    )
    assert code == 0
    assert (out_dir / "sweep.csv").exists()
    assert (out_dir / "family.csv").exists()
    doc = read_json(out_dir / "sweep.json")
    assert [row["threshold"] for row in doc["rows"]] == [0.05, 0.1, 0.3]
    assert all("graph_micro_f" in row for row in doc["rows"])


def test_sweep_default_grid_size(corpus, tmp_path):
    out_dir = tmp_path / "sweep-default"
    assert run(
        "sweep",
        "--labels", corpus["labels"],
        "--annotations", corpus["annotations"],
        "--scores", corpus["scores"],
        "--out", out_dir,
    ) == 0
    doc = read_json(out_dir / "sweep.json")
    assert len(doc["rows"]) == 64
    assert doc["rows"][0]["threshold"] == 0.0025
    assert doc["rows"][-1]["threshold"] == 0.5
    assert not (out_dir / "family.csv").exists()


def test_compare_command(corpus, tmp_path):
    family = tmp_path / "family.csv"
    family.write_text(
        "model,f_score,g_score\na,0.0,0.0\nb,1.0,0.0\nc,1.0,1.0\nd,2.0,2.0\n"
    )
    out = tmp_path / "cmp.json"
    assert run("compare", "--family", family, "--out", out) == 0
    doc = read_json(out)
    assert doc["r_count"] == 4
    assert doc["p_count"] == 1
    assert doc["q_count"] == 1
    assert doc["doc"] == pytest.approx(0.8)
    assert doc["dod"] == 1.0
    assert doc["verdict"] == "INCONCLUSIVE"


def test_compare_from_sweep_family(corpus, tmp_path):
    out_dir = tmp_path / "sweep"
    run(
        "sweep",
        "--labels", corpus["labels"],
        "--annotations", corpus["annotations"],
        "--scores", corpus["scores"],
        "--plan", corpus["plan"],
        "--thresholds", "0.01,0.05,0.1,0.2,0.3,0.45",
        "--out", out_dir,
    )
    out = tmp_path / "cmp.json"
    assert run("compare", "--family", out_dir / "family.csv", "--out", out) == 0
    doc = read_json(out)
    assert doc["pair_total"] == 15
    assert doc["verdict"] in {"F_BETTER", "G_BETTER", "INCONCLUSIVE"}


# ---------------------------------------------------------------------------
# Provenance names exactly the input files a command read

EVAL_PAIR = "labels annotations"


def provenance_cases():
    """(command, inputs given, report file in the --out directory or None
    for a plain --out file, inputs the provenance block lists). An input
    written ``name=missing`` points at a file that does not exist."""
    cases = [
        ("inspect", "labels", None, "labels"),
        ("inspect", "labels annotations", None, "labels annotations"),
        ("inspect", "labels scores", None, "labels"),
        ("inspect", "labels scores=missing plan=missing", None, "labels"),
        ("connectives", "labels", None, "labels"),
        ("connectives", "labels annotations plan", None, "labels"),
        ("apply", "labels annotations plan", "summary.json", "labels annotations plan"),
        ("apply", "labels annotations plan scores=missing", "summary.json",
         "labels annotations plan"),
        ("graph", "labels", "graph.json", "labels"),
        ("graph", "labels plan", "graph.json", "labels plan"),
        ("graph", "labels graph_edges", "graph.json", "labels graph_edges"),
        ("graph", "labels plan graph_edges annotations", "graph.json",
         "labels plan graph_edges"),
        ("compare", "family", None, "family"),
        ("compare", "family labels scores=missing", None, "family"),
    ]
    for source in ("scores", "predictions"):
        pair = f"{EVAL_PAIR} {source}"
        cases += [
            ("eval", pair, None, pair),
            ("eval", f"{pair} plan graph_edges", None, pair),
            ("eval", f"{pair} plan=missing", None, pair),
            ("eval-or", pair, None, pair),
            ("eval-or", f"{pair} plan", None, f"{pair} plan"),
            ("eval-or", f"{pair} graph_edges=missing", None, pair),
            ("eval-excl", f"{pair} plan", None, f"{pair} plan"),
            ("eval-graph", pair, None, pair),
            ("eval-graph", f"{pair} plan", None, f"{pair} plan"),
            ("eval-graph", f"{pair} graph_edges", None, f"{pair} graph_edges"),
            ("eval-graph", f"{pair} plan graph_edges", None, f"{pair} plan graph_edges"),
        ]
    sweep = f"{EVAL_PAIR} scores"
    cases += [
        ("sweep", sweep, "sweep.json", sweep),
        ("sweep", f"{sweep} predictions=missing", "sweep.json", sweep),
        ("sweep", f"{sweep} plan", "sweep.json", f"{sweep} plan"),
        ("sweep", f"{sweep} graph_edges", "sweep.json", f"{sweep} graph_edges"),
        ("sweep", f"{sweep} plan graph_edges", "sweep.json", f"{sweep} plan graph_edges"),
    ]
    return cases


@pytest.mark.parametrize("command, given, report, listed", provenance_cases())
def test_provenance_lists_the_inputs_read(corpus, tmp_path, command, given, report, listed):
    files = dict(corpus, graph_edges=corpus["edges"], family=tmp_path / "family.csv")
    files["family"].write_text("model,f_score,g_score\na,0.0,0.0\nb,1.0,0.5\n")
    argv = [command]
    for item in given.split():
        name, _, state = item.partition("=")
        path = tmp_path / f"missing-{name}" if state == "missing" else files[name]
        argv += [f"--{name.replace('_', '-')}", path]
    out = tmp_path / "out"
    argv += ["--thresholds", "0.1,0.3", "--out", out]
    assert run(*argv) == 0
    doc = read_json(out / report if report else out)
    inputs = doc["provenance"]["inputs"]
    assert sorted(inputs) == sorted(listed.split())
    for name, entry in inputs.items():
        assert entry == {"path": str(files[name]), "sha256": "sha256:" + digest(files[name])}


# Each command whose report carries provenance, with every input it reads.
FULL_INPUTS = {
    "inspect": "labels annotations",
    "connectives": "labels",
    "apply": "labels annotations plan",
    "graph": "labels plan graph_edges",
    "eval": f"{EVAL_PAIR} scores",
    "eval-or": f"{EVAL_PAIR} scores plan",
    "eval-excl": f"{EVAL_PAIR} scores plan",
    "eval-graph": f"{EVAL_PAIR} scores plan graph_edges",
    "sweep": f"{EVAL_PAIR} scores plan graph_edges",
    "compare": "family",
}
PARSED = (SampleTable, LabelCatalog, RelationGraph)


def full_argv(corpus, tmp_path, command):
    """``command`` reading every input of ``FULL_INPUTS``, writing under
    ``tmp_path / "out"``, and the input files by option name."""
    files = dict(corpus, graph_edges=corpus["edges"], family=tmp_path / "family.csv")
    files["family"].write_text("model,f_score,g_score\na,0.0,0.0\nb,1.0,0.5\n")
    argv = [command]
    for name in FULL_INPUTS[command].split():
        argv += [f"--{name.replace('_', '-')}", files[name]]
    return [*argv, "--thresholds", "0.1,0.3", "--out", tmp_path / "out"], files


@pytest.mark.parametrize("command", list(FULL_INPUTS))
def test_inputs_are_digested_after_the_command_frees_them(corpus, tmp_path, monkeypatch, command):
    # Parsed inputs of earlier tests stay referenced here, so no new object
    # can take one of their ids.
    earlier = [o for o in gc.get_objects() if issubclass(type(o), PARSED)]
    known = set(map(id, earlier))
    digest_file = reports.file_digest
    digested = []

    def checked_digest(path):
        gc.collect()
        alive = [type(o).__name__ for o in gc.get_objects()
                 if issubclass(type(o), PARSED) and id(o) not in known]
        assert alive == [], f"{path} digested while {alive} are alive"
        digested.append(path)
        return digest_file(path)

    monkeypatch.setattr(reports, "file_digest", checked_digest)
    argv, _ = full_argv(corpus, tmp_path, command)
    assert run(*argv) == 0
    assert len(digested) == len(FULL_INPUTS[command].split())


@pytest.mark.parametrize(
    "command, module, parse, name, report",
    [
        ("connectives", "catalog", "parse_labels", "labels", "out"),
        ("apply", "cleanse", "load_plan", "plan", "out/summary.json"),
        ("graph", "relgraph", "parse_curated_edges", "graph_edges", "out/graph.json"),
        ("eval", "metrics", "parse_scores", "scores", "out"),
        ("sweep", "metrics", "parse_scores", "scores", "out/sweep.json"),
        ("compare", "metricmp", "parse_family", "family", "out"),
    ],
)
def test_an_input_gone_before_its_digest_leaves_no_result(
    corpus, tmp_path, capsys, monkeypatch, command, module, parse, name, report
):
    argv, files = full_argv(corpus, tmp_path, command)
    parse_file = getattr(importlib.import_module(f"labelkit.{module}"), parse)

    def parse_then_delete(handle, *args, **kwargs):
        parsed = parse_file(handle, *args, **kwargs)
        files[name].unlink()
        return parsed

    monkeypatch.setattr(f"labelkit.{module}.{parse}", parse_then_delete)
    assert run(*argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1
    assert str(files[name]) in json.loads(err)["error"]
    assert not (tmp_path / report).exists()

def decode_cases():
    """(command, inputs given, input to break): every input option each
    command reads, the config file included, with inputs that let the
    command reach it."""
    cases = {}
    for command, given, _, listed in provenance_cases():
        cases.setdefault((command, "config"), "")
        for name in listed.split():
            cases.setdefault((command, name), given)
    for command in ("dupes", "hierarchy"):
        cases[(command, "config")] = ""
        cases[(command, "labels")] = "labels"
    return [(command, given, bad) for (command, bad), given in cases.items()]


@pytest.mark.parametrize("command, given, bad", decode_cases())
def test_undecodable_input_names_its_file_and_line(corpus, tmp_path, capsys, command, given, bad):
    files = dict(corpus, graph_edges=corpus["edges"], family=tmp_path / "family.csv")
    files["family"].write_text("model,f_score,g_score\na,0.0,0.0\nb,1.0,0.5\n")
    files["config"] = tmp_path / "config.json"
    files["config"].write_text('{\n  "beta": 2.0\n}\n')
    # The input to break is a copy with byte 0xe9 inside its second line.
    lines = files[bad].read_bytes().split(b"\n")
    lines[1] = lines[1][:1] + b"\xe9" + lines[1][1:]
    broken = tmp_path / f"broken-{bad}"
    broken.write_bytes(b"\n".join(lines))
    files[bad] = broken
    argv = [command]
    for name in {*given.split(), bad}:
        argv += [f"--{name.replace('_', '-')}", files[name]]
    assert run(*argv, "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == f"{broken}:2: invalid UTF-8 byte 0xe9"
    if bad == "config":  # a piped config file is copied and named like any input
        argv[argv.index(broken)] = "/dev/stdin"
        done = run_piped([*argv, "--out", tmp_path / "out"], broken.read_bytes(), tmp_path)
        assert done.returncode == 2
        assert json.loads(done.stderr)["error"] == "/dev/stdin:2: invalid UTF-8 byte 0xe9"
        assert list((tmp_path / "tmp").iterdir()) == []


@pytest.mark.parametrize(
    "command, name, header, row",
    [
        ("eval", "scores", "id,attribute_id,score", "x{},0,0.5"),
        ("compare", "family", "model,f_score,g_score", "m{},0.5,0.5"),
    ],
)
def test_undecodable_byte_past_the_first_read_names_its_line(
    corpus, tmp_path, capsys, command, name, header, row
):
    # Far enough in that the rows before it are parsed before it is decoded.
    rows = [(row.format(i) + "\n").encode() for i in range(3000)]
    rows[2498] = rows[2498].replace(b"0.5", b"0.\xff5", 1)
    broken = tmp_path / f"{name}.csv"
    broken.write_bytes(header.encode() + b"\n" + b"".join(rows))
    argv = ["--labels", corpus["labels"], "--annotations", corpus["annotations"]]
    assert run(command, *argv, f"--{name}", broken) == 2
    assert json.loads(capsys.readouterr().err)["error"] == (
        f"{broken}:2500: invalid UTF-8 byte 0xff"
    )


# ---------------------------------------------------------------------------
# Config handling


def test_config_precedence(corpus, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"threshold": 0.3, "beta": 1.0}))
    out = tmp_path / "eval.json"
    code = run(
        "eval",
        "--config", config,
        "--labels", corpus["labels"],
        "--annotations", corpus["annotations"],
        "--scores", corpus["scores"],
        "--beta", "2.0",
        "--out", out,
    )
    assert code == 0
    doc = read_json(out)
    assert doc["provenance"]["config"]["threshold"] == 0.3  # from file
    assert doc["provenance"]["config"]["beta"] == 2.0  # flag wins
    assert doc["beta"] == 2.0
    # Threshold 0.3 drops the four 0.1-to-0.3 scores (s2 both, s3/s4 one).
    assert doc["totals"]["fn"] > 2


def test_config_unknown_key(corpus, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"thresohld": 0.3}))
    code = run("inspect", "--config", config, "--labels", corpus["labels"])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert "thresohld" in err["error"]


def test_config_with_an_integer_too_long_to_convert_names_the_file(corpus, tmp_path, capsys):
    # json.load raises a plain ValueError past 4300 digits, not a
    # JSONDecodeError.
    config = tmp_path / "config.json"
    config.write_text('{"beta": ' + "1" * 5000 + "}")
    assert run("inspect", "--config", config, "--labels", corpus["labels"]) == 2
    assert one_json_error(capsys).startswith(
        f"config file {config}: not valid JSON: Exceeds the limit (4300 digits)")


def test_deeply_nested_config_names_the_file(corpus, tmp_path, capsys):
    # json.loads raises RecursionError, not ValueError, past the
    # interpreter's recursion limit.
    config = tmp_path / "config.json"
    config.write_text("[" * 100_000 + "]" * 100_000)
    assert run("inspect", "--config", config, "--labels", corpus["labels"]) == 2
    assert one_json_error(capsys).startswith(f"config file {config}: not valid JSON: ")


def test_config_rejects_the_inputs_record(corpus, tmp_path, capsys):
    # The record of files a command opened is state, not a setting.
    assert _CONFIG_KEYS == {
        "labels", "annotations", "scores", "predictions", "plan", "graph_edges", "family",
        "out", "threshold", "beta", "similarity", "fp_mode", "epsilon", "category",
        "which", "threads", "thresholds", "cross_category",
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"inputs_read": {"labels": str(corpus["labels"])}}))
    assert run("inspect", "--config", config, "--labels", corpus["labels"]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == f"config file {config}: unknown keys inputs_read"


def test_run_config_defaults_are_the_library_defaults():
    # Each default is defined once, in labelkit.defaults; the CLI settings
    # and the library signatures taking the same knob both read it.
    cfg = RunConfig()
    default = lambda func, name: inspect.signature(func).parameters[name].default  # noqa: E731
    assert cfg.threshold == defaults.DEFAULT_DECISION_THRESHOLD
    assert cfg.similarity == defaults.DEFAULT_SIMILARITY == default(find_duplicates, "threshold")
    assert cfg.epsilon == defaults.DEFAULT_EPSILON == default(compare, "epsilon")
    for func in (fbeta_report, or_aware_report, graph_fbeta_report, sweep):
        assert cfg.beta == defaults.DEFAULT_BETA == default(func, "beta")


def test_config_invalid_values(corpus, capsys):
    code = run(
        "eval",
        "--labels", corpus["labels"],
        "--annotations", corpus["annotations"],
        "--scores", corpus["scores"],
        "--threshold", "1.5",
    )
    assert code == 2
    assert "outside" in json.loads(capsys.readouterr().err)["error"]


@pytest.mark.parametrize(
    "flags",
    [
        ("--beta", "inf"),
        ("--beta", "nan"),
        ("--beta=-inf",),
        ("--epsilon", "inf"),
        ("--epsilon", "nan"),
        ("config", {"beta": math.inf}),
        ("config", {"beta": math.nan}),
        ("config", {"epsilon": math.inf}),
    ],
)
def test_config_non_finite_values(corpus, tmp_path, capsys, flags):
    if flags[0] == "config":
        config = tmp_path / "config.json"
        config.write_text(json.dumps(flags[1]))  # Infinity / NaN literals
        flags = ("--config", config)
    code = run(
        "eval",
        "--labels", corpus["labels"],
        "--annotations", corpus["annotations"],
        "--scores", corpus["scores"],
        "--out", tmp_path / "eval.json",
        *flags,
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "finite" in json.loads(err)["error"]
    assert not (tmp_path / "eval.json").exists()


@pytest.mark.parametrize(
    "doc, key",
    [
        ({"threshold": "0.5"}, "threshold"),
        ({"similarity": None}, "similarity"),
        ({"thresholds": 0.5}, "thresholds"),
        ({"thresholds": [0.1, "0.5"]}, "thresholds"),
        ({"beta": True}, "beta"),
        ({"threads": 1.5}, "threads"),
        ({"cross_category": "yes"}, "cross_category"),
        ({"category": 3}, "category"),
        ({"labels": ["a.csv"]}, "labels"),
        ({"fp_mode": None}, "fp_mode"),
    ],
)
def test_config_wrong_value_types(corpus, tmp_path, capsys, doc, key):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    code = run("dupes", "--config", config, "--labels", corpus["labels"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"{key} must be" in json.loads(err)["error"]


def test_config_accepts_ints_and_nulls(corpus, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"similarity": 1, "category": None, "thresholds": None,
                                  "threads": 2, "cross_category": False}))
    assert run("dupes", "--config", config, "--labels", corpus["labels"]) == 0


@pytest.mark.parametrize(
    "command, doc, flags, outputs",
    [
        ("eval", {"threshold": 0, "beta": 1}, ("--threshold", "0", "--beta", "1"), None),
        (
            "sweep",
            {"thresholds": [1, 0.5], "beta": 2},
            ("--thresholds", "1,0.5", "--beta", "2"),
            ("sweep.csv", "sweep.json", "family.csv"),
        ),
    ],
)
def test_config_integers_write_the_bytes_of_their_flags(corpus, tmp_path, command, doc, flags,
                                                        outputs):
    # A float setting given as an integer in the config file is the float its
    # flag parses to, so both spellings write the same report bytes.
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    inputs = ("--labels", corpus["labels"], "--annotations", corpus["annotations"],
              "--scores", corpus["scores"], "--plan", corpus["plan"])
    by_config, by_flags = tmp_path / "config-run", tmp_path / "flag-run"
    assert run(command, *inputs, "--config", config, "--out", by_config) == 0
    assert run(command, *inputs, *flags, "--out", by_flags) == 0
    if outputs is None:
        assert by_config.read_bytes() == by_flags.read_bytes()
    else:
        for name in outputs:
            assert (by_config / name).read_bytes() == (by_flags / name).read_bytes()


def test_threads_error_says_nonnegative(corpus, capsys):
    argv = ("dupes", "--labels", corpus["labels"], "--threads")
    assert run(*argv, "0") == 0
    capsys.readouterr()
    assert run(*argv, "-1") == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == "threads must be nonnegative, got -1"


# ---------------------------------------------------------------------------
# Failure modes


@pytest.mark.parametrize(
    "doc, where",
    [
        ({"merges": [1]}, "merges[0]: expected an object"),
        ({"merges": [{"survivor": "medium::watercolor"}]}, "merges[0]: missing key 'absorbed'"),
        ({"merges": [{"survivor": "medium::watercolor", "absorbed": "medium::watercolour"}]},
         "merges[0]: 'absorbed' must be a list"),
        ({"merges": {"survivor": "medium::watercolor"}}, "merges: expected a list"),
        ({"hierarchy_edges": [{"super": "medium::black"}, ["medium::black", "medium::black chalk"]]},
         "hierarchy_edges[0]: missing key 'sub'"),
        ({"hierarchy_edges": [{"super": "medium::black", "sub": "medium::black chalk"}, None]},
         "hierarchy_edges[1]: expected an object"),
        ({"and_splits": [{"tokens": ["medium::silk"]}]}, "and_splits[0]: missing key 'source'"),
        ({"and_splits": [{"source": "medium::wool and silk", "tokens": None}]},
         "and_splits[0]: 'tokens' must be a list"),
        ({"or_groups": [{"source": "country::egypt or iraq", "members": {}}]},
         "or_groups[0]: 'members' must be a list"),
        ({"exclusion_groups": ["dimension::tiny"]}, "exclusion_groups[0]: expected a list"),
        ({"and_splits": [{"source": "medium::wool and silk", "tokens": ["medium::silk"],
                          "remove_source": "false"}]},
         "and_splits[0]: 'remove_source' must be a boolean"),
    ],
)
def test_apply_rejects_malformed_plan_entries(corpus, tmp_path, capsys, doc, where):
    plan = tmp_path / "bad_plan.json"
    plan.write_text(json.dumps(doc))
    code = run(
        "apply",
        "--labels", corpus["labels"],
        "--annotations", corpus["annotations"],
        "--plan", plan,
        "--out", tmp_path / "cleaned",
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err)["error"].startswith(f"{plan}: {where}")
    assert not (tmp_path / "cleaned").exists()


@pytest.mark.parametrize(
    "doc, error",
    [
        ({"and_splits": [{"source": "medium::wool and silk", "tokens": ["medium::silk"]},
                         {"source": "medium::wool and silk", "tokens": ["medium::black"]}]},
         "label 26 is the source of two and-splits"),
        ({"or_groups": [{"source": "country::egypt or iraq", "members": ["country::egypt"]},
                        {"source": "country::egypt or iraq", "members": ["country::iraq"]}]},
         "label 2 is the source of two or-groups"),
    ],
)
def test_apply_rejects_a_repeated_split_or_group_source(corpus, tmp_path, capsys, doc, error):
    plan = tmp_path / "repeated.json"
    plan.write_text(json.dumps(doc))
    code = run(
        "apply",
        "--labels", corpus["labels"],
        "--annotations", corpus["annotations"],
        "--plan", plan,
        "--out", tmp_path / "cleaned",
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": f"{plan}: {error}"}
    assert not (tmp_path / "cleaned").exists()


def test_plan_errors_name_the_file_and_the_entry(corpus, tmp_path, capsys):
    doc = json.loads(corpus["plan"].read_text())
    doc["or_groups"][1]["members"].append("country::atlantis")
    plan = tmp_path / "unknown_member.json"
    plan.write_text(json.dumps(doc))
    code = run(
        "eval-or",
        "--labels", corpus["labels"],
        "--annotations", corpus["annotations"],
        "--scores", corpus["scores"],
        "--plan", plan,
    )
    assert code == 2
    assert one_json_error(capsys) == f"{plan}: or_groups[1]: unknown label 'country::atlantis'"


def test_plan_with_an_integer_too_long_to_convert_names_the_file(corpus, tmp_path, capsys):
    plan = tmp_path / "long_int.json"
    plan.write_text('{"merges": [' + "1" * 5000 + "]}")
    code = run(
        "apply",
        "--labels", corpus["labels"],
        "--annotations", corpus["annotations"],
        "--plan", plan,
        "--out", tmp_path / "cleaned",
    )
    assert code == 2
    assert one_json_error(capsys).startswith(
        f"{plan}: plan file is not valid JSON: Exceeds the limit (4300 digits)")
    assert not (tmp_path / "cleaned").exists()


def test_deeply_nested_plan_names_the_file(corpus, tmp_path, capsys):
    plan = tmp_path / "deep.json"
    plan.write_text('{"merges": ' + "[" * 100_000 + "]" * 100_000 + "}")
    code = run(
        "apply",
        "--labels", corpus["labels"],
        "--annotations", corpus["annotations"],
        "--plan", plan,
        "--out", tmp_path / "cleaned",
    )
    assert code == 2
    assert one_json_error(capsys).startswith(f"{plan}: plan file is not valid JSON: ")
    assert not (tmp_path / "cleaned").exists()


@pytest.mark.parametrize(
    "doc, error",
    [
        ({"merges": [{"survivor": "medium::watercolor", "absorbed": ["medium::watercolour"]}],
          "hierarchy_edges": [{"super": "medium::black", "sub": "medium::watercolour"}]},
         "hierarchy edge references label id 13, which a merge absorbs"),
        ({"merges": [{"survivor": "medium::black", "absorbed": ["medium::silk"]}],
          "and_splits": [{"source": "medium::wool and silk", "tokens": ["medium::silk"]}]},
         "and-split references label id 27, which a merge absorbs"),
        ({"and_splits": [{"source": "country::sudan and egypt",
                          "tokens": ["country::sudan", "country::egypt"], "remove_source": True}],
          "hierarchy_edges": [{"super": "country::sudan", "sub": "country::sudan and egypt"}]},
         "hierarchy edge references label id 3, which an and-split removes"),
    ],
)
def test_apply_rejects_conflicting_steps_at_load(corpus, tmp_path, capsys, doc, error):
    # Each step is checked against the labels the earlier steps leave, so
    # the plan fails as it is read, naming its file, before anything is
    # written.
    plan = tmp_path / "conflict.json"
    plan.write_text(json.dumps(doc))
    code = run(
        "apply",
        "--labels", corpus["labels"],
        "--annotations", corpus["annotations"],
        "--plan", plan,
        "--out", tmp_path / "cleaned",
    )
    assert code == 2
    assert one_json_error(capsys) == f"{plan}: {error}"
    assert not (tmp_path / "cleaned").exists()


def test_apply_rewrites_the_annotations_once(corpus, tmp_path, monkeypatch):
    calls = []
    relabel = cleanse._relabel
    monkeypatch.setattr(cleanse, "_relabel", lambda *args: calls.append(1) or relabel(*args))
    code = run(
        "apply",
        "--labels", corpus["labels"],
        "--annotations", corpus["annotations"],
        "--plan", corpus["plan"],
        "--out", tmp_path / "cleaned",
    )
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize(
    "argv, error",
    [
        (["eval", "--threshold", "abc"], "argument --threshold: invalid float value: 'abc'"),
        (["eval-graph", "--fp-mode", "bogus"], "argument --fp-mode: invalid choice: 'bogus'"),
        (["sweep", "--thresholds", "0.1,x"],
         "argument --thresholds: expected comma-separated numbers, got '0.1,x'"),
        (["eval", "--bogus"], "unrecognized arguments: --bogus"),
        ([], "the following arguments are required: command"),
    ],
)
def test_usage_errors_are_one_json_line(capsys, argv, error):
    assert run(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert json.loads(captured.err)["error"].startswith(error)


def test_missing_required_input(corpus, capsys):
    code = run("eval", "--labels", corpus["labels"])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert "--annotations" in err["error"]


def test_scores_and_predictions_conflict(corpus, capsys):
    code = run(
        "eval",
        "--labels", corpus["labels"],
        "--annotations", corpus["annotations"],
        "--scores", corpus["scores"],
        "--predictions", corpus["predictions"],
    )
    assert code == 2
    assert "exactly one" in json.loads(capsys.readouterr().err)["error"]


def one_json_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    return json.loads(err)["error"]


@pytest.mark.parametrize("command", ["eval", "sweep"])
def test_scores_missing_a_sample_names_both_files(corpus, tmp_path, capsys, command):
    scores = tmp_path / "short_scores.csv"
    scores.write_text("".join(line + "\n" for line in SCORES_CSV.splitlines() if "s8," not in line))
    code = run(
        command,
        "--labels", corpus["labels"],
        "--annotations", corpus["annotations"],
        "--scores", scores,
        "--out", tmp_path / "out",
    )
    assert code == 2
    assert one_json_error(capsys) == (
        f"{scores} and {corpus['annotations']}: "
        "score set has no rows for 1 requested samples (first: 's8')"
    )


def test_predictions_over_other_samples_name_both_files(corpus, tmp_path, capsys):
    predictions = tmp_path / "other_predictions.csv"
    predictions.write_text(PREDICTIONS_CSV.replace("s8,", "s9,"))
    code = run(
        "eval",
        "--labels", corpus["labels"],
        "--annotations", corpus["annotations"],
        "--predictions", predictions,
    )
    assert code == 2
    assert one_json_error(capsys) == (
        f"{predictions} and {corpus['annotations']}: "
        "prediction and truth sample ids differ (1 missing from predictions, 1 extra)"
    )


def test_unknown_category_fails(corpus, capsys):
    code = run(
        "eval",
        "--labels", corpus["labels"],
        "--annotations", corpus["annotations"],
        "--scores", corpus["scores"],
        "--category", "nope",
    )
    assert code == 2
    assert "category" in json.loads(capsys.readouterr().err)["error"]


def test_missing_file_reports_json(corpus, capsys, tmp_path):
    code = run("inspect", "--labels", tmp_path / "absent.csv")
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert "absent.csv" in err["error"]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(["--version"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.startswith("labelkit ")


# ---------------------------------------------------------------------------
# Determinism and input safety


def test_inputs_never_mutated(corpus, tmp_path):
    before = {name: digest(path) for name, path in corpus.items() if name != "root"}
    run(
        "apply",
        "--labels", corpus["labels"],
        "--annotations", corpus["annotations"],
        "--plan", corpus["plan"],
        "--out", tmp_path / "cleaned",
    )
    run(
        "eval-graph",
        "--labels", corpus["labels"],
        "--annotations", corpus["annotations"],
        "--scores", corpus["scores"],
        "--plan", corpus["plan"],
        "--graph-edges", corpus["edges"],
        "--out", tmp_path / "g.json",
    )
    after = {name: digest(path) for name, path in corpus.items() if name != "root"}
    assert before == after


def test_eval_graph_byte_identical_across_threads(corpus, tmp_path):
    outs = []
    for threads, name in ((1, "one.json"), (8, "eight.json")):
        out = tmp_path / name
        code = run(
            "eval-graph",
            "--labels", corpus["labels"],
            "--annotations", corpus["annotations"],
            "--scores", corpus["scores"],
            "--plan", corpus["plan"],
            "--graph-edges", corpus["edges"],
            "--threads", str(threads),
            "--out", out,
        )
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_sweep_byte_identical_across_threads(corpus, tmp_path):
    dirs = []
    for threads in (1, 8):
        out_dir = tmp_path / f"sweep-{threads}"
        code = run(
            "sweep",
            "--labels", corpus["labels"],
            "--annotations", corpus["annotations"],
            "--scores", corpus["scores"],
            "--plan", corpus["plan"],
            "--graph-edges", corpus["edges"],
            "--threads", str(threads),
            "--out", out_dir,
        )
        assert code == 0
        dirs.append(out_dir)
    for name in ("sweep.csv", "sweep.json", "family.csv"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_repeat_run_byte_identical(corpus, tmp_path):
    blobs = []
    for name in ("first.json", "second.json"):
        out = tmp_path / name
        run(
            "eval",
            "--labels", corpus["labels"],
            "--annotations", corpus["annotations"],
            "--scores", corpus["scores"],
            "--out", out,
        )
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


def test_output_overwrites_cleanly_no_temp_litter(corpus, tmp_path):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    target = out_dir / "eval.json"
    target.write_text("stale")
    run(
        "eval",
        "--labels", corpus["labels"],
        "--annotations", corpus["annotations"],
        "--scores", corpus["scores"],
        "--out", target,
    )
    assert json.loads(target.read_text())["kind"] == "flat"
    assert [p.name for p in out_dir.iterdir()] == ["eval.json"]


def test_json_reports_have_no_nan_tokens(corpus, tmp_path):
    # A class never seen and never predicted has an undefined score; the
    # report must still be strict JSON (null, not NaN).
    out = tmp_path / "eval.json"
    run(
        "eval",
        "--labels", corpus["labels"],
        "--annotations", corpus["annotations"],
        "--scores", corpus["scores"],
        "--out", out,
    )
    text = out.read_text()
    assert "NaN" not in text
    doc = json.loads(text)
    undefined = [v for v in doc["per_class"].values() if v["f"] is None]
    assert undefined  # the corpus leaves plenty of classes unexercised
    assert all(
        v["f"] is None or math.isfinite(v["f"]) for v in doc["per_class"].values()
    )


# ---------------------------------------------------------------------------
# Input encodings


def _reencode(path, dest, bom, crlf):
    text = path.read_text(encoding="utf-8")
    if crlf:
        text = text.replace("\n", "\r\n")
    dest.write_bytes((b"\xef\xbb\xbf" if bom else b"") + text.encode("utf-8"))
    return dest


def _graph_runs(paths, out_dir):
    inputs = (
        "--labels", paths["labels"],
        "--annotations", paths["annotations"],
        "--scores", paths["scores"],
        "--graph-edges", paths["edges"],
    )
    assert run("eval-graph", *inputs, "--out", out_dir / "eval_graph.json") == 0
    assert run("sweep", *inputs, "--out", out_dir / "sweep") == 0
    doc = read_json(out_dir / "eval_graph.json")
    del doc["provenance"]  # input digests differ with the encoding
    return doc, [(out_dir / "sweep" / n).read_bytes() for n in ("sweep.csv", "family.csv")]


@pytest.mark.parametrize("bom, crlf", [(True, False), (False, True), (True, True)])
def test_bom_and_crlf_inputs_read_like_plain(corpus, tmp_path, bom, crlf):
    encoded_dir = tmp_path / "encoded"
    encoded_dir.mkdir()
    encoded = {
        name: _reencode(corpus[name], encoded_dir / corpus[name].name, bom, crlf)
        for name in ("labels", "annotations", "scores", "edges")
    }
    assert _graph_runs(encoded, tmp_path / "out-encoded") == _graph_runs(
        corpus, tmp_path / "out-plain"
    )


def test_config_file_with_bom(corpus, tmp_path):
    config = tmp_path / "config.json"
    config.write_bytes(b"\xef\xbb\xbf" + json.dumps({"threshold": 0.3}).encode("utf-8"))
    out = tmp_path / "eval.json"
    code = run(
        "eval",
        "--config", config,
        "--labels", corpus["labels"],
        "--annotations", corpus["annotations"],
        "--scores", corpus["scores"],
        "--out", out,
    )
    assert code == 0
    assert read_json(out)["provenance"]["config"]["threshold"] == 0.3


# ---------------------------------------------------------------------------
# Oversized CSV cells

HUGE = "x" * 140_000  # above csv.field_size_limit()'s default of 131072


@pytest.mark.parametrize(
    "kind, text, command",
    [
        ("labels", f"attribute_id,attribute_name\n0,country::egypt\n1,{HUGE}\n", "inspect"),
        ("annotations", f"id,attribute_ids\ns1,0\ns2,{HUGE}\n", "inspect"),
        ("scores", f"id,attribute_id,score\ns1,0,0.5\ns2,0,{HUGE}\n", "eval"),
        ("family", f"model,f_score,g_score\na,0.1,0.2\nb,{HUGE},0.3\n", "compare"),
    ],
    ids=["labels", "annotations", "scores", "family"],
)
def test_oversized_cell_is_one_json_error(corpus, tmp_path, capsys, kind, text, command):
    path = tmp_path / f"huge_{kind}.csv"
    path.write_text(text)
    inputs = {
        "inspect": ("--labels", corpus["labels"], "--annotations", corpus["annotations"]),
        "eval": (
            "--labels", corpus["labels"],
            "--annotations", corpus["annotations"],
            "--scores", corpus["scores"],
        ),
        "compare": (),
    }[command]
    flags = dict(zip(inputs[::2], inputs[1::2]))
    flags[f"--{kind}"] = path
    argv = [command, *(item for pair in flags.items() for item in pair)]
    assert run(*argv, "--out", tmp_path / "out.json") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": f"{path}:3: field larger than field limit (131072)"}


@pytest.mark.parametrize(
    "rows, error",
    [
        ("a,0.1,0.2\nb,inf,0.3\n", "fam.csv:3: model 'b' has a non-finite score"),
        ("a,0.1,0.2\nb,0.3,0.4\na,0.5,0.6\n", "fam.csv:4: duplicate model tag 'a'"),
        ("a,0.1,0.2\n", "fam.csv: a model family needs at least two models"),
    ],
)
def test_compare_family_errors_name_the_line(tmp_path, capsys, rows, error):
    family = tmp_path / "fam.csv"
    family.write_text("model,f_score,g_score\n" + rows)
    assert run("compare", "--family", family) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == f"{tmp_path / error}"


def test_graph_edges_quoted_name_holds_a_comma(tmp_path, capsys):
    labels = tmp_path / "labels.csv"
    labels.write_text('attribute_id,attribute_name\n0,"medium::ink, color"\n1,medium::paper\n')
    edges = tmp_path / "e.txt"
    edges.write_text("medium::ink, color,medium::paper\n")
    args = ("graph", "--labels", labels, "--graph-edges", edges, "--out", tmp_path / "g")
    assert run(*args) == 2
    err = capsys.readouterr().err
    assert json.loads(err)["error"] == f"{edges}:1: expected two comma-separated label names"
    edges.write_text('"medium::ink, color",medium::paper\n')
    assert run(*args) == 0
    lines = (tmp_path / "g" / "edges.txt").read_text().splitlines()
    assert lines == ["label_a,label_b", '"medium::ink, color",medium::paper']


def test_graph_reads_its_own_edge_list_back(corpus, tmp_path):
    first, second = tmp_path / "g1", tmp_path / "g2"
    assert run("graph", "--labels", corpus["labels"], "--graph-edges", corpus["edges"],
               "--out", first) == 0
    assert run("graph", "--labels", corpus["labels"], "--graph-edges", first / "edges.txt",
               "--out", second) == 0
    assert (second / "edges.txt").read_bytes() == (first / "edges.txt").read_bytes()
    summaries = [read_json(out / "graph.json") for out in (first, second)]
    for summary in summaries:
        del summary["provenance"]
    assert summaries[0] == summaries[1]


# ---------------------------------------------------------------------------
# Inputs that are not regular files, and the lines errors name


def run_piped(argv, data, tmp_path):
    """Run the CLI in a child process with ``data`` on a pipe as its stdin
    and its own empty temporary directory."""
    tmp = tmp_path / "tmp"
    tmp.mkdir(exist_ok=True)
    src = Path(defaults.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-m", "labelkit", *map(str, argv)],
        input=data,
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=str(src), TMPDIR=str(tmp)),
    )


def test_piped_input_digest_is_that_of_the_bytes_parsed(corpus, tmp_path):
    data = corpus["scores"].read_bytes()
    pair = ("--labels", corpus["labels"], "--annotations", corpus["annotations"])
    piped = tmp_path / "piped.json"
    done = run_piped(["eval", *pair, "--scores", "/dev/stdin", "--out", piped], data, tmp_path)
    assert done.returncode == 0, done.stderr
    doc = read_json(piped)
    assert doc["provenance"]["inputs"]["scores"] == {
        "path": "/dev/stdin",
        "sha256": "sha256:" + hashlib.sha256(data).hexdigest(),
    }
    assert list((tmp_path / "tmp").iterdir()) == []  # the copy of the pipe is removed
    # The same report as from the file itself, but for the path it names.
    assert run("eval", *pair, "--scores", corpus["scores"], "--out", tmp_path / "file.json") == 0
    doc["provenance"]["inputs"]["scores"]["path"] = str(corpus["scores"])
    assert doc == read_json(tmp_path / "file.json")


def test_piped_config_is_applied_and_not_listed(corpus, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"threshold": 0.3, "beta": 1.0}))
    argv = ["eval", "--labels", corpus["labels"], "--annotations", corpus["annotations"],
            "--scores", corpus["scores"], "--beta", "2"]
    piped = tmp_path / "piped.json"
    done = run_piped([*argv, "--config", "/dev/stdin", "--out", piped], config.read_bytes(),
                     tmp_path)
    assert done.returncode == 0, done.stderr
    doc = read_json(piped)
    assert doc["provenance"]["config"]["threshold"] == 0.3  # from the piped file
    assert doc["provenance"]["config"]["beta"] == 2.0  # the flag wins
    assert sorted(doc["provenance"]["inputs"]) == ["annotations", "labels", "scores"]
    assert list((tmp_path / "tmp").iterdir()) == []  # the copy of the pipe is removed
    # The same report as from the config file itself.
    assert run(*argv, "--config", config, "--out", tmp_path / "file.json") == 0
    assert piped.read_bytes() == (tmp_path / "file.json").read_bytes()


@pytest.mark.parametrize(
    "row, error",
    [
        (b"s1,1\xe96,0.5", "/dev/stdin:3: invalid UTF-8 byte 0xe9"),
        (b"s1,99,0.5", "/dev/stdin:3: unknown label id 99"),
    ],
)
def test_piped_input_errors_name_the_pipe_and_line(corpus, tmp_path, row, error):
    lines = corpus["scores"].read_bytes().split(b"\n")
    lines[2] = row
    pair = ("--labels", corpus["labels"], "--annotations", corpus["annotations"])
    done = run_piped(["eval", *pair, "--scores", "/dev/stdin"], b"\n".join(lines), tmp_path)
    assert done.returncode == 2
    assert json.loads(done.stderr)["error"] == error
    assert list((tmp_path / "tmp").iterdir()) == []


@pytest.mark.parametrize(
    "ends",
    [[b"\r"] * 4, [b"\r\n"] * 4, [b"\n"] * 4, [b"\r\n", b"\r", b"\n", b"\r"]],
)
def test_decode_error_counts_lines_as_the_csv_reader(tmp_path, capsys, ends):
    # Line 4 holds a bad byte in one file and a bad id in the other; the
    # decode error and the csv reader must name the same line.
    for row, error in [(b"2,medium::p\xe9per", "invalid UTF-8 byte 0xe9"),
                       (b"x,medium::pepper", "bad label id 'x'")]:
        rows = [b"attribute_id,attribute_name", b"0,medium::silk", b"1,medium::paper", row]
        labels = tmp_path / "labels.csv"
        labels.write_bytes(b"".join(r + end for r, end in zip(rows, ends)))
        assert run("inspect", "--labels", labels) == 2
        assert json.loads(capsys.readouterr().err)["error"] == f"{labels}:4: {error}"


@pytest.mark.parametrize("pair", ["medium::black,medium::black", "black, medium::black"])
def test_curated_self_edge_names_its_file_and_line(corpus, tmp_path, capsys, pair):
    edges = tmp_path / "e.txt"
    edges.write_text(f"# c\nfrench, france\n\nunited kingdom, england\n{pair}\n")
    assert run("graph", "--labels", corpus["labels"], "--graph-edges", edges,
               "--out", tmp_path / "g") == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error == f"{edges}:5: self-edge on label {pair.split(',')[0]!r}"


@pytest.mark.parametrize("command", ["eval", "dupes"])
def test_reader_that_closes_stdout_early_is_not_an_error(corpus, tmp_path, command):
    # The child's stdout is a pipe whose reader has already gone, as after
    # `| head -1`: every write fails with EPIPE.
    argv = {
        "eval": ["eval", "--labels", corpus["labels"], "--annotations", corpus["annotations"],
                 "--scores", corpus["scores"]],
        "dupes": ["dupes", "--labels", corpus["labels"], "--similarity", "0.3"],
    }[command]
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = Path(defaults.__file__).resolve().parents[1]
    try:
        done = subprocess.run(
            [sys.executable, "-m", "labelkit", *map(str, argv)],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(src)),
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (0, b"")


def test_other_os_errors_stay_json_errors(corpus, tmp_path, capsys):
    assert run("eval", "--labels", corpus["labels"], "--annotations", corpus["annotations"],
               "--scores", tmp_path / "missing.csv") == 2
    assert "No such file" in json.loads(capsys.readouterr().err)["error"]
