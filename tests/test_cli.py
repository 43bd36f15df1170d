"""End-to-end command behavior on a hand-checkable corpus."""

import hashlib
import io
import json
import math

import pytest

from labelkit.cleanse import AndSplit, Merge, OrGroup, TransformPlan, write_plan
from labelkit.cli import build_parser, main
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
    assert json.loads(err)["error"].startswith(where)
    assert not (tmp_path / "cleaned").exists()


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
