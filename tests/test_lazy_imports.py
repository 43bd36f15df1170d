"""Start-up cost: ``import labelkit`` loads no module, each CLI command loads
only the modules it runs, OpenSSL's hash module only when a command digests
its inputs, and every exported name still resolves."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import labelkit
from conftest import annotations_csv, labels_csv

SRC = Path(labelkit.__file__).resolve().parents[1]

# Runs the CLI in a fresh interpreter, then prints its exit status, the
# labelkit modules it loaded and, if it was loaded, _hashlib (OpenSSL's hashes,
# which hashlib loads) as its last line.
CHILD = """
import sys
from labelkit.cli import main
try:
    status = main(sys.argv[1:])
except SystemExit as exc:
    status = exc.code
print(status, *sorted(m for m in sys.modules if m.split(".")[0] in ("labelkit", "_hashlib")))
"""

BASE = {"labelkit", "labelkit.cli", "labelkit.defaults", "labelkit.errors"}
INSPECT = BASE | {"labelkit.catalog", "labelkit.csvio", "labelkit.reports"}
CLEANSE = INSPECT | {"labelkit.cleanse", "labelkit.textkit"}
DIGEST = {"_hashlib"}  # loaded by the commands whose reports carry provenance


def loaded_modules(code: str, *argv, cwd: Path) -> set[str]:
    done = subprocess.run(
        [sys.executable, "-c", code, *map(str, argv)],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        check=True,
    )
    return set(done.stdout.splitlines()[-1].split())


@pytest.fixture
def files(tmp_path):
    (tmp_path / "labels.csv").write_text(labels_csv())
    (tmp_path / "annotations.csv").write_text(annotations_csv())
    (tmp_path / "scores.csv").write_text(
        "id,attribute_id,score\n" + "".join(f"s{i},12,0.5\n" for i in range(1, 9))
    )
    (tmp_path / "family.csv").write_text("model,f_score,g_score\na,0.1,0.2\nb,0.3,0.4\n")
    return tmp_path


@pytest.mark.parametrize(
    "argv, status, modules",
    [
        (["--version"], 0, BASE),
        (["--help"], 0, BASE),
        ([], 2, BASE),  # usage error: no command
        (
            ["inspect", "--labels", "labels.csv", "--annotations", "annotations.csv"],
            0,
            INSPECT | DIGEST,
        ),
        (["dupes", "--labels", "labels.csv"], 0, CLEANSE),
        (["hierarchy", "--labels", "labels.csv"], 0, CLEANSE),
        (
            ["eval", "--labels", "labels.csv", "--annotations", "annotations.csv",
             "--scores", "scores.csv"],
            0,
            INSPECT | {"labelkit.metrics"} | DIGEST,
        ),
        (
            ["compare", "--family", "family.csv"],
            0,
            BASE | {"labelkit.csvio", "labelkit.metricmp", "labelkit.reports"} | DIGEST,
        ),
    ],
    ids=["version", "help", "usage-error", "inspect", "dupes", "hierarchy", "eval", "compare"],
)
def test_command_loads_only_its_modules(files, argv, status, modules):
    assert loaded_modules(CHILD, *argv, cwd=files) == {str(status)} | modules


def test_import_labelkit_loads_no_module(tmp_path):
    code = 'import sys, labelkit; print(" ".join(m for m in sys.modules if m.startswith("labelkit")))'
    assert loaded_modules(code, cwd=tmp_path) == {"labelkit"}


# The names the package exports: those the commands and the benchmark use, and
# cooccurrence, which acceptance criteria 3 and 4 call.
EXPORTS = {
    "catalog": [
        "AnnotationSet", "CorpusStats", "LabelCatalog", "LabelRecord", "canonicalize",
        "compute_stats", "cooccurrence", "parse_annotations", "parse_labels", "write_annotations",
        "write_labels",
    ],
    "cleanse": [
        "AndSplit", "ConnectiveTally", "DuplicatePair", "HierarchyCandidate", "Merge", "OrGroup",
        "TransformPlan", "and_splits_from_tally", "apply_plan", "classify_connectives",
        "find_duplicates", "find_hierarchy_candidates", "load_plan", "or_groups_from_tally",
        "split_label", "validate_plan", "write_plan",
    ],
    "errors": ["EvalError", "LabelKitError", "ParseError", "PlanError"],
    "metricmp": [
        "ComparisonReport", "FamilyEntry", "ModelFamily", "compare", "family_from_sweep",
        "interpret", "parse_family", "write_family",
    ],
    "metrics": [
        "MetricReport", "ScoreSet", "default_threshold_grid", "enforce_exclusion", "fbeta",
        "fbeta_report", "graph_fbeta_report", "or_aware_report", "parse_scores", "sweep",
        "threshold",
    ],
    "relgraph": ["RelationGraph", "build_graph", "graph_summary", "parse_curated_edges"],
    "textkit": [
        "EDITDIST_BACKEND", "Connective", "ConnectiveSplit", "SplitClass", "edit_distance_capped",
        "split_connective", "tokenize",
    ],
}
SUBMODULES = ["catalog", "cleanse", "cli", "csvio", "defaults", "errors", "metricmp",
              "metrics", "relgraph", "reports", "textkit"]


def test_exports_resolve_to_their_modules_objects():
    assert sorted(labelkit.__all__) == sorted(n for names in EXPORTS.values() for n in names)
    for module, names in EXPORTS.items():
        source = importlib.import_module(f"labelkit.{module}")
        for name in names:
            assert getattr(labelkit, name) is getattr(source, name), name
    namespace: dict = {}
    exec("from labelkit import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(labelkit.__all__)
    assert all(namespace[name] is getattr(labelkit, name) for name in namespace)


def test_submodules_resolve_as_attributes(tmp_path):
    # Each submodule through getattr in a fresh interpreter, where none of
    # them has been imported yet.
    code = "import labelkit; " + "; ".join(
        f"assert getattr(labelkit, {m!r}).__name__ == 'labelkit.{m}'" for m in SUBMODULES
    ) + "; print(1)"
    assert loaded_modules(code, cwd=tmp_path) == {"1"}
    assert set(SUBMODULES) <= set(dir(labelkit))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        labelkit.no_such_name
    with pytest.raises(ImportError):
        exec("from labelkit import no_such_name", {})
    assert not hasattr(labelkit, "__main__")
