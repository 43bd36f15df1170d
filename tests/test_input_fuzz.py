"""Seeded hostile-input fuzzing of every input but the scores.

Each case mutates one input of a small valid corpus (labels, annotations,
plan, config, curated edges or model family) and runs a command that reads
it, with the bytes that break CSV and JSON readers: byte-order marks, CR,
NUL, quotes, commas, ``nan``, ``inf``, ``1e309``, an invalid UTF-8 byte,
``::``, ``#``, deep ``[`` nesting, long runs, cut bytes and repeated rows.
Whatever the bytes, the command must exit 0 or 2 without raising. On exit
2, the last stderr line is the only JSON line, and its error names one of
the command's input files; warning lines may come before it. Nothing exists
under the command's ``--out`` either. On exit 0, every JSON report parses
as strict JSON. Score files have their own fuzz in ``test_score_fuzz.py``.
"""

import csv
import json
import random
import shutil

import pytest

from labelkit.cli import main
from conftest import annotations_csv, labels_csv
from test_cli import EDGES_TXT, SCORES_CSV, make_plan_json

SEED = 29
CASES = 1200
# The options each command is given, and for each input the commands that read it.
COMMAND_INPUTS = {
    "inspect": "labels annotations",
    "dupes": "labels",
    "hierarchy": "labels",
    "connectives": "labels",
    "apply": "labels annotations plan",
    "graph": "labels plan graph_edges",
    "eval": "labels annotations scores",
    "eval-or": "labels annotations scores plan",
    "eval-excl": "labels annotations scores plan",
    "eval-graph": "labels annotations scores graph_edges",
    "sweep": "labels annotations scores plan graph_edges",
    "compare": "family",
}
READERS = {
    name: [command for command, inputs in COMMAND_INPUTS.items() if name in inputs.split()]
    for name in ("labels", "annotations", "plan", "graph_edges", "family")
}
READERS["config"] = list(COMMAND_INPUTS)
TOKENS = [
    b"\xef\xbb\xbf", b"\r", b"\r\n", b"\0", b'"', b",", b"nan", b"inf", b"1e309", b"\xff",
    b"::", b"#", b"\n", b" ", b"5", b"[", b"]", b"{", b"}",
]


def base_files() -> dict[str, bytes]:
    """The ``test_cli.py`` corpus, with a config file and a model family."""
    config = {"threshold": 0.3, "beta": 1.0, "similarity": 0.8, "thresholds": [0.1, 0.5],
              "epsilon": 0.01, "which": "both", "fp_mode": "literal", "category": None}
    texts = {
        "labels": labels_csv(),
        "annotations": annotations_csv(),
        "scores": SCORES_CSV,
        "plan": make_plan_json(),
        "config": json.dumps(config, indent=1),
        "graph_edges": EDGES_TXT,
        "family": "model,f_score,g_score\na,0.1,0.2\nb,0.3,0.4\nc,0.5,0.45\n",
    }
    return {name: text.encode() for name, text in texts.items()}


def mutate(data: bytes, rng: random.Random) -> bytes:
    for _ in range(rng.randint(1, 3)):
        at = rng.randint(0, len(data))
        kind = rng.randrange(10)
        if kind < 5:  # a hostile token, over up to two bytes
            data = data[:at] + rng.choice(TOKENS) + data[at + rng.randint(0, 2):]
        elif kind < 6:  # nesting deeper than the recursion limit
            data = data[:at] + b"[" * rng.choice([50, 100_000]) + data[at:]
        elif kind < 8:  # a repeated row, anywhere
            lines = data.split(b"\n")
            lines.insert(rng.randint(1, len(lines)), rng.choice(lines[1:] or [b""]))
            data = b"\n".join(lines)
        elif kind < 9:  # a long run, now and then past the CSV field size limit
            size = rng.choice([300, 5000, csv.field_size_limit() + 1])
            data = data[:at] + rng.choice([b"9", b"a", b",", b":"]) * size + data[at:]
        else:  # bytes cut out
            data = data[:at] + data[at + rng.randint(1, 40):]
    return data


def reject_constant(token: str):
    raise ValueError(f"not strict JSON: {token}")


def is_json(line: str) -> bool:
    try:
        json.loads(line)
    except ValueError:
        return False
    return True


def run_case(command: str, given: list[str], paths: dict, out, context: str, capsys) -> int:
    """Run ``command`` on the files ``paths`` names for the inputs
    ``given``, writing under ``out``, and check its outcome as the module
    docstring says. Returns the exit status."""
    argv = [command]
    for name in given:
        argv += [f"--{name.replace('_', '-')}", str(paths[name])]
    shutil.rmtree(out, ignore_errors=True)
    # A directory for apply, graph and sweep; a file for the others.
    suffix = {"dupes": ".csv", "hierarchy": ".csv", "apply": "", "graph": "", "sweep": ""}
    argv += ["--out", str(out / ("report" + suffix.get(command, ".json")))]
    try:
        status = main(argv)
    except BaseException as exc:
        raise AssertionError(f"{context}: {exc!r} escaped main") from exc
    captured = capsys.readouterr()
    assert status in (0, 2), context
    lines = captured.err.splitlines()
    if status == 2:
        assert lines and captured.err.endswith("\n"), context
        assert not any(map(is_json, lines[:-1])), context
        error = json.loads(lines[-1])["error"]
        assert not out.exists(), f"{context}: {error}: {sorted(out.rglob('*'))}"
        assert any(str(paths[name]) in error for name in given), f"{context}: {error}"
    else:
        assert not any(map(is_json, lines)), context
        for report in out.rglob("*.json"):
            json.loads(report.read_text(encoding="utf-8"), parse_constant=reject_constant)
    return status


def write_inputs(tmp_path, files: dict[str, bytes]) -> dict:
    paths = {name: tmp_path / f"{name}.in" for name in files}
    for name, path in paths.items():
        path.write_bytes(files[name])
    return paths


def test_hostile_inputs_exit_cleanly(tmp_path, capsys):
    rng = random.Random(SEED)
    base = base_files()
    statuses = {0: 0, 2: 0}
    for case in range(CASES):
        target = rng.choice(sorted(READERS))
        command = rng.choice(READERS[target])
        data = mutate(base[target], rng)
        paths = write_inputs(tmp_path, {**base, target: data})
        given = COMMAND_INPUTS[command].split() + (["config"] if target == "config" else [])
        context = f"case {case}: {command} with {target} {data[:300]!r}"
        statuses[run_case(command, given, paths, tmp_path / "out", context, capsys)] += 1
    # Both outcomes are exercised.
    assert statuses[0] > 0.1 * CASES and statuses[2] > 0.1 * CASES, statuses


@pytest.mark.parametrize("graph", [False, True])
def test_an_empty_sweep_grid_in_the_config_fails_and_leaves_no_out_path(tmp_path, capsys, graph):
    # A case the seeded cases above do not reach.
    paths = write_inputs(tmp_path, {**base_files(), "config": b'{"thresholds": []}'})
    given = COMMAND_INPUTS["sweep"].split() + ["config"]
    if not graph:
        given = [name for name in given if name not in ("plan", "graph_edges")]
    assert run_case("sweep", given, paths, tmp_path / "out", "empty grid", capsys) == 2
