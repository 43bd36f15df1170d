"""Seeded hostile-input fuzzing of ``eval --scores``.

A small valid score file is mutated with the bytes that break CSV readers:
byte-order marks, CR, NUL, quotes, commas, ``nan``, ``inf``, ``1e309``, an
invalid UTF-8 byte, long runs and repeated rows. Whatever the bytes, the
command must exit 0 or 2 without raising. On exit 2, stderr is one JSON
line whose error names the score file. On exit 0, the report must be the
bytes the library gives for the same files when it keeps every cell
(``at_least=0.0``) and thresholds afterwards, so the floor the CLI reads
with changes nothing. Block sizes vary, so plain files are cut into blocks
in many places.
"""

import csv
import json
import random
from unittest import mock

from labelkit import csvio
from labelkit.catalog import parse_annotations, parse_labels
from labelkit.cli import main
from labelkit.metrics import fbeta_report, parse_scores, threshold
from labelkit.reports import render_json
from conftest import MINI_SAMPLE_ROWS, annotations_csv, labels_csv

SEED = 28
CASES = 1500
THRESHOLDS = (0.0, 0.1, 0.5, 1.0)
TOKENS = [
    b"\xef\xbb\xbf", b"\r", b"\r\n", b"\0", b'"', b",", b"nan", b"inf", b"-inf", b"1e309",
    b"\xff", b"\n", b"\n\n", b"-0.0", b" ", b"5",
]


def base_scores(rng: random.Random) -> bytes:
    """Valid scores for every sample of the mini annotations."""
    lines = ["id,attribute_id,score"]
    for sid, _ in MINI_SAMPLE_ROWS:
        for label in rng.sample(range(30), rng.randint(1, 8)):
            lines.append(f"{sid},{label},{rng.choice(['0', '1', '0.1', f'{rng.random():.6f}'])}")
    return ("\n".join(lines) + "\n").encode()


def mutate(data: bytes, rng: random.Random) -> bytes:
    for _ in range(rng.randint(1, 3)):
        at = rng.randint(0, len(data))
        kind = rng.randrange(10)
        if kind < 5:  # a hostile token
            data = data[:at] + rng.choice(TOKENS) + data[at + rng.randint(0, 2):]
        elif kind < 7:  # a repeated row, anywhere
            lines = data.split(b"\n")
            lines.insert(rng.randint(1, len(lines)), rng.choice(lines[1:] or [b""]))
            data = b"\n".join(lines)
        elif kind < 8:  # a long run, now and then past the CSV field size limit
            size = rng.choice([300, 5000, 5000, csv.field_size_limit() + 1])
            data = data[:at] + rng.choice([b"9", b"a", b",", b"0"]) * size + data[at:]
        elif kind < 9:  # rows moved, so samples come back
            head, *rows = data.split(b"\n")
            rng.shuffle(rows)
            data = b"\n".join([head, *rows])
        else:  # bytes cut out
            data = data[:at] + data[at + rng.randint(1, 40):]
    return data


def library_report(paths, cut: float, provenance: dict) -> bytes:
    """The report ``eval`` writes, made by the library from the same files
    with every cell kept, under the CLI's provenance block."""
    with open(paths["labels"], encoding="utf-8-sig", newline="") as handle:
        catalog = parse_labels(handle)
    with open(paths["annotations"], encoding="utf-8-sig", newline="") as handle:
        truth = parse_annotations(handle, catalog)
    with open(paths["scores"], encoding="utf-8-sig", newline="") as handle:
        scores = parse_scores(handle, catalog, at_least=0.0)
    doc = fbeta_report(threshold(scores, cut, truth.sample_ids()), truth).as_dict()
    doc["provenance"] = provenance
    return render_json(doc).encode()


def test_hostile_score_files_exit_cleanly(tmp_path, capsys):
    rng = random.Random(SEED)
    paths = {name: tmp_path / f"{name}.csv" for name in ("labels", "annotations", "scores")}
    paths["labels"].write_text(labels_csv())
    paths["annotations"].write_text(annotations_csv())
    out = tmp_path / "eval.json"
    statuses = []
    for case in range(CASES):
        data = mutate(base_scores(rng), rng)
        paths["scores"].write_bytes(data)
        cut = rng.choice(THRESHOLDS)
        block_size = rng.choice([1, 7, 64, csvio.BLOCK_SIZE])
        out.unlink(missing_ok=True)
        argv = ["eval", "--threshold", str(cut), "--out", str(out)]
        for name, path in paths.items():
            argv += [f"--{name}", str(path)]
        with mock.patch.object(csvio, "BLOCK_SIZE", block_size):
            status = main(argv)
        captured = capsys.readouterr()
        context = f"case {case}: {data!r} at threshold {cut}, block size {block_size}"
        assert status in (0, 2), context
        statuses.append(status)
        if status == 2:
            assert captured.err.count("\n") == 1 and captured.err.endswith("\n"), context
            assert str(paths["scores"]) in json.loads(captured.err)["error"], context
            assert not out.exists(), context
        else:
            assert captured.err == "", context
            written = out.read_bytes()
            provenance = json.loads(written)["provenance"]
            assert written == library_report(paths, cut, provenance), context
    # Both outcomes are exercised.
    assert 0.1 * CASES < statuses.count(0) < 0.9 * CASES
