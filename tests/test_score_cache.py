"""The CLI's score cache (``labelkit.scorecache``), with the current parse as
the oracle: a restored score set is the parse it stands for, column for
column; every command that reads scores writes the same bytes with the
cache cold, warm, damaged or unusable; and an entry is read only for the
file, catalog, floor and code it was written for.

The tests that need an entry set the cache's 2 s window to 0 instead of
sleeping; each test has its own cache home (``conftest.private_cache_home``).
"""

import csv
import io
import os
import random
import shutil
import stat
import threading
import time
import zlib
from array import array
from functools import cache

import pytest

from labelkit import metrics, scorecache
from labelkit.catalog import LabelCatalog, LabelRecord
from labelkit.cli import main
from conftest import build_catalog
from test_cli import EDGES_TXT, SCORES_CSV, annotations_csv, labels_csv, make_plan_json

PARSE = metrics.parse_scores  # the oracle, whatever a test patches


@pytest.fixture
def parses(monkeypatch):
    """Entries may be written at once; returns the list of floors the
    library parse was called with, so a test can tell a miss from a hit."""
    calls = []

    def counted(stream, catalog, at_least=0.0):
        calls.append(at_least)
        return PARSE(stream, catalog, at_least)

    monkeypatch.setattr(metrics, "parse_scores", counted)
    monkeypatch.setattr(scorecache, "_RACY_NS", 0)
    return calls


def entries(home):
    directory = home / "labelkit"
    return sorted(p.name for p in directory.iterdir()) if directory.is_dir() else []


def the_entry(home):
    (name,) = entries(home)
    return home / "labelkit" / name


def opened(path):
    """``path`` opened as the CLI's ``_read`` opens an input."""
    return open(path, encoding="utf-8-sig", newline="")


def cached(path, catalog, at_least=0.0):
    with opened(path) as handle:
        return scorecache.parse_scores(handle, catalog, at_least)


def fresh(path, catalog, at_least=0.0):
    with opened(path) as handle:
        return PARSE(handle, catalog, at_least)


def assert_same_table(got, expected):
    assert list(got._index.items()) == list(expected._index.items())
    assert got._ids == expected._ids and got.known_labels == expected.known_labels
    assert got._offsets == expected._offsets
    assert got._positions.typecode == expected._positions.typecode
    assert got._positions == expected._positions
    assert got._scores.tobytes() == expected._scores.tobytes()
    assert got.floor.hex() == expected.floor.hex()


# ---------------------------------------------------------------------------
# A restored set is the parse


def score_rows(catalog, order, odd_ids, seed=7):
    """Score rows (sample id, label text, score text), grouped by sample,
    then put in ``order``; with ``odd_ids``, sample ids that need quoting,
    or are not ASCII, or are empty."""
    rng = random.Random(seed)
    ids = sorted(catalog.ids())
    names = [f"s{k}" for k in range(40)]
    if odd_ids:
        names[:6] = ["", "a,b", 'say "hi"', "line\nbreak", "égypte", "日本\U0001f600"]
    rows = []
    for name in names:
        for label in rng.sample(ids, rng.randint(0, 6)):
            rows.append((name, str(label), rng.choice(["0", "0.05", "0.1", "0.5", "1", "0.3333"])))
    if order == "label":
        rows.sort(key=lambda row: int(row[1]))
    elif order == "shuffled":
        rng.shuffle(rows)
    elif order == "returning":  # the first sample's last row comes back at the end
        first = max(k for k, row in enumerate(rows) if row[0] == rows[0][0])
        rows.append(rows.pop(first))
    return rows


def write_scores(path, rows):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        out = csv.writer(handle, lineterminator="\n")
        out.writerow(["id", "attribute_id", "score"])
        out.writerows(rows)


@cache
def catalog_of(typecode):
    """A catalog whose positions are 2-byte ('H') or, past 65,536 labels,
    4-byte ('I')."""
    if typecode == "H":
        return build_catalog()
    return LabelCatalog(LabelRecord(i * 3, "tags", f"label {i}") for i in range(70_000))


@pytest.mark.parametrize("order", ["grouped", "label", "shuffled", "returning"])
@pytest.mark.parametrize("at_least", [0.0, 0.1])
@pytest.mark.parametrize("odd_ids", [False, True], ids=["plain", "odd-ids"])
@pytest.mark.parametrize("typecode", ["H", "I"])
def test_a_restored_set_is_the_parse(tmp_path, private_cache_home, parses, order, at_least,
                                     odd_ids, typecode):
    catalog = catalog_of(typecode)
    path = tmp_path / "scores.csv"
    write_scores(path, score_rows(catalog, order, odd_ids))
    expected = fresh(path, catalog, at_least)
    assert expected._positions.typecode == typecode
    assert_same_table(cached(path, catalog, at_least), expected)  # a miss, written
    assert parses == [at_least] and len(entries(private_cache_home)) == 1
    assert_same_table(cached(path, catalog, at_least), expected)  # a hit
    assert parses == [at_least]


def test_a_set_of_no_samples_is_restored(tmp_path, private_cache_home, parses):
    path = tmp_path / "scores.csv"
    path.write_text("id,attribute_id,score\n")
    catalog = build_catalog()
    first, second = cached(path, catalog), cached(path, catalog)
    assert parses == [0.0] and len(second) == 0
    assert_same_table(second, first)


# ---------------------------------------------------------------------------
# What invalidates an entry


@pytest.fixture
def scores_file(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text(SCORES_CSV)
    return path


def test_a_same_size_rewrite_with_the_mtime_restored_is_a_miss(scores_file, parses):
    catalog = build_catalog()
    cached(scores_file, catalog, 0.1)
    before = os.stat(scores_file)
    time.sleep(0.05)  # past the file system's timestamp tick
    scores_file.write_text(SCORES_CSV.replace("s1,12,0.9", "s1,12,0.8"))
    os.utime(scores_file, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = os.stat(scores_file)
    assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
    assert after.st_ctime_ns != before.st_ctime_ns
    assert_same_table(cached(scores_file, catalog, 0.1), fresh(scores_file, catalog, 0.1))
    assert parses == [0.1, 0.1]
    assert cached(scores_file, catalog, 0.1).scores_for("s1")[12] == 0.8
    assert parses == [0.1, 0.1]


def test_a_different_catalog_is_a_miss(scores_file, private_cache_home, parses):
    small, larger = build_catalog(), LabelCatalog([*build_catalog(), LabelRecord(99, "tags", "x")])
    cached(scores_file, small)
    got = cached(scores_file, larger)
    assert parses == [0.0, 0.0] and got.known_labels == larger.ids()
    assert_same_table(got, fresh(scores_file, larger))
    assert len(entries(private_cache_home)) == 1  # one entry per file and floor
    assert_same_table(cached(scores_file, small), fresh(scores_file, small))
    assert parses == [0.0, 0.0, 0.0]


def test_a_different_floor_is_a_miss_with_its_own_entry(scores_file, private_cache_home, parses):
    catalog = build_catalog()
    cached(scores_file, catalog, 0.1)
    assert_same_table(cached(scores_file, catalog, 0.0), fresh(scores_file, catalog, 0.0))
    assert_same_table(cached(scores_file, catalog, 0.1), fresh(scores_file, catalog, 0.1))
    assert parses == [0.1, 0.0] and len(entries(private_cache_home)) == 2


def test_a_changed_code_identity_is_a_miss(scores_file, parses, monkeypatch):
    catalog = build_catalog()
    cached(scores_file, catalog)
    code = scorecache._code_identity()
    monkeypatch.setattr(scorecache, "_code_identity", lambda: code ^ 1)
    assert_same_table(cached(scores_file, catalog), fresh(scores_file, catalog))
    assert parses == [0.0, 0.0]


def test_the_code_identity_covers_the_parse_code():
    sources = {module.__name__ for module in scorecache._SOURCES}
    assert {"labelkit.metrics", "labelkit.csvio", "labelkit.scorecache"} <= sources


def test_a_file_changed_within_the_window_gets_no_entry(scores_file, private_cache_home):
    catalog = build_catalog()
    assert_same_table(cached(scores_file, catalog), fresh(scores_file, catalog))
    assert entries(private_cache_home) == []


def test_a_stream_that_is_not_its_named_file_gets_no_entry(
    scores_file, tmp_path, private_cache_home, parses
):
    catalog = build_catalog()
    got = scorecache.parse_scores(io.StringIO(SCORES_CSV), catalog)
    copy = tmp_path / "copy.csv"
    shutil.copy(scores_file, copy)
    with opened(copy) as handle:
        handle.buffer.raw.name = str(scores_file)  # as _read names a pipe's copy
        scorecache.parse_scores(handle, catalog)
    assert parses == [0.0, 0.0] and entries(private_cache_home) == []
    assert_same_table(got, fresh(scores_file, catalog))


# ---------------------------------------------------------------------------
# Damaged entries


def head_offset(entry, n_labels):
    """Where the table's head (three 8-byte counts) starts in ``entry``."""
    return entry.read_bytes().index(b"\n") + 1 + 8 * n_labels


def damage(entry, how, n_labels):
    data = bytearray(entry.read_bytes())
    if how == "truncated":
        entry.write_bytes(data[: len(data) // 2])
    elif how == "flipped":
        data[len(data) // 2] ^= 0x40
        entry.write_bytes(data)
    elif how == "garbage-header":
        end = data.index(b"\n")
        entry.write_bytes(b"x" * end + data[end:])
    elif how == "wrong-typecode":
        at = head_offset(entry, n_labels) + 2 * 8
        assert data[at] == ord("H")
        data[at] = ord("I")
        entry.write_bytes(data)
    elif how == "empty":
        entry.write_bytes(b"")
    elif how == "directory":
        entry.unlink()
        entry.mkdir()


DAMAGE = ["truncated", "flipped", "garbage-header", "wrong-typecode", "empty", "directory"]


@pytest.mark.parametrize("how", DAMAGE)
def test_a_damaged_entry_is_ignored_and_rewritten(scores_file, private_cache_home, parses, how):
    catalog = build_catalog()
    expected = fresh(scores_file, catalog, 0.1)
    cached(scores_file, catalog, 0.1)
    entry = the_entry(private_cache_home)
    damage(entry, how, len(catalog))
    assert_same_table(cached(scores_file, catalog, 0.1), expected)
    assert parses == [0.1, 0.1] and entry.is_file()
    assert_same_table(cached(scores_file, catalog, 0.1), expected)
    assert parses == [0.1, 0.1]


def test_every_changed_byte_of_an_entry_is_a_miss(scores_file, private_cache_home, parses):
    catalog = build_catalog()
    expected = fresh(scores_file, catalog, 0.1)
    cached(scores_file, catalog, 0.1)
    entry = the_entry(private_cache_home)
    good = entry.read_bytes()
    for at in range(len(good)):
        bad = bytearray(good)
        bad[at] ^= 0x24
        entry.write_bytes(bad)
        assert_same_table(cached(scores_file, catalog, 0.1), expected)
        assert len(parses) == at + 2, at
        assert entry.read_bytes() == good


def test_restore_checks_each_column(scores_file, private_cache_home, parses):
    """An entry whose CRC-32 matches but whose table breaks a rule: each is
    refused by the restore's own checks."""
    catalog = build_catalog()
    scores = fresh(scores_file, catalog, 0.1)

    def restored(**columns):
        table = metrics.ScoreSet._trusted(
            columns.get("index", dict(scores._index)), scores.known_labels, scores._ids,
            columns.get("offsets", scores._offsets), columns.get("positions", scores._positions),
            columns.get("scores", scores._scores), 0.1,
        )
        out = io.BytesIO()
        table._dump(out)
        size = out.tell()
        out.seek(0)
        return metrics.ScoreSet._restore(out, size, scores._ids, scores.known_labels, 0.1)

    assert_same_table(restored(), scores)
    offsets = scores._offsets
    for bad in (array("I", [1, *offsets[1:]]), array("I", [*offsets[:-1], offsets[-1] - 1]),
                array("I", [0, offsets[-1], *offsets[2:]])):
        with pytest.raises(ValueError, match="offsets"):
            restored(offsets=bad)
    positions = scores._positions[:]
    positions[0] = len(scores._ids)
    with pytest.raises(ValueError, match="out of range"):
        restored(positions=positions)
    for bad in (float("nan"), 0.05, 1.5):
        values = scores._scores[:]
        values[0] = bad
        with pytest.raises(ValueError, match="out of range"):
            restored(scores=values)
    # The last two samples' ids made one (the text's last byte), the CRC-32 redone.
    # The text ends where the offsets begin.
    index = {**{sid: k for sid, k in scores._index.items() if k < len(scores) - 2},
             "x": len(scores) - 2, "y": len(scores) - 1}
    out = io.BytesIO()
    restored_from = metrics.ScoreSet._trusted(
        index, scores.known_labels, scores._ids, scores._offsets, scores._positions,
        scores._scores, 0.1,
    )
    restored_from._dump(out)
    data = bytearray(out.getvalue())
    end = len(data) - 4 - 4 * (len(scores) + 1) - 10 * len(scores._scores)
    assert data[end - 1:end] == b"y"
    data[end - 1:end] = b"x"
    data[-4:] = zlib.crc32(data[:-4]).to_bytes(4, "little")
    with pytest.raises(ValueError, match="repeated"):
        metrics.ScoreSet._restore(io.BytesIO(data), len(data), scores._ids, scores.known_labels, 0.1)
    for size in (len(data) - 1, len(data) + 1):  # the text one byte short or long
        with pytest.raises(ValueError, match="id lengths"):
            metrics.ScoreSet._restore(io.BytesIO(data), size, scores._ids, scores.known_labels, 0.1)
    with pytest.raises(ValueError, match="length"):  # too small for the columns it names
        metrics.ScoreSet._restore(io.BytesIO(data), len(data) - 200, scores._ids,
                                  scores.known_labels, 0.1)


# ---------------------------------------------------------------------------
# Where entries live


def test_the_cache_directory_is_private_and_bounded(tmp_path, private_cache_home, parses,
                                                    monkeypatch):
    monkeypatch.setattr(scorecache, "_MAX_ENTRIES", 2)
    catalog = build_catalog()
    paths = []
    for name in "abc":
        path = tmp_path / f"{name}.csv"
        path.write_text(SCORES_CSV)
        paths.append(path)
    a, b, c = paths
    cached(a, catalog)
    cached(b, catalog)
    directory = private_cache_home / "labelkit"
    assert stat.S_IMODE(directory.stat().st_mode) == 0o700
    assert all(stat.S_IMODE(p.stat().st_mode) == 0o600 for p in directory.iterdir())
    key = {os.stat(p).st_ino: p for p in paths}
    by_file = {key[int(p.name.split("-")[1], 16)]: p for p in directory.iterdir()}
    now = time.time()
    os.utime(by_file[a], (now - 100, now - 100))
    os.utime(by_file[b], (now - 50, now - 50))
    cached(a, catalog)  # a hit refreshes a
    assert parses == [0.0, 0.0]
    cached(c, catalog)  # b is now the least recently used
    assert sorted(p.name for p in directory.iterdir()) == sorted(
        [by_file[a].name, the_name_of(c)]
    )


def the_name_of(path):
    found = os.stat(path)
    return f"{found.st_dev:x}-{found.st_ino:x}-{(0.0).hex()}"


def test_an_unset_or_relative_cache_home_means_dot_cache(monkeypatch):
    home = os.path.join(os.path.expanduser("~"), ".cache", "labelkit")
    for value in (None, "", "relative/dir"):
        if value is None:
            monkeypatch.delenv("XDG_CACHE_HOME")
        else:
            monkeypatch.setenv("XDG_CACHE_HOME", value)
        assert scorecache._directory() == home
    monkeypatch.setenv("XDG_CACHE_HOME", "/somewhere")
    assert scorecache._directory() == "/somewhere/labelkit"


# ---------------------------------------------------------------------------
# The commands: same bytes with the cache cold, warm, damaged or unusable


@pytest.fixture
def corpus(tmp_path):
    files = {"labels": labels_csv(), "annotations": annotations_csv(), "scores": SCORES_CSV,
             "plan": make_plan_json(), "edges": EDGES_TXT}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    return tmp_path


COMMANDS = {
    "eval": [],
    "eval-or": ["--plan", "plan"],
    "eval-excl": ["--plan", "plan"],
    "eval-graph": ["--plan", "plan", "--graph-edges", "edges"],
    "sweep": ["--plan", "plan", "--graph-edges", "edges", "--thresholds", "0.05,0.1,0.3"],
}


def run(corpus, capsys, command, scores="scores"):
    """Exit status, stdout, stderr and every output file's bytes of one run."""
    out = corpus / "out"
    shutil.rmtree(out, ignore_errors=True)
    if command != "sweep":
        out.mkdir()
    target = out if command == "sweep" else out / "report.json"
    argv = [command, "--labels", "labels", "--annotations", "annotations", "--scores", scores,
            *COMMANDS[command], "--out", str(target)]
    cwd = os.getcwd()
    os.chdir(corpus)
    try:
        status = main(argv)
    finally:
        os.chdir(cwd)
    printed = capsys.readouterr()
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else {}
    return status, printed.out, printed.err, files


@pytest.mark.parametrize("command", COMMANDS)
def test_a_command_writes_the_same_bytes_cold_warm_and_damaged(
    corpus, capsys, private_cache_home, parses, command
):
    cold = run(corpus, capsys, command)
    assert cold[0] == 0 and cold[3] and parses
    entry = the_entry(private_cache_home)
    assert run(corpus, capsys, command) == cold
    assert len(parses) == 1
    n_labels = len(build_catalog())
    for how in DAMAGE:
        damage(entry, how, n_labels)
        assert run(corpus, capsys, command) == cold, how
        assert entry.is_file()
    assert len(parses) == 1 + len(DAMAGE)


@pytest.mark.parametrize("unusable", ["file", "read-only"])
@pytest.mark.parametrize("command", ["eval", "sweep"])
def test_an_unusable_cache_home_changes_nothing(
    corpus, capsys, tmp_path, parses, monkeypatch, unusable, command
):
    expected = run(corpus, capsys, command)
    home = tmp_path / "home"
    if unusable == "file":
        home.write_text("not a directory")
    else:
        home.mkdir(mode=0o500)
    monkeypatch.setenv("XDG_CACHE_HOME", str(home))
    assert run(corpus, capsys, command) == expected
    assert run(corpus, capsys, command) == expected


def test_a_failing_score_file_gives_its_error_and_no_entry(corpus, capsys, private_cache_home,
                                                          parses):
    (corpus / "scores").write_text(SCORES_CSV + "s9,12,1.5\n")
    status, out, err, files = run(corpus, capsys, "eval")
    assert (status, out, files) == (2, "", {})
    assert err == '{"error": "scores:24: score 1.5 outside [0, 1]"}\n'
    assert entries(private_cache_home) == []
    assert run(corpus, capsys, "eval") == (status, out, err, files)
    assert len(parses) == 2


def test_a_scores_pipe_writes_no_entry(corpus, capsys, private_cache_home, parses):
    expected = run(corpus, capsys, "eval")
    shutil.rmtree(private_cache_home / "labelkit")
    fifo = corpus / "scores.fifo"
    os.mkfifo(fifo)
    feeder = threading.Thread(target=lambda: fifo.write_text(SCORES_CSV), daemon=True)
    feeder.start()
    status, out, err, files = run(corpus, capsys, "eval", scores="scores.fifo")
    feeder.join(timeout=10)
    assert not feeder.is_alive()
    assert (status, out, err) == expected[:3]
    assert entries(private_cache_home) == []


def test_a_catalog_id_past_64_bits_gets_no_entry(tmp_path, private_cache_home, parses):
    catalog = LabelCatalog([*build_catalog(), LabelRecord(2**70, "tags", "huge")])
    path = tmp_path / "scores.csv"
    path.write_text(SCORES_CSV + f"s8,{2**70},0.5\n")
    expected = fresh(path, catalog)
    for _ in range(2):
        assert_same_table(cached(path, catalog), expected)
    assert parses == [0.0, 0.0] and entries(private_cache_home) == []
