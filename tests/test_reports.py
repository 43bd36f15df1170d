"""Atomic, durable report writes; reports streamed into their file."""

import gc
import hashlib
import importlib
import io
import json
import math
import os
import random
import stat
import sys
import tracemalloc
import types

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from labelkit import cli, reports
from labelkit.catalog import AnnotationSet, LabelCatalog, LabelRecord, write_annotations
from labelkit.metrics import fbeta_report


def assert_synced_then_renamed(write, target, data: bytes, monkeypatch) -> None:
    """``write()`` leaves ``data`` at ``target``, having synced the
    temporary file with all its bytes before the rename and the directory
    after it."""
    synced = []
    real_fsync = os.fsync

    def recording_fsync(fd):
        info = os.fstat(fd)
        synced.append((stat.S_ISDIR(info.st_mode), info.st_ino, info.st_size, target.exists()))
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    write()

    assert target.read_bytes() == data
    assert len(synced) == 2
    file_sync, dir_sync = synced
    # The temporary file is synced with all its bytes, before the rename.
    assert file_sync == (False, os.stat(target).st_ino, len(data), False)
    # Then the directory holding the renamed file.
    assert dir_sync[:2] == (True, os.stat(target.parent).st_ino)
    assert [p.name for p in target.parent.iterdir()] == [target.name]


def test_write_text_syncs_file_then_directory(tmp_path, monkeypatch):
    target = tmp_path / "out" / "report.json"
    text = "ünïcode\r\nline two\n"
    write = lambda: reports.write_text(text, target)  # noqa: E731
    assert_synced_then_renamed(write, target, text.encode("utf-8"), monkeypatch)


def test_write_json_syncs_file_then_directory(tmp_path, monkeypatch):
    target = tmp_path / "out" / "report.json"
    # Enough keys for the text to reach the file in several buffer flushes.
    doc = {"ünïcode": "ç", "rows": [{"k": i, "v": i / 7} for i in range(3000)]}
    write = lambda: reports.write_file(target, reports.dump_json, doc)  # noqa: E731
    assert_synced_then_renamed(write, target, reports.render_json(doc).encode("utf-8"), monkeypatch)


@pytest.fixture
def umask_022():
    old = os.umask(0o022)
    yield
    os.umask(old)


def mode(path) -> int:
    return stat.S_IMODE(os.stat(path).st_mode)


def test_a_new_file_gets_the_mode_the_umask_leaves(tmp_path, umask_022):
    # As open(path, "w") would: 0o666 less the umask, not the temporary
    # file's 0o600.
    target = tmp_path / "report.json"
    reports.write_file(target, reports.dump_json, {"a": 1})
    assert mode(target) == 0o644
    os.umask(0o027)
    reports.write_file(tmp_path / "other.json", reports.dump_json, {"a": 1})
    assert mode(tmp_path / "other.json") == 0o640


@pytest.mark.parametrize("old_mode", [0o644, 0o640, 0o600, 0o664])
def test_a_replaced_file_keeps_its_mode(tmp_path, umask_022, old_mode):
    target = tmp_path / "report.csv"
    target.write_text("old\n")
    os.chmod(target, old_mode)
    reports.write_text("new\n", target)
    assert target.read_text() == "new\n" and mode(target) == old_mode


# ---------------------------------------------------------------------------
# The streamed writer against the whole text.


def copying_sanitize(value):
    """The oracle: ``sanitize`` as it was when it copied every container."""
    if isinstance(value, float):
        if math.isnan(value):
            return None
        if math.isinf(value):
            return "infinite" if value > 0 else "-infinite"
        return value
    if isinstance(value, dict):
        return {str(k): copying_sanitize(v) for k, v in value.items()}
    if isinstance(value, (set, frozenset)):
        return [copying_sanitize(v) for v in sorted(value)]
    if isinstance(value, (list, tuple)):
        return [copying_sanitize(v) for v in value]
    return value


def oracle_text(doc) -> str:
    return json.dumps(
        copying_sanitize(doc), sort_keys=True, indent=2, ensure_ascii=False, allow_nan=False
    ) + "\n"


leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()  # NaN and both infinities included
    | st.text()  # non-ASCII included
    | st.frozensets(st.integers(), max_size=4)
    | st.sets(st.text(max_size=3), max_size=4)
)
keys = st.text(max_size=4) | st.integers(-3, 12) | st.sampled_from(["1", "01", "é", "10"])
docs = st.dictionaries(
    keys,
    st.recursive(
        leaves,
        lambda children: st.lists(children, max_size=4)
        | st.tuples(children, children)
        | st.dictionaries(keys, children, max_size=4),
        max_leaves=30,
    ),
    max_size=6,
)
LARGE_DOC = {
    **{i: [i, i / 3, float("nan"), (i, "ü")] for i in range(3000)},
    "inf": {"up": math.inf, "down": -math.inf, "set": {3, 1, 2}},
}


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=docs)
@example(doc=LARGE_DOC)
@example(doc={1: "int", "1": "str"})
def test_write_json_writes_the_text_of_the_whole_document(doc, tmp_path):
    before = repr(doc)
    expected = oracle_text(doc)
    assert reports.sanitize(doc) == copying_sanitize(doc)
    assert reports.render_json(doc) == expected
    target = tmp_path / "report.json"
    reports.write_file(target, reports.dump_json, doc)
    assert target.read_bytes() == expected.encode("utf-8")
    assert repr(doc) == before  # the document is not changed


def test_a_failed_json_write_keeps_the_old_file(tmp_path, monkeypatch):
    target = tmp_path / "report.json"
    target.write_bytes(b"old bytes\n")
    # The encoder meets the object after most of the text is written.
    doc = {**{f"k{i:05d}": i / 3 for i in range(20_000)}, "zzz": object()}
    left = []
    real_unlink = os.unlink

    def recording_unlink(path):
        left.append(os.path.getsize(path))
        real_unlink(path)

    monkeypatch.setattr(os, "unlink", recording_unlink)
    with pytest.raises(TypeError, match="not JSON serializable"):
        reports.write_file(target, reports.dump_json, doc)
    assert left and left[0] > 0  # the temporary file had been written to
    assert target.read_bytes() == b"old bytes\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


# ---------------------------------------------------------------------------
# Memory.


def traced_peak(func) -> int:
    """The most memory ``func()`` held at once beyond what was held before."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        func()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_write_json_holds_a_small_part_of_its_text(tmp_path):
    # Many per-class dicts of modest size: the encoder holds at once only the
    # sorted items of the dicts it is inside, so the peak is the file's write
    # buffer (up to 8192 characters of small chunk strings, about 80 KB here)
    # and a few hundred pairs, whatever the text's length.
    rng = random.Random(5)
    doc = {
        f"group{g:03d}": {
            f"class{c:02d}": {"precision": rng.random(), "recall": rng.random(), "support": rng.randrange(500)}
            for c in range(50)
        }
        for g in range(100)
    }
    text = reports.render_json(doc)
    target = tmp_path / "groups.json"
    peak = traced_peak(lambda: reports.write_file(target, reports.dump_json, doc))
    assert target.read_bytes() == text.encode("utf-8")
    assert peak < 0.25 * len(text)


def test_write_json_on_a_flat_report_holds_no_rendered_copy(tmp_path):
    ids = list(range(1000, 1000 + 3474))
    catalog = LabelCatalog(LabelRecord(i, "c", f"n{i}") for i in ids)
    rng = random.Random(7)
    truth, predictions = (
        AnnotationSet(((f"s{k}", frozenset(rng.sample(ids, 5))) for k in range(3000)), catalog.ids())
        for _ in range(2)
    )
    doc = fbeta_report(predictions, truth).as_dict()
    text = reports.render_json(doc)
    target = tmp_path / "eval.json"
    peak = traced_peak(lambda: reports.write_file(target, reports.dump_json, doc))
    assert target.read_bytes() == text.encode("utf-8")
    # Rendering the whole text first holds it and the list of its pieces,
    # about 14 times its length. Streamed, the peak is the file's write
    # buffer and the encoder's sorted list of the 3474 per-class items, about
    # 70 bytes each, which comes to about the text's length: one dict holds
    # most of this report.
    assert peak < 1.5 * len(text)


def test_a_benchmark_sized_annotation_csv_streams_into_its_file(tmp_path):
    # 20,000 samples of up to 9 of 3474 labels, the benchmark's train split,
    # about 800 KB of text, written through the CLI's one output path.
    ids = range(3474)
    rng = random.Random(11)
    annotations = AnnotationSet(
        ((f"{rng.getrandbits(64):016x}", frozenset(rng.sample(ids, rng.randint(1, 9))))
         for _ in range(20_000)),
        frozenset(ids),
    )
    buffer = io.StringIO()
    write_annotations(annotations, buffer)
    text = buffer.getvalue()
    target = tmp_path / "annotations.csv"
    peak = traced_peak(lambda: cli._output(cli.RunConfig(), target, write_annotations, annotations))
    assert target.read_bytes() == text.encode("utf-8")
    # Rendering the text first held about 3.4 times its length. Streamed, the
    # peak is the csv module's 128 KiB row buffer and the file's write
    # buffer, whatever the text's length.
    assert len(text) > 700_000
    assert peak < 256 << 10


def test_file_digest_reads_in_small_chunks(tmp_path):
    data = random.Random(3).randbytes(3 << 20)
    path = tmp_path / "scores.csv"
    path.write_bytes(data)
    digest = None

    def run():
        nonlocal digest
        digest = reports.file_digest(path)

    assert traced_peak(run) < 128 << 10
    assert digest == f"sha256:{hashlib.sha256(data).hexdigest()}"


CUT = 3 << 16  # stands in for the 8 MiB cut, so both sides are quick to hash
BUILTIN = "_sha2" if sys.version_info >= (3, 12) else "_sha256"  # CPython's SHA-256 module


@pytest.fixture
def sha256_used(monkeypatch):
    """The modules each ``file_digest`` call took ``sha256`` from, in call
    order: each is replaced by one whose ``sha256`` records its name and
    hands over to the real one."""
    used = []

    def recording(name, sha256):
        module = types.ModuleType(name)
        module.sha256 = lambda: used.append(name) or sha256()
        return module

    builtin = importlib.import_module(BUILTIN).sha256
    monkeypatch.setitem(sys.modules, BUILTIN, recording(BUILTIN, builtin))
    monkeypatch.setitem(sys.modules, "hashlib", recording("hashlib", hashlib.sha256))
    return used


@pytest.mark.parametrize(
    "size", [0, 1, (1 << 16) - 1, 1 << 16, (1 << 16) + 1, CUT - 1, CUT, CUT + 1]
)
def test_file_digest_matches_hashlib_on_both_sides_of_the_cut(
    tmp_path, monkeypatch, sha256_used, size
):
    monkeypatch.setattr(reports, "_BUILTIN_SHA256_BELOW", CUT)
    data = random.Random(size).randbytes(size)
    path = tmp_path / "input.csv"
    path.write_bytes(data)
    assert reports.file_digest(path) == f"sha256:{hashlib.sha256(data).hexdigest()}"
    assert sha256_used == [BUILTIN if size < CUT else "hashlib"]


def test_file_digest_falls_back_to_hashlib_without_the_builtin(
    tmp_path, monkeypatch, sha256_used
):
    monkeypatch.setitem(sys.modules, "_sha2", None)  # importing it now fails
    monkeypatch.setitem(sys.modules, "_sha256", None)
    data = b"id,attribute_id,score\ns1,12,0.5\n"
    path = tmp_path / "scores.csv"
    path.write_bytes(data)
    assert reports.file_digest(path) == f"sha256:{hashlib.sha256(data).hexdigest()}"
    assert sha256_used == ["hashlib"]
