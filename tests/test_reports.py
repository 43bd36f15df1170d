"""Atomic, durable report writes; JSON reports streamed into their file."""

import gc
import hashlib
import json
import math
import os
import random
import stat
import tracemalloc

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from labelkit import reports
from labelkit.catalog import AnnotationSet, LabelCatalog, LabelRecord
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
    write = lambda: reports.write_json(doc, target)  # noqa: E731
    assert_synced_then_renamed(write, target, reports.render_json(doc).encode("utf-8"), monkeypatch)


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
    reports.write_json(doc, target)
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
        reports.write_json(doc, target)
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
    peak = traced_peak(lambda: reports.write_json(doc, target))
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
    peak = traced_peak(lambda: reports.write_json(doc, target))
    assert target.read_bytes() == text.encode("utf-8")
    # Rendering the whole text first holds it and the list of its pieces,
    # about 14 times its length. Streamed, the peak is the file's write
    # buffer and the encoder's sorted list of the 3474 per-class items, about
    # 70 bytes each, which comes to about the text's length: one dict holds
    # most of this report.
    assert peak < 1.5 * len(text)


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
