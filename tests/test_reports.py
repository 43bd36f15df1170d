"""Atomic, durable report writes."""

import os
import stat

from labelkit import reports


def test_write_text_syncs_file_then_directory(tmp_path, monkeypatch):
    target = tmp_path / "out" / "report.json"
    text = "ünïcode\r\nline two\n"
    synced = []
    real_fsync = os.fsync

    def recording_fsync(fd):
        info = os.fstat(fd)
        synced.append((stat.S_ISDIR(info.st_mode), info.st_ino, info.st_size, target.exists()))
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    reports.write_text(text, target)

    assert target.read_bytes() == text.encode("utf-8")
    assert len(synced) == 2
    file_sync, dir_sync = synced
    # The temporary file is synced with all its bytes, before the rename.
    assert file_sync == (False, os.stat(target).st_ino, len(text.encode("utf-8")), False)
    # Then the directory holding the renamed file.
    assert dir_sync[:2] == (True, os.stat(target.parent).st_ino)
    assert [p.name for p in target.parent.iterdir()] == ["report.json"]
