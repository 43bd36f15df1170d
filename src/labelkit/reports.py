"""Deterministic JSON report emission.

Reports are reproducibility artifacts: same inputs and config give byte
identical files. That rules out timestamps, machine names, and dict-order
dependence, and it shapes two conventions used everywhere: undefined values
(NaN) serialize as null, and unbounded values serialize as the string
"infinite" because JSON has no infinity literal.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from itertools import chain
from operator import is_
from pathlib import Path
from typing import Iterable, Mapping


def file_digest(path: str | os.PathLike) -> str:
    """The SHA-256 of the file at ``path``, read 64 KiB at a time into one
    reused buffer. hashlib loads OpenSSL, a few MB, so it is imported only
    when a command digests its inputs, after its parsed inputs are freed."""
    import hashlib

    digest = hashlib.sha256()
    buffer = memoryview(bytearray(1 << 16))
    with open(path, "rb", buffering=0) as handle:
        while size := handle.readinto(buffer):
            digest.update(buffer[:size])
    return f"sha256:{digest.hexdigest()}"


def provenance(inputs: Mapping[str, tuple[str, str]], config: Mapping) -> dict:
    """Provenance block tying a report to its exact inputs.

    ``inputs`` maps each input's name to the path it was given as and the
    file holding the bytes that were read (the path itself, or the copy of a
    pipe), which is the file digested. ``config`` must hold only
    result-affecting knobs; performance knobs like thread counts stay out so
    reruns at different parallelism produce the same bytes.
    """
    from . import __version__

    return {
        "tool": "labelkit",
        "tool_version": __version__,
        "inputs": {
            name: {"path": str(path), "sha256": file_digest(source)}
            for name, (path, source) in sorted(inputs.items())
        },
        "config": sanitize(dict(config)),
    }


def sanitize(value):
    """Make a value JSON-safe and deterministic: NaN to None, infinities to
    "infinite"/"-infinite", sets sorted, tuples listed, keys stringified.

    A dict or list that needs none of this is returned as it is, not
    copied, so a report is not held twice while it is written."""
    if isinstance(value, float):
        if math.isnan(value):
            return None
        if math.isinf(value):
            return "infinite" if value > 0 else "-infinite"
        return value
    if isinstance(value, dict):
        clean = {str(k): sanitize(v) for k, v in value.items()}
        same = len(clean) == len(value) and all(
            map(is_, chain(clean, clean.values()), chain(value, value.values()))
        )
        return value if same else clean
    if isinstance(value, (set, frozenset)):
        return [sanitize(v) for v in sorted(value)]
    if isinstance(value, (list, tuple)):
        clean = [sanitize(v) for v in value]
        return value if isinstance(value, list) and all(map(is_, clean, value)) else clean
    return value


_JSON_SETTINGS = {"sort_keys": True, "indent": 2, "ensure_ascii": False, "allow_nan": False}


def render_json(doc) -> str:
    return json.dumps(sanitize(doc), **_JSON_SETTINGS) + "\n"


def write_json(doc, path: str | os.PathLike) -> None:
    """Atomically and durably replace ``path`` with :func:`render_json`'s
    text for ``doc``, written chunk by chunk as it is encoded, so the whole
    text is never held. A value the encoder rejects fails the write part way
    and leaves the old file."""
    chunks = json.JSONEncoder(**_JSON_SETTINGS).iterencode(sanitize(doc))
    _atomic_write(chain(chunks, ("\n",)), path)


def write_text(text: str, path: str | os.PathLike) -> None:
    """Atomically and durably replace ``path`` with ``text`` (UTF-8)."""
    _atomic_write((text,), path)


def _atomic_write(pieces: Iterable[str], path: str | os.PathLike) -> None:
    """Replace ``path`` with ``pieces`` written one after another (UTF-8).

    They are written to a temporary file in the target's directory. The file
    is synced before the rename, so the rename never exposes a file whose
    bytes are not yet on disk, and the directory is synced after it, so the
    rename itself survives a crash. If producing a piece raises, the
    temporary file is removed and the target keeps its old bytes.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=target.parent, prefix=f".{target.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(pieces)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    dir_fd = os.open(target.parent, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)
