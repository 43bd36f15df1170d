"""Deterministic JSON report emission.

Reports are reproducibility artifacts: same inputs and config give byte
identical files. That rules out timestamps, machine names, and dict-order
dependence, and it shapes two conventions used everywhere: undefined values
(NaN) serialize as null, and unbounded values serialize as the string
"infinite" because JSON has no infinity literal.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from pathlib import Path
from typing import Mapping


def file_digest(path: str | os.PathLike) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
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
    "infinite"/"-infinite", sets sorted, tuples listed, keys stringified."""
    if isinstance(value, float):
        if math.isnan(value):
            return None
        if math.isinf(value):
            return "infinite" if value > 0 else "-infinite"
        return value
    if isinstance(value, dict):
        return {str(k): sanitize(v) for k, v in value.items()}
    if isinstance(value, (set, frozenset)):
        return [sanitize(v) for v in sorted(value)]
    if isinstance(value, (list, tuple)):
        return [sanitize(v) for v in value]
    return value


def render_json(doc) -> str:
    return json.dumps(sanitize(doc), sort_keys=True, indent=2, ensure_ascii=False, allow_nan=False) + "\n"


def write_json(doc, path: str | os.PathLike) -> None:
    """Serialize first, then atomically replace the target, so a failure at
    any point leaves either the old file or the new one, never a torn mix."""
    text = render_json(doc)
    write_text(text, path)


def write_text(text: str, path: str | os.PathLike) -> None:
    """Atomically and durably replace ``path`` with ``text`` (UTF-8).

    The temporary file is synced before the rename, so the rename never
    exposes a file whose bytes are not yet on disk, and the directory is
    synced after it, so the rename itself survives a crash.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=target.parent, prefix=f".{target.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
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
