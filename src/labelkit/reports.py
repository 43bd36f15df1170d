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
import stat
import tempfile
from itertools import chain
from operator import is_
from pathlib import Path
from typing import IO, Callable, Mapping


# Files smaller than this are hashed by CPython's builtin SHA-256, larger ones
# by OpenSSL's through hashlib. Loading OpenSSL costs about 3 MB of RSS and
# 3 ms; the builtin hashes at about 4 ms a MB against OpenSSL's 1, so below
# this size it costs at most about 23 ms more, and above it OpenSSL's speed
# pays for its load.
_BUILTIN_SHA256_BELOW = 8 << 20


def file_digest(path: str | os.PathLike) -> str:
    """The SHA-256 of the file at ``path``, read 64 KiB at a time into one
    reused buffer. A file under 8 MiB (``_BUILTIN_SHA256_BELOW``) is hashed
    by CPython's builtin module (``_sha2`` from 3.12, ``_sha256`` before),
    so a command whose inputs are all small never loads OpenSSL; a larger
    file, or any file on a Python built without it, is hashed by hashlib.
    Both give the same digest. A command imports either only to digest an
    input: after its parsed inputs are freed, or just before an output
    replaces that input."""
    with open(path, "rb", buffering=0) as handle:
        if os.fstat(handle.fileno()).st_size < _BUILTIN_SHA256_BELOW:
            try:
                from _sha2 import sha256
            except ImportError:
                try:
                    from _sha256 import sha256
                except ImportError:
                    from hashlib import sha256
        else:
            from hashlib import sha256
        digest = sha256()
        buffer = memoryview(bytearray(1 << 16))
        while size := handle.readinto(buffer):
            digest.update(buffer[:size])
    return f"sha256:{digest.hexdigest()}"


def provenance(inputs: Mapping[str, tuple[str, str]], config: Mapping) -> dict:
    """Provenance block tying a report to its exact inputs.

    ``inputs`` maps each input's name to the path it was given as and the
    :func:`file_digest` of the bytes that were read. ``config`` must hold only
    result-affecting knobs; performance knobs like thread counts stay out so
    reruns at different parallelism produce the same bytes.
    """
    from . import __version__

    return {
        "tool": "labelkit",
        "tool_version": __version__,
        "inputs": {
            name: {"path": str(path), "sha256": digest}
            for name, (path, digest) in sorted(inputs.items())
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


def dump_json(doc, stream: IO[str]) -> None:
    """Write :func:`render_json`'s text for ``doc`` to ``stream`` chunk by
    chunk as it is encoded, so the whole text is never held."""
    stream.writelines(json.JSONEncoder(**_JSON_SETTINGS).iterencode(sanitize(doc)))
    stream.write("\n")


# For callers holding a whole text; the CLI uses write_file.
def write_text(text: str, path: str | os.PathLike) -> None:
    write_file(path, lambda stream: stream.write(text))


def write_file(path: str | os.PathLike, write: Callable[..., object], *args) -> None:
    """Atomically and durably replace ``path`` with what ``write(*args,
    stream)`` writes to ``stream`` (UTF-8), as it writes it.

    The stream is a temporary file in the target's directory. It is synced
    before the rename, so the rename never exposes a file whose bytes are
    not yet on disk, and the directory is synced after it, so the rename
    itself survives a crash. If ``write`` raises, the temporary file is
    removed and the target keeps its old bytes. The file gets the mode
    ``open(path, "w")`` would leave, not the temporary file's 0o600.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=target.parent, prefix=f".{target.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            write(*args, handle)
            handle.flush()
            try:  # the target's own mode, or 0o666 less the umask
                mode = stat.S_IMODE(os.stat(target).st_mode)
            except FileNotFoundError:
                umask = os.umask(0)  # the one way to read it: set it, then put it back
                os.umask(umask)
                mode = 0o666 & ~umask
            os.fchmod(handle.fileno(), mode)
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
