"""An on-disk cache of parsed score sets, so that commands reading the same
score file parse it once.

The CLI reads ``--scores`` through :func:`parse_scores`, which takes what
:func:`metrics.parse_scores` takes and returns the same table. A score file
that a cached parse read is answered by restoring that table instead.
Nothing else reads the cache: the library's own ``parse_scores`` never
does, and reports and provenance do not depend on it.

An entry belongs to one regular file, read at one floor, and is kept in
``$XDG_CACHE_HOME/labelkit`` (``~/.cache/labelkit`` when that is unset),
one entry per (device, inode, floor). Its first line is its key: the file's
device, inode, size, mtime and ctime, the floor, the catalog's size, and a
CRC-32 of the parse code and the interpreter running it; the catalog's
ascending ids follow, then the table (:meth:`ScoreSet._dump`). An entry is
read only when all of that matches, the CPython ``.pyc`` rule (PEP 3147) of
trusting what was derived from a file while the file's stat fields match,
and only when the table passes :meth:`ScoreSet._restore`'s checks. Any
other entry, and any error from the cache's files, is a miss: the file is
parsed again.

An entry is written only for a parse that succeeded on a file that stayed
unchanged during the parse and whose mtime and ctime were at least
``_RACY_NS`` older than its start. A file changed within a timestamp's
tick of being read could change again without its stat fields changing;
git calls such a file "racily clean". A write goes to a temporary file in
the cache directory, moved over the entry; past ``_MAX_ENTRIES`` entries,
the least recently used go. Entries hold numbers and text only, never a
pickle.
"""

from __future__ import annotations

import os
import stat
import sys
import time
import zlib
from array import array
from typing import IO

from . import catalog as _catalog, csvio, metrics

_FORMAT = 1  # of an entry's layout
_RACY_NS = 2_000_000_000  # how long a file must have been unchanged for an entry
_MAX_ENTRIES = 16
# The code an entry was written by, which _code_identity reads.
_SOURCES = (metrics, csvio, _catalog, sys.modules[__name__])


def parse_scores(
    stream: IO[str], catalog: _catalog.LabelCatalog, at_least: float = 0.0
) -> metrics.ScoreSet:
    """:func:`metrics.parse_scores` of ``stream``, restored from its cache
    entry when that is valid, and written there when it may be."""
    entry = _Entry.of(stream, catalog, at_least)
    scores = entry.load() if entry else None
    if scores is None:
        started = time.time_ns()
        scores = metrics.parse_scores(stream, catalog, at_least)
        if entry:
            entry.store(scores, started)
    return scores


class _Entry:
    """The cache entry of one score file at one floor. The catalog's ids
    are listed only while an entry is read or written, so a parse does not
    hold a second list of them."""

    def __init__(self, stream, catalog, at_least: float, stamp: os.stat_result) -> None:
        self.stream, self.catalog, self.floor, self.stamp = stream, catalog, at_least, stamp
        self.header = (
            f"labelkit score cache {_FORMAT} {_code_identity():08x} {_fields(stamp)} "
            f"{float(at_least).hex()} {len(catalog)}\n"
        ).encode()
        self.path = os.path.join(
            _directory(), f"{stamp.st_dev:x}-{stamp.st_ino:x}-{float(at_least).hex()}"
        )

    @classmethod
    def of(cls, stream, catalog, at_least: float) -> _Entry | None:
        """The entry of the file ``stream`` reads, or None when it has none:
        the stream is not a regular file opened by its name (such as the
        temporary copy the CLI makes of a pipe), or the parse code cannot be
        read."""
        try:
            stamp = os.fstat(stream.fileno())
            if not stat.S_ISREG(stamp.st_mode) or not os.path.samestat(
                stamp, os.stat(stream.name)
            ):
                return None
            return cls(stream, catalog, at_least, stamp)
        except (OSError, ValueError, AttributeError):
            return None

    def load(self) -> metrics.ScoreSet | None:
        """The score set the entry holds, or None on any mismatch or error."""
        ids = [record.id for record in self.catalog]
        try:
            with open(self.path, "rb") as entry:
                if entry.read(len(self.header)) != self.header:
                    return None
                stored = array("q")
                stored.fromfile(entry, len(ids))
                if stored != array("q", ids):  # OverflowError for an id past 64 bits
                    return None
                size = os.fstat(entry.fileno()).st_size - entry.tell()
                scores = metrics.ScoreSet._restore(
                    entry, size, ids, self.catalog.ids(), self.floor
                )
        except (OSError, EOFError, ValueError, OverflowError):
            return None
        try:
            os.utime(self.path)  # the most recently used entry
        except OSError:
            pass
        return scores

    def store(self, scores: metrics.ScoreSet, started: int) -> None:
        """Write the entry of ``scores``, parsed from the stream from
        ``started`` (ns since the epoch) on, if the file was unchanged for
        ``_RACY_NS`` before that and is unchanged since; then remove the
        least recently used entries past ``_MAX_ENTRIES``."""
        if max(self.stamp.st_mtime_ns, self.stamp.st_ctime_ns) > started - _RACY_NS:
            return
        try:
            if _fields(os.fstat(self.stream.fileno())) != _fields(self.stamp):
                return
            directory = os.path.dirname(self.path)
            os.makedirs(directory, mode=0o700, exist_ok=True)
            temp = f"{self.path}.{os.getpid()}.tmp"
            fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
            try:
                with open(fd, "wb") as out:
                    out.write(self.header)
                    out.write(array("q", [record.id for record in self.catalog]))
                    scores._dump(out)
                try:
                    os.replace(temp, self.path)
                except IsADirectoryError:  # one in the entry's place goes if empty
                    os.rmdir(self.path)
                    os.replace(temp, self.path)
            except BaseException:
                try:
                    os.unlink(temp)
                except OSError:
                    pass
                raise
            with os.scandir(directory) as found:
                entries = sorted(found, key=lambda e: e.stat(follow_symlinks=False).st_mtime_ns)
            for stale in entries[:-_MAX_ENTRIES]:
                try:
                    os.unlink(stale.path)
                except OSError:  # a directory, or gone already
                    pass
        except (OSError, OverflowError):
            pass


def _fields(stamp: os.stat_result) -> str:
    """The stat fields an entry is valid for."""
    return (
        f"{stamp.st_dev} {stamp.st_ino} {stamp.st_size} {stamp.st_mtime_ns} {stamp.st_ctime_ns}"
    )


def _code_identity() -> int:
    """A CRC-32 of the source of the parse, the score set, the catalog and
    this module, and of the interpreter's version and byte order: an entry
    written by other code is never read."""
    crc = zlib.crc32(f"{sys.version} {sys.byteorder}".encode())
    for module in _SOURCES:
        with open(module.__file__, "rb") as source:
            crc = zlib.crc32(source.read(), crc)
    return crc


def _directory() -> str:
    """``$XDG_CACHE_HOME/labelkit``, or ``~/.cache/labelkit`` when that is
    unset, empty or relative, as the XDG base directory spec says."""
    home = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(home):
        home = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(home, "labelkit")
