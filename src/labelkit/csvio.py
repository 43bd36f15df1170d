"""CSV reading and writing shared by every file format labelkit handles."""

from __future__ import annotations

import csv
from contextlib import contextmanager
from types import SimpleNamespace
from typing import IO, Iterator

from .errors import ParseError


@contextmanager
def csv_errors(reader, source: str) -> Iterator[None]:
    """Raise a ``csv.Error`` from ``reader`` (such as a cell longer than
    ``csv.field_size_limit()``) as a :class:`ParseError` naming
    ``source`` and the physical line it failed on. ``reader`` is a
    ``csv.reader``; pass a ``DictReader``'s ``.reader``, whose own
    ``line_num`` still names the last row it returned."""
    try:
        yield
    except csv.Error as exc:
        raise ParseError(str(exc), source=source, line=reader.line_num) from None


def csv_writer(stream: IO[str]):
    """A ``csv.writer`` that ends rows with "\\n" and quotes every cell holding
    "\\r" or "\\n" (RFC 4180 §2.6), so its files read back unchanged. The csv
    module quotes the characters of its line terminator, so rows are formatted
    with "\\r\\n" and written with "\\n"; no other byte differs."""
    lf_stream = SimpleNamespace(write=lambda row: stream.write(row[:-2] + "\n"))
    return csv.writer(lf_stream, lineterminator="\r\n")
