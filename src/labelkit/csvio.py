"""CSV reading and writing shared by every file format labelkit handles:
every header-bearing input is read through :class:`CsvTable`, and
``csv.Error`` is caught nowhere else."""

from __future__ import annotations

import csv
from contextlib import contextmanager
from operator import itemgetter
from types import SimpleNamespace
from typing import IO, Callable, Iterator, Sequence

from .errors import ParseError


@contextmanager
def csv_errors(source: str, line: Callable[[], int]) -> Iterator[None]:
    """Raise a ``csv.Error`` (such as a cell longer than
    ``csv.field_size_limit()``) as a :class:`ParseError` naming ``source``
    and ``line()``, the physical line it failed on."""
    try:
        yield
    except csv.Error as exc:
        raise ParseError(str(exc), source=source, line=line()) from None


class CsvTable:
    """The rows of a header-bearing CSV file, one tuple of named cells each.

    ``columns`` are looked up in the header row; a name the header repeats
    maps to its last column. Iterating skips blank rows and yields each row's
    cells for ``columns``, in that order, as one ``itemgetter`` tuple (a bare
    cell for a single column). A header without every column raises
    ``<source>: expected header with columns ...``; a row too short to hold
    the cells, or any ``csv.Error``, raises at its physical line.
    :attr:`line` and :meth:`error` put the same file:line on the caller's
    own checks and warnings.
    """

    def __init__(self, stream: IO[str], columns: Sequence[str], source: str):
        self.source = source
        self._reader = reader = csv.reader(stream)
        self._done = False
        with csv_errors(source, lambda: reader.line_num):
            position = {name: i for i, name in enumerate(next(reader, ()))}
        try:
            self._cells = itemgetter(*(position[name] for name in columns))
        except KeyError:
            raise ParseError(
                f"expected header with columns {', '.join(columns)}", source=source
            ) from None

    @property
    def line(self) -> int | None:
        """The physical line the last row yielded ends on; None once every
        row has been read, so a check on the whole file names no line."""
        return None if self._done else self._reader.line_num

    def error(self, message: str) -> ParseError:
        return ParseError(message, source=self.source, line=self.line)

    def __iter__(self) -> Iterator:
        with csv_errors(self.source, lambda: self._reader.line_num):
            try:
                yield from map(self._cells, filter(None, self._reader))
            except IndexError:
                raise self.error("wrong number of fields") from None
        self._done = True


def csv_writer(stream: IO[str]):
    """A ``csv.writer`` that ends rows with "\\n" and quotes every cell holding
    "\\r" or "\\n" (RFC 4180 §2.6), so its files read back unchanged. The csv
    module quotes the characters of its line terminator, so rows are formatted
    with "\\r\\n" and written with "\\n"; no other byte differs."""
    lf_stream = SimpleNamespace(write=lambda row: stream.write(row[:-2] + "\n"))
    return csv.writer(lf_stream, lineterminator="\r\n")
