"""CSV reading and writing shared by every file format labelkit handles:
every header-bearing input is read through :class:`CsvTable`, and
``csv.Error`` is caught nowhere else. :func:`plain_blocks` reads the columns
of a plain file faster, and gives up on any other."""

from __future__ import annotations

import csv
from contextlib import contextmanager
from operator import itemgetter
from types import SimpleNamespace
from typing import IO, Callable, Iterator, Sequence

from .errors import ParseError

BLOCK_SIZE = 1 << 15  # characters per block of plain_blocks
_NOT_STRUCTURE = bytes(set(range(256)) - set(b',\n"\r\0'))


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


def plain_blocks(stream: IO[str], columns: Sequence[str]) -> Iterator[tuple[list[str], ...]]:
    """The cells of ``columns`` in a header-bearing CSV file, one list per
    column for each block of whole lines: :data:`BLOCK_SIZE` characters and
    the rest of the last line. Columns are found by :class:`CsvTable`'s
    header rule (a repeated name maps to its last column).

    A block is split with ``str.split``, which gives the cells ``csv.reader``
    gives only when the block is plain: no ``"``, CR or NUL, exactly one
    comma fewer than the header's cells on every line (so no blank line),
    and no line longer than ``csv.field_size_limit()``. A header or block
    that is not plain, or a header without every column (an empty file has
    none), raises ``ValueError``; the caller then reads the file with
    :class:`CsvTable`, which reads any CSV and names the line of an error."""
    limit = csv.field_size_limit()
    header = stream.readline()
    names = header[:-1].split(",")
    position = {name: i for i, name in enumerate(names)}
    width = len(names)
    shape = b"," * (width - 1) + b"\n"
    if _structure(header) != shape or len(header) > limit or not position.keys() >= set(columns):
        raise ValueError("not a plain header with every column")
    picks = [position[name] for name in columns]
    while text := stream.read(BLOCK_SIZE):
        if text[-1] != "\n":
            text += stream.readline()
            if text[-1] != "\n":  # the last line of a file that lacks a final newline
                text += "\n"
        if _structure(text) != shape * text.count("\n"):
            raise ValueError("not plain CSV")
        if len(text) > limit and max(map(len, text.split("\n"))) > limit:
            raise ValueError("a line longer than the field size limit")
        cells = text.replace("\n", ",").split(",")
        cells.pop()  # after the last line's end
        yield tuple(cells[pick::width] for pick in picks)


def _structure(text: str) -> bytes:
    """The commas, line ends, quotes, CRs and NULs of ``text``, in order: UTF-8
    puts no ASCII byte inside a multi-byte character, so the bytes left when
    every other one is deleted are those characters. A plain line leaves its
    commas and its line end, and nothing else."""
    return text.encode().translate(None, _NOT_STRUCTURE)


def csv_writer(stream: IO[str]):
    """A ``csv.writer`` that ends rows with "\\n" and quotes every cell holding
    "\\r" or "\\n" (RFC 4180 §2.6), so its files read back unchanged. The csv
    module quotes the characters of its line terminator, so rows are formatted
    with "\\r\\n" and written with "\\n"; no other byte differs."""
    lf_stream = SimpleNamespace(write=lambda row: stream.write(row[:-2] + "\n"))
    return csv.writer(lf_stream, lineterminator="\r\n")
