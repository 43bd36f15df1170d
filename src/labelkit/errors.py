"""Exception types shared across labelkit modules."""

from __future__ import annotations


class LabelKitError(Exception):
    """Base class for errors raised by labelkit."""


class ParseError(LabelKitError):
    """A malformed input file. Carries file/line context when known."""

    def __init__(self, message: str, *, source: str | None = None, line: int | None = None):
        self.source = source
        self.line = line
        prefix = ""
        if source is not None:
            prefix = source
            if line is not None:
                prefix += f":{line}"
            prefix += ": "
        elif line is not None:
            prefix = f"line {line}: "
        super().__init__(prefix + message)


def undecodable(path: str, source: str) -> ParseError:
    """The error naming the input ``path``, its first non-UTF-8 byte and that
    byte's line, read from ``source``, the file holding the bytes that were
    parsed (``path`` itself, or the copy of a pipe). Lines are counted as the
    csv reader counts them: each ends at "\\n", "\\r\\n" or a bare "\\r". No
    UTF-8 sequence holds a line-end byte, so each line decodes on its own."""
    line = 1
    with open(source, "rb") as handle:
        for raw in handle:  # pieces that end at b"\n"
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                message = f"invalid UTF-8 byte 0x{raw[exc.start]:02x}"
                # Each "\r" before the bad byte is a bare one: a line end.
                line += raw.count(b"\r", 0, exc.start)
                return ParseError(message, source=path, line=line)
            line += raw.count(b"\r") + raw.endswith(b"\n") - raw.endswith(b"\r\n")
    return ParseError("invalid UTF-8", source=path)


class UnknownCategory(LabelKitError, ValueError):
    """A category the catalog does not hold; still a ``ValueError``."""


class PlanError(LabelKitError):
    """An invalid transformation plan."""


class EvalError(LabelKitError):
    """Inconsistent inputs to an evaluation operation."""


class SampleMismatch(EvalError):
    """Two inputs that must cover the same samples do not: scores without a
    row for a requested sample, or predictions and truth over different ids.
    The CLI names both files."""
