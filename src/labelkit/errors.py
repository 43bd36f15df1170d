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


def undecodable(path: str) -> ParseError:
    """The error naming the first non-UTF-8 byte of ``path`` and its line. No
    UTF-8 sequence holds a newline byte, so each line decodes on its own."""
    with open(path, "rb") as handle:
        for line, raw in enumerate(handle, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                message = f"invalid UTF-8 byte 0x{raw[exc.start]:02x}"
                return ParseError(message, source=path, line=line)
    return ParseError("invalid UTF-8", source=path)


class PlanError(LabelKitError):
    """An invalid transformation plan."""


class EvalError(LabelKitError):
    """Inconsistent inputs to an evaluation operation."""
