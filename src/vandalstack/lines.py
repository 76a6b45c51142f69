"""The one line layer: every artifact file is read and written here.

A line ends only at LF (``\\n``); one CR (``\\r``) right before the LF is
dropped, so a CRLF file reads as its LF twin.  No other character ends a
line: ``\\v``, ``\\f``, ``\\x1c``–``\\x1e``, ``\\x85``, ``\\u2028`` and
``\\u2029`` are ordinary text.  Writers emit UTF-8 with a ``\\n`` after
every line.  A path that cannot be opened is a :class:`UsageError` naming
it, and bytes that are not UTF-8 are a :class:`MalformedLine` naming
their line.  Stdlib only.
"""

from __future__ import annotations

from itertools import islice
from pathlib import Path
from typing import IO, Iterable, Optional, Sequence, Union

from .errors import MalformedLine, UsageError

Source = Union[str, Path, IO[str], IO[bytes], Iterable[str]]
Target = Union[str, Path, IO[str]]

_CHUNK = 4096


def read_lines(source: Source, undecodable: Optional[set[int]] = None) -> list[str]:
    """The lines of ``source``, without their line ends.

    ``source`` is a path, a text or bytes handle, or an iterable of lines
    (each item one line, its LF optional).  A final line needs no LF, and
    an empty source has no lines.  Bytes that are not UTF-8 raise
    :class:`MalformedLine` naming their line; when ``undecodable`` is
    given, their 1-based line numbers are added to it instead, and each
    such line reads as the empty string.
    """
    data = _read(source)
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            if undecodable is None:
                raise MalformedLine(
                    "not valid UTF-8", data.count(b"\n", 0, exc.start) + 1
                ) from None
            data = "\n".join(_decode_each(data.split(b"\n"), undecodable))
    if "\r" in data:
        data = data.replace("\r\n", "\n")
    lines = data.split("\n")
    if lines[-1] == "":  # the last line's LF, or an empty source
        lines.pop()
    return lines


def decode_line(raw: bytes) -> str:
    """One line received as bytes: UTF-8, with its LF and one CR before it dropped."""
    try:
        line = raw.decode("utf-8")
    except UnicodeDecodeError:
        raise MalformedLine("not valid UTF-8") from None
    if line.endswith("\n"):
        line = line[:-2] if line.endswith("\r\n") else line[:-1]
    return line


def write_lines(target: Target, lines: Iterable[str]) -> None:
    """Write ``lines`` to a path or text handle, each followed by ``\\n``, as UTF-8."""
    if hasattr(target, "write"):
        _write_chunks(target, lines)
        return
    try:
        with open(target, "w", encoding="utf-8", newline="\n") as fh:
            _write_chunks(fh, lines)
    except OSError as exc:
        raise UsageError(f"cannot write {target}: {exc.strerror or exc}") from None


class LineReader:
    """Sequential reader over a block of lines, with tag dispatch and error positions.

    ``offset`` lines precede the block in its file, so ``line_no`` is the
    file line of the line read last.  A block that ends early is reported
    at ``end_line``: by default its own last line, as for a block embedded
    in a larger file.
    """

    def __init__(self, lines: Sequence[str], offset: int = 0, end_line: Optional[int] = None):
        self.lines = lines
        self.pos = 0
        self.offset = offset
        self.end_line = offset + len(lines) if end_line is None else end_line

    def next(self) -> str:
        if self.pos >= len(self.lines):
            raise MalformedLine("unexpected end of input", self.end_line)
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def expect(self, tag: str) -> str:
        """The rest of the next line, which must be ``tag`` and a space, or ``tag`` alone."""
        line = self.next()
        head, _, rest = line.partition(" ")
        if head != tag:
            raise MalformedLine(f"expected {tag!r}, got {line!r}", self.line_no)
        return rest

    def expect_int(self, tag: str, minimum: Optional[int] = None) -> int:
        rest = self.expect(tag)
        try:
            value = int(rest)
        except ValueError:
            value = None
        if value is None or (minimum is not None and value < minimum):
            raise MalformedLine(f"bad {tag!r} value {rest!r}", self.line_no)
        return value

    @property
    def line_no(self) -> int:
        return self.offset + self.pos


def _read(source: Source) -> Union[str, bytes]:
    if isinstance(source, (str, Path)):
        try:
            with open(source, "rb") as fh:
                return fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read {source}: {exc.strerror or exc}") from None
    if hasattr(source, "read"):
        return source.read()
    return "".join(line if line.endswith("\n") else line + "\n" for line in source)


def _write_chunks(fh: IO[str], lines: Iterable[str]) -> None:
    # a few thousand lines per write: never a second copy of a whole file's text
    it = iter(lines)
    while chunk := list(islice(it, _CHUNK)):
        fh.write("\n".join(chunk) + "\n")


def _decode_each(raws: list[bytes], undecodable: set[int]) -> list[str]:
    lines = []
    for line_no, raw in enumerate(raws, start=1):
        try:
            lines.append(raw.decode("utf-8"))
        except UnicodeDecodeError:
            undecodable.add(line_no)
            lines.append("")
    return lines
