"""The one line layer: every artifact file is read and written here.

A line ends only at LF (``\\n``); one CR (``\\r``) right before the LF is
dropped, so a CRLF file reads as its LF twin.  No other character ends a
line: ``\\v``, ``\\f``, ``\\x1c``–``\\x1e``, ``\\x85``, ``\\u2028`` and
``\\u2029`` are ordinary text.  Writers emit UTF-8 with a ``\\n`` after
every line.  A path that cannot be opened is a :class:`UsageError` naming
it, and bytes that are not UTF-8 are a :class:`MalformedLine` naming
their line.  :class:`LineReceiver` reads the scoring protocol's lines
from a socket by the same rule, through one bounded buffer.
:func:`parse_int` is the one rule for an integer in a file.  Stdlib only.
"""

from __future__ import annotations

import contextlib
import os
import re
import socket
from itertools import islice
from pathlib import Path
from typing import IO, Iterable, Optional, Sequence, Union

from .errors import MalformedLine, UsageError

Source = Union[str, Path, IO[str], IO[bytes], Iterable[str]]
Target = Union[str, Path, IO[str]]

_CHUNK = 4096

# The longest protocol line, in bytes, its LF included.  The longest legal
# line is a REV line, whose corpus line is led by a 500-character edit
# summary (at most 2,000 bytes of UTF-8); 64 KiB is far above that and
# still bounds what a peer can make a reader hold.
MAX_PROTOCOL_LINE = 65536

_LINE = re.compile(rb"[^\n]*\n")


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


class LineReceiver:
    """The lines a stream socket delivers, read through one fixed buffer.

    Each :meth:`receive` makes one ``recv`` and returns every line it
    completes, LF included, for :func:`decode_line`.  It never waits for
    more: the part of a line not yet received stays in the buffer.  A line
    longer than :data:`MAX_PROTOCOL_LINE` bytes does not fit there, and
    raises :class:`MalformedLine` as soon as the buffer fills.
    """

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._buf = bytearray(MAX_PROTOCOL_LINE)
        self._view = memoryview(self._buf)
        self._held = 0  # bytes of an incomplete line at the start of the buffer

    def receive(self) -> Optional[list[bytes]]:
        """The lines completed by one ``recv``, possibly none; ``None`` at end of stream.

        At end of stream a last line without its LF is returned on its own.
        """
        n = self._sock.recv_into(self._view[self._held:])
        if n == 0:
            rest, self._held = bytes(self._view[: self._held]), 0
            return [rest] if rest else None
        end = self._held + n
        done = self._buf.rfind(b"\n", 0, end) + 1
        lines = _LINE.findall(self._buf, 0, done)
        self._held = end - done
        self._view[: self._held] = self._view[done:end]  # memmove: may overlap
        if self._held == len(self._buf):
            raise MalformedLine(f"protocol line longer than {MAX_PROTOCOL_LINE} bytes")
        return lines


def write_lines(target: Target, lines: Iterable[str]) -> None:
    """Write ``lines`` to a path or text handle, each followed by ``\\n``, as UTF-8.

    A path is replaced all or nothing: the lines go to a temporary file in
    the target's directory, which replaces the target only once every line
    is written.  If anything fails first (a refused value, a full disk, an
    interrupt), the temporary file is removed and the target keeps its old
    bytes.  A symbolic link is written through: the file it names is
    replaced, beside which the temporary file goes.  A path that exists
    but is no regular file, such as ``/dev/null``, is written in place.
    """
    if hasattr(target, "write"):
        _write_chunks(target, lines)
        return
    real = os.path.realpath(target)
    in_place = os.path.exists(real) and not os.path.isfile(real)
    head, tail = os.path.split(real)
    temp = real if in_place else os.path.join(head, f".{tail}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        fh = open(temp, "w" if in_place else "x", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise UsageError(f"cannot write {target}: {exc.strerror or exc}") from None
    try:
        with fh:
            _write_chunks(fh, lines)
        if not in_place:
            os.replace(temp, real)
    except BaseException as exc:
        if not in_place:
            with contextlib.suppress(OSError):
                os.unlink(temp)
        if isinstance(exc, OSError):
            raise UsageError(f"cannot write {target}: {exc.strerror or exc}") from None
        raise


def parse_int(text: str) -> Optional[int]:
    """``text`` as an integer: ASCII digits with an optional leading ``-`` and nothing else.

    Returns None for any other text, such as the ``+3``, ``1_0``, `` 3``
    and non-ASCII digits that ``int()`` takes, and for more digits than
    ``int()`` converts.
    """
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        return None
    try:
        return int(text)
    except ValueError:  # over 4,300 digits
        return None


def is_plain(text: str) -> bool:
    """Whether ``text`` is ASCII with no ``_`` and no whitespace.

    ``float()`` and ``Fraction()`` also take non-ASCII digits, ``_``
    between digits and whitespace around the number; no writer writes them.
    """
    return text.isascii() and "_" not in text and text.split() == [text]


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
        """The next line's integer (see :func:`parse_int`) after ``tag`` and a space."""
        rest = self.expect(tag)
        value = parse_int(rest)
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
