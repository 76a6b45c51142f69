"""The one line layer: every artifact file is read and written here.

A line ends only at LF (``\\n``); one CR (``\\r``) right before the LF is
dropped, so a CRLF file reads as its LF twin.  No other character ends a
line: ``\\v``, ``\\f``, ``\\x1c``–``\\x1e``, ``\\x85``, ``\\u2028`` and
``\\u2029`` are ordinary text.  Writers emit UTF-8 with a ``\\n`` after
every line.  A path that cannot be opened is a :class:`UsageError` naming
it, and bytes that are not UTF-8 are a :class:`MalformedLine` naming
their line.  :func:`iter_lines` reads a file a fixed-size chunk at a
time and yields its lines as they come, and :class:`LineReader` lets a
loader take them from that one iterator, so no load holds its whole
file.  The writer writes a thousand lines at a time.
:class:`LineReceiver` reads the scoring protocol's lines from a socket by
the same rule, through one bounded buffer.  :func:`parse_int` is the one
rule for an integer in a file.  Stdlib only.
"""

from __future__ import annotations

import contextlib
import os
import re
import socket
import sys
from itertools import chain, islice
from pathlib import Path
from typing import IO, Iterable, Iterator, Optional, Union

from .errors import MalformedLine, UsageError

Source = Union[str, Path, IO[str], IO[bytes], Iterable[str]]
Target = Union[str, Path, IO[str]]

# lines a writer writes at once, and iter_lines joins from an iterable of lines
_CHUNK = 1024
# bytes (or characters, from a text handle) read at a time
_READ_BYTES = 1 << 16

# The longest protocol line, in bytes, its LF included.  The longest legal
# line is a REV line, whose corpus line is led by a 500-character edit
# summary (at most 2,000 bytes of UTF-8); 64 KiB is far above that and
# still bounds what a peer can make a reader hold.
MAX_PROTOCOL_LINE = 65536

_LINE = re.compile(rb"[^\n]*\n")


def iter_lines(source: Source, undecodable: Optional[set[int]] = None) -> Iterator[str]:
    """The lines of ``source``, without their line ends, as they are read.

    ``source`` is a path, a text or bytes handle, or an iterable of lines
    (each item one line, its LF optional).  A final line needs no LF, and
    an empty source has no lines.  A path or handle is read
    :data:`_READ_BYTES` at a time, and the lines each read completes are
    decoded and split together, so a reader holds one read's lines and
    never the whole file.  Bytes that are not UTF-8 raise
    :class:`MalformedLine` naming their line; when ``undecodable`` is
    given, their 1-based line numbers are added to it instead, before the
    line is yielded, and each such line reads as the empty string.
    """
    return chain.from_iterable(_blocks(source, undecodable))


def read_lines(source: Source, undecodable: Optional[set[int]] = None) -> list[str]:
    """Every line of ``source`` at once: :func:`iter_lines` as a list."""
    return list(iter_lines(source, undecodable))


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
    """Sequential reader over a block of lines, as they come, with tag dispatch and error positions.

    ``offset`` lines precede the block in its file, so ``line_no`` is the
    file line of the line read last.  A block that ends early is reported
    at its own last line, as for a block embedded in a larger file, or
    past it for a ``whole_file``.  Every line is read from one iterator,
    through ``islice``; a :meth:`section` reads on from the same one.
    """

    def __init__(self, lines: Iterable[str], offset: int = 0, whole_file: bool = False):
        self._lines = iter(lines)
        self.pos = 0
        self.offset = offset
        self.whole_file = whole_file
        # a section's block: its length, and the error when its file ends first
        self._count: Optional[int] = None
        self._cut: Optional[MalformedLine] = None

    def next(self) -> str:
        lines = self.take(1)
        if not lines:
            raise MalformedLine("unexpected end of input", self.line_no + 1 if self.whole_file else self.line_no)
        return lines[0]

    def take(self, count: int) -> list[str]:
        """The next ``count`` lines, or as many as are left; a section's ``cut`` if its file ends first."""
        lines = list(islice(self._lines, min(count, sys.maxsize)))
        self.pos += len(lines)
        if len(lines) < count and self._cut is not None and self.pos < self._count:
            raise self._cut
        return lines

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

    def expect_end(self, message: str) -> None:
        """No line left: one that is raises ``message``, named at that line."""
        if self.take(1):
            raise MalformedLine(message, self.line_no)

    def section(self, count: int, cut: MalformedLine) -> "LineReader":
        """The next ``count`` lines as a block of their own; ``cut`` if the file ends within them.

        This reader moves past them at once: read the block to its end
        before reading on here.
        """
        block = LineReader(islice(self._lines, min(count, sys.maxsize)), self.line_no)
        block._count, block._cut = count, cut
        self.pos += count
        return block

    def drain(self) -> None:
        """Read and drop the lines left; a section's ``cut`` if its file ends within them."""
        for _ in self:
            pass

    def __iter__(self) -> Iterator[str]:
        for line in self._lines:
            self.pos += 1
            yield line
        self.take(1)  # a section's cut, if its file ended within it

    @property
    def line_no(self) -> int:
        return self.offset + self.pos


def _blocks(source: Source, undecodable: Optional[set[int]]) -> Iterator[list[str]]:
    """The lines of ``source``, in one list per read that ends any."""
    if isinstance(source, (str, Path)):
        chunks = _file_chunks(source)
    elif hasattr(source, "read"):
        chunks = iter(lambda: source.read(_READ_BYTES), source.read(0))
    else:
        # an iterable of lines: each chunk joins some, every one LF-ended
        items = iter(source)
        chunks = (
            "".join(line if line.endswith("\n") else line + "\n" for line in batch)
            for batch in iter(lambda: list(islice(items, _CHUNK)), [])
        )
    done = 0  # lines split so far
    held: list = []  # the chunks since the last LF: the start of a line not yet ended
    for chunk in chunks:
        lf = b"\n" if isinstance(chunk, bytes) else "\n"
        end = chunk.rfind(lf) + 1
        if not end:
            held.append(chunk)
            continue
        block = chunk[:end] if not held else chunk[:0].join([*held, chunk[:end]])
        held = [chunk[end:]]
        lines = _split(_decode(block, done, undecodable))
        done += len(lines)
        yield lines
        del lines  # gone before the next block is split
    if held and (rest := held[0][:0].join(held)):
        # a last line without its LF: kept whole, a CR at its end too
        yield [_decode(rest, done, undecodable)]


def _file_chunks(path: Union[str, Path]) -> Iterator[bytes]:
    try:
        with open(path, "rb") as fh:
            while chunk := fh.read(_READ_BYTES):
                yield chunk
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror or exc}") from None


def _decode(block: Union[str, bytes], done: int, undecodable: Optional[set[int]]) -> str:
    """``block``, the lines after the first ``done``, as text."""
    if isinstance(block, str):
        return block
    try:
        return block.decode("utf-8")
    except UnicodeDecodeError as exc:
        if undecodable is None:
            line_no = done + block.count(b"\n", 0, exc.start) + 1
            raise MalformedLine("not valid UTF-8", line_no) from None
    lines = []
    for line_no, raw in enumerate(block.split(b"\n"), start=done + 1):
        try:
            lines.append(raw.decode("utf-8"))
        except UnicodeDecodeError:
            undecodable.add(line_no)
            lines.append("")
    return "\n".join(lines)


def _split(text: str) -> list[str]:
    """The lines of LF-ended ``text``, one CR before each LF dropped."""
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    lines = text.split("\n")
    lines.pop()  # the empty text after the last LF
    return lines


def _write_chunks(fh: IO[str], lines: Iterable[str]) -> None:
    # a thousand lines per write: never a second copy of a whole file's text
    it = iter(lines)
    while chunk := list(islice(it, _CHUNK)):
        fh.write("\n".join(chunk) + "\n")
