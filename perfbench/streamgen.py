"""Open-loop revision sender that speaks the scoring protocol.

The sender plays the server side of the protocol in ``docs/formats.md``
on one accepted connection: it sends ``REV`` lines on a fixed schedule
(revision ``i`` is due at ``start + i / rate``), never keeps more than
``window`` revisions in flight, and reads ``SCORE`` answers as they come.
Latency is timed from each revision's *due* time to receipt of its
answer, so a stall that delays later sends counts against them.

Answers are checked against the protocol; every deviation counts as one
failure (see ``StreamResult.failures``).  Score strings are kept verbatim
so the caller can compare them with batch ``predict`` output afterwards.
"""

from __future__ import annotations

import socket
import time
from dataclasses import dataclass, field
from typing import Sequence

from vandalstack.corpus import Revision, format_line


@dataclass
class StreamResult:
    sent: int = 0
    answered: int = 0
    # rev_id -> score string exactly as received
    scores: dict[int, str] = field(default_factory=dict)
    # rev_id -> seconds from due time to answer receipt
    latency: dict[int, float] = field(default_factory=dict)
    # seconds each send happened after its due time
    late: list[float] = field(default_factory=list)
    # in-flight count sampled at every send
    in_flight: list[int] = field(default_factory=list)
    # largest number of revisions that were due but not yet sent
    backlog_max: int = 0
    failures: list[str] = field(default_factory=list)


def _check_answer(line: str, outstanding: dict, result: StreamResult):
    """Return (rev_id, score_text) for a valid answer, else record a failure."""
    parts = line.split("\t")
    if len(parts) != 3 or parts[0] != "SCORE" or not parts[1].isdigit():
        result.failures.append(f"malformed answer {line!r}")
        return None
    rev_id = int(parts[1])
    if rev_id in result.scores:
        result.failures.append(f"duplicate answer for {rev_id}")
        return None
    if rev_id not in outstanding:
        result.failures.append(f"unknown rev_id {rev_id}")
        return None
    try:
        score = float(parts[2])
    except ValueError:
        result.failures.append(f"malformed score {parts[2]!r}")
        return None
    if not 0.0 <= score <= 1.0:
        result.failures.append(f"score out of range {parts[2]!r}")
        return None
    return rev_id, parts[2]


def run_open_loop(
    conn: socket.socket,
    revisions: Sequence[Revision],
    rate: float,
    window: int = 16,
    drain_timeout: float = 30.0,
) -> StreamResult:
    """Stream ``revisions`` at ``rate`` per second over ``conn``, then END."""
    result = StreamResult()
    outstanding: dict[int, float] = {}  # rev_id -> due time
    buf = b""
    start = time.perf_counter() + 0.01
    i = 0
    deadline = None
    while i < len(revisions) or outstanding:
        now = time.perf_counter()
        if i < len(revisions):
            due_count = min(len(revisions), int((now - start) * rate) + 1)
            result.backlog_max = max(result.backlog_max, due_count - i)
        if i < len(revisions) and len(outstanding) < window:
            due = start + i / rate
            if now >= due:
                rev = revisions[i]
                conn.sendall(f"REV\t{format_line(rev)}\n".encode("utf-8"))
                sent_at = time.perf_counter()
                result.late.append(sent_at - due)
                outstanding[rev.rev_id] = due
                result.in_flight.append(len(outstanding))
                result.sent += 1
                i += 1
                continue
            wait = due - now
        else:
            if deadline is None and i >= len(revisions):
                deadline = now + drain_timeout
            wait = None if deadline is None else deadline - now
            if wait is not None and wait <= 0:
                break
        conn.settimeout(wait if wait is None else max(wait, 1e-4))
        try:
            chunk = conn.recv(65536)
        except (socket.timeout, TimeoutError):
            continue
        if not chunk:
            result.failures.append("client closed the connection early")
            break
        received = time.perf_counter()
        buf += chunk
        *lines, buf = buf.split(b"\n")
        for raw in lines:
            try:
                line = raw.decode("utf-8").rstrip("\r")
            except UnicodeDecodeError:
                result.failures.append("answer is not valid UTF-8")
                continue
            answer = _check_answer(line, outstanding, result)
            if answer is None:
                continue
            rev_id, text = answer
            result.latency[rev_id] = received - outstanding.pop(rev_id)
            result.scores[rev_id] = text
            result.answered += 1
    for rev_id in outstanding:
        result.failures.append(f"no answer for {rev_id}")
    conn.settimeout(5.0)
    try:
        conn.sendall(b"END\n")
    except OSError:
        result.failures.append("could not send END")
    return result


def merge_results(parts: Sequence[StreamResult]) -> StreamResult:
    """One result for several open-loop segments (distinct revisions each)."""
    merged = StreamResult()
    for part in parts:
        merged.sent += part.sent
        merged.answered += part.answered
        merged.scores.update(part.scores)
        merged.latency.update(part.latency)
        merged.late += part.late
        merged.in_flight += part.in_flight
        merged.backlog_max = max(merged.backlog_max, part.backlog_max)
        merged.failures += part.failures
    return merged


def parity_failures(received: dict[int, str], expected: dict[int, str]) -> list[str]:
    """Answers whose score string differs from batch ``predict`` output."""
    return [
        f"rev {rev_id}: stream {text} != batch {expected.get(rev_id)}"
        for rev_id, text in sorted(received.items())
        if expected.get(rev_id) != text
    ]
