"""Streaming revision scoring over TCP, line-delimited UTF-8.

Protocol (one line per message, LF-terminated)::

    server -> client:   REV <TAB> <corpus line>
                        END
                        ERROR <TAB> <detail>
    client -> server:   SCORE <TAB> <rev_id> <TAB> <score>

The server never has more than ``window`` revisions outstanding; answers
may arrive out of order and are matched by rev_id.  Any client deviation
(unknown rev_id, duplicate answer, malformed line, score outside [0,1])
closes the session with an ERROR line.  Scores travel as text with 9
significant digits, never in exponent notation, so the stream is exactly
reproducible against offline prediction.
"""

from __future__ import annotations

import socket
import sys
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .corpus import Revision, format_line, load_corpus, load_labels, parse_line
from .errors import MalformedLine, ProtocolViolation, Timeout, UsageError
from .evaluation import EvalReport, ScoredExample, evaluate_scored
from .featurize import encode, extract_features
from .stacking import StackedPipeline, load_pipeline, predict_stack


def format_score(score: float) -> str:
    """9 significant digits, dot separator, no exponent — e.g. 0.123456789."""
    return np.format_float_positional(
        float(score), precision=9, unique=False, fractional=False, trim="k"
    )


def parse_address(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep or not (port.isascii() and port.isdigit()):
        raise UsageError(f"address must be host:port, got {text!r}")
    return (host or "127.0.0.1", int(port))


@dataclass
class SessionState:
    window: int
    sent: int = 0
    answered: int = 0

    @property
    def in_flight(self) -> int:
        return self.sent - self.answered


@dataclass
class ServeResult:
    report: EvalReport
    scores: dict[int, float]
    trace: list[tuple[str, int]] = field(default_factory=list)


class ScoringServer:
    """One-session evaluation server.

    ``bind`` then ``serve_one``; the bound address is available as
    ``.address`` (useful with port 0).  ``trace`` records ("send", rev_id)
    and ("recv", rev_id) events so the flow-control invariant can be
    checked after the fact.
    """

    def __init__(
        self,
        revisions: Sequence[Revision],
        labels: dict[int, bool],
        window: int = 16,
        timeout: Optional[float] = 60.0,
    ):
        if window < 1:
            raise UsageError(f"window must be >= 1, got {window}")
        missing = [rev.rev_id for rev in revisions if rev.rev_id not in labels]
        if missing:
            raise UsageError(
                f"{len(missing)} corpus revisions have no label (first: {missing[0]})"
            )
        self.revisions = list(revisions)
        self.labels = labels
        self.window = window
        self.timeout = timeout
        self.trace: list[tuple[str, int]] = []
        self._sock: Optional[socket.socket] = None
        self.address: Optional[tuple[str, int]] = None

    def bind(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((host, port))
        sock.listen(1)
        self._sock = sock
        self.address = sock.getsockname()[:2]
        return self.address

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def serve_one(self) -> ServeResult:
        """Accept one client, stream every revision, evaluate the answers.

        ``timeout`` bounds the wait for the client as well as each answer;
        either raises :class:`Timeout`.
        """
        if self._sock is None:
            raise UsageError("serve_one called before bind")
        self._sock.settimeout(self.timeout)
        try:
            conn, _ = self._sock.accept()
        except (socket.timeout, TimeoutError):
            raise Timeout(f"no client connected within {self.timeout} s")
        if self.timeout is not None:
            conn.settimeout(self.timeout)
        try:
            scores = self._run_session(conn)
        finally:
            conn.close()
        scored = [
            ScoredExample(rev_id, score, self.labels[rev_id])
            for rev_id, score in sorted(scores.items())
        ]
        return ServeResult(
            report=evaluate_scored(scored), scores=scores, trace=list(self.trace)
        )

    def _run_session(self, conn: socket.socket) -> dict[int, float]:
        # the reader must be closed before conn.close() can send FIN;
        # an open makefile() keeps the descriptor alive even after the
        # session aborts on a raised violation
        with conn.makefile("rb") as reader:
            queue = deque(self.revisions)
            state = SessionState(window=self.window)
            outstanding: set[int] = set()
            scores: dict[int, float] = {}
            while queue or outstanding:
                if queue and state.in_flight < self.window:
                    rev = queue.popleft()
                    conn.sendall(f"REV\t{format_line(rev)}\n".encode("utf-8"))
                    outstanding.add(rev.rev_id)
                    state.sent += 1
                    self.trace.append(("send", rev.rev_id))
                    continue
                try:
                    raw = reader.readline()
                except (socket.timeout, TimeoutError):
                    self._send_error(conn, "timeout waiting for answer")
                    raise Timeout("timeout waiting for answer")
                if raw == b"":
                    raise ProtocolViolation("client closed the connection early")
                rev_id, score = self._parse_answer(conn, raw, outstanding, scores)
                outstanding.discard(rev_id)
                scores[rev_id] = score
                state.answered += 1
                self.trace.append(("recv", rev_id))
            conn.sendall(b"END\n")
            return scores

    def _parse_answer(
        self,
        conn: socket.socket,
        raw: bytes,
        outstanding: set[int],
        scores: dict[int, float],
    ) -> tuple[int, float]:
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError:
            self._violation(conn, "answer is not valid UTF-8")
        line = line.rstrip("\n").rstrip("\r")
        parts = line.split("\t")
        if len(parts) != 3 or parts[0] != "SCORE":
            self._violation(conn, f"malformed answer line {line!r}")
        if not (parts[1].isascii() and parts[1].isdigit()):
            self._violation(conn, f"malformed rev_id {parts[1]!r}")
        rev_id = int(parts[1])
        if rev_id in scores:
            self._violation(conn, f"duplicate answer for rev_id {rev_id}")
        if rev_id not in outstanding:
            self._violation(conn, f"unknown rev_id {rev_id}")
        try:
            score = float(parts[2])
        except ValueError:
            self._violation(conn, f"malformed score {parts[2]!r}")
        if not np.isfinite(score) or not 0.0 <= score <= 1.0:
            self._violation(conn, f"score out of range: {parts[2]}")
        return rev_id, score

    def _violation(self, conn: socket.socket, reason: str) -> None:
        self._send_error(conn, reason)
        raise ProtocolViolation(reason)

    @staticmethod
    def _send_error(conn: socket.socket, reason: str) -> None:
        try:
            conn.sendall(f"ERROR\t{reason}\n".encode("utf-8"))
        except OSError:
            pass


def run_server(
    corpus_path: Union[str, Path],
    truth_path: Union[str, Path],
    listen: str = "127.0.0.1:0",
    window: int = 16,
    timeout: Optional[float] = 60.0,
) -> ServeResult:
    """Load corpus + truth, serve one scoring session, return the report."""
    revisions = load_corpus(corpus_path).revisions
    labels = load_labels(truth_path)
    server = ScoringServer(revisions, labels, window=window, timeout=timeout)
    host, port = parse_address(listen)
    server.bind(host, port)
    print(f"listening on {server.address[0]}:{server.address[1]}", file=sys.stderr)
    try:
        return server.serve_one()
    finally:
        server.close()


def run_client(
    pipeline: Union[str, Path, StackedPipeline],
    connect: str,
    timeout: Optional[float] = 60.0,
) -> int:
    """Answer one scoring session; returns a process exit status.

    Every received revision is parsed, featurized against the pipeline's
    schema, scored, and answered as ``SCORE\\t<rev_id>\\t<score>``.
    """
    if not isinstance(pipeline, StackedPipeline):
        pipeline = load_pipeline(pipeline)
    if pipeline.schema is None:
        raise UsageError("pipeline has no embedded schema; cannot featurize")
    address = parse_address(connect)
    answered = 0
    try:
        with socket.create_connection(address, timeout=timeout) as sock, \
                sock.makefile("rb") as reader:
            for raw in reader:
                try:
                    line = raw.decode("utf-8").rstrip("\n").rstrip("\r")
                except UnicodeDecodeError:
                    print(
                        f"server sent a line that is not UTF-8 after {answered} answers",
                        file=sys.stderr,
                    )
                    return 1
                if line == "END":
                    return 0
                if line.startswith("ERROR"):
                    print(f"server error: {line}", file=sys.stderr)
                    return 1
                if not line.startswith("REV\t"):
                    print(f"malformed server line: {line!r}", file=sys.stderr)
                    return 1
                rev = parse_line(line[4:])
                vector = encode(extract_features(rev), pipeline.schema)
                score = predict_stack(pipeline, vector)
                sock.sendall(
                    f"SCORE\t{rev.rev_id}\t{format_score(score)}\n".encode("utf-8")
                )
                answered += 1
    except (OSError, MalformedLine) as exc:
        print(f"connection failed after {answered} answers: {exc}", file=sys.stderr)
        return 1
    print(f"connection closed by server after {answered} answers", file=sys.stderr)
    return 1
