"""Streaming revision scoring over TCP, line-delimited UTF-8.

Protocol (one line per message, LF-terminated)::

    server -> client:   REV <TAB> <corpus line>
                        END
                        ERROR <TAB> <detail>
    client -> server:   SCORE <TAB> <rev_id> <TAB> <score>

The server never has more than ``window`` revisions outstanding; answers
may arrive out of order and are matched by rev_id.  Any client deviation
(unknown rev_id, duplicate answer, malformed line, score outside [0,1],
a line longer than ``lines.MAX_PROTOCOL_LINE`` bytes) closes the session
with an ERROR line.  Both ends read through ``lines.iter_blocks``, the
splitter files are read with, one ``recv`` at a time, and take every
complete line already received at once: the server refills its window in
one write, and the client scores its REV lines as one block.  Scores
travel as text with 9 significant digits, never in exponent notation, so
the stream is exactly reproducible against offline prediction.
"""

from __future__ import annotations

import math
import socket
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .corpus import Revision, format_line, load_corpus, load_labels, parse_line, split_keyed
from .errors import MalformedLine, ProtocolViolation, Timeout, UsageError
from .evaluation import EvalReport, error_sets, evaluate_scored, join_scored, parse_score
# encode and predict_stack are not called here, but perfbench/tracer.install
# wraps serve.encode and serve.predict_stack (with parse_line,
# extract_features, format_score and load_pipeline) and fails on a missing
# name, as perfbench/tests/test_tracer.py shows
from .featurize import encode, encode_matrix, extract_features  # noqa: F401
from .lines import MAX_PROTOCOL_LINE, iter_blocks
from .stacking import (  # noqa: F401
    StackedPipeline,
    load_pipeline,
    predict_stack,
    predict_stack_batch,
)


def format_score(score: float) -> str:
    """9 significant digits, dot separator, no exponent — e.g. 0.123456789.

    numpy may print a trailing zero for a score but not for the float read
    back from its text, or the reverse (``0.391996050`` → ``0.39199605``),
    so the text printed is the read-back float's: a fixed point of reading.
    """
    for _ in range(2):
        score = np.format_float_positional(
            float(score), precision=9, unique=False, fractional=False, trim="k"
        )
    return score


def parse_address(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep or not (port.isascii() and port.isdigit()) or int(port) > 65535:
        raise UsageError(f"address must be host:port with a port of 0-65535, got {text!r}")
    return (host or "127.0.0.1", int(port))


def _check_timeout(timeout: Optional[float]) -> None:
    """``None`` waits forever; anything else must be a finite number of seconds > 0."""
    if timeout is not None and not (math.isfinite(timeout) and timeout > 0):
        raise UsageError(f"timeout must be finite and > 0 seconds, got {timeout!r}")


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
        _check_timeout(timeout)
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
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((host, port))
            sock.listen(1)
        except OSError:
            sock.close()
            raise
        self._sock = sock
        self.address = sock.getsockname()[:2]
        return self.address

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def serve_one(self) -> ServeResult:
        """Accept one client, stream every revision, evaluate the answers.

        ``timeout`` bounds the wait for the client and each blocking
        ``recv`` or ``send`` on the connection; either raises
        :class:`Timeout`.  It bounds no whole answer: a client that sends a
        byte at a time within each ``timeout`` holds the session open.  A
        connection that fails mid-session (reset, broken pipe) raises
        :class:`ProtocolViolation`.
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
        except (socket.timeout, TimeoutError):
            raise Timeout("timeout sending to the client") from None
        except OSError as exc:
            raise ProtocolViolation(f"connection lost: {exc}") from None
        finally:
            conn.close()
        rev_ids, values, flags = join_scored(scores, self.labels)
        report = evaluate_scored(values, flags, error_sets(rev_ids, values, flags), distinct=False)
        return ServeResult(report=report, scores=scores, trace=list(self.trace))

    def _run_session(self, conn: socket.socket) -> dict[int, float]:
        undecodable: set[int] = set()
        blocks = iter_blocks(conn, undecodable, MAX_PROTOCOL_LINE)
        sent = 0
        outstanding: set[int] = set()
        scores: dict[int, float] = {}
        while True:
            # greedy: fill the window, in one write
            batch = self.revisions[sent : sent + self.window - len(outstanding)]
            sent += len(batch)
            if batch:
                conn.sendall("".join(f"REV\t{format_line(rev)}\n" for rev in batch).encode("utf-8"))
                for rev in batch:
                    outstanding.add(rev.rev_id)
                    self.trace.append(("send", rev.rev_id))
            if not outstanding:
                break
            try:
                lines = next(blocks, None)
            except (socket.timeout, TimeoutError):
                self._send_error(conn, "timeout waiting for answer")
                raise Timeout("timeout waiting for answer")
            except MalformedLine as exc:
                self._violation(conn, str(exc))
            if lines is None:
                raise ProtocolViolation("client closed the connection early")
            # every answer already received, before the window is refilled
            for line in lines:
                # each line before this one was an answer taken: it is line len(scores) + 1
                if len(scores) + 1 in undecodable:
                    self._violation(conn, "answer is not valid UTF-8")
                rev_id, score = self._parse_answer(conn, line, outstanding, scores)
                outstanding.discard(rev_id)
                scores[rev_id] = score
                self.trace.append(("recv", rev_id))
        conn.sendall(b"END\n")
        return scores

    def _parse_answer(
        self,
        conn: socket.socket,
        line: str,
        outstanding: set[int],
        scores: dict[int, float],
    ) -> tuple[int, float]:
        if not line.startswith("SCORE\t"):
            self._violation(conn, f"malformed answer line {line!r}")
        try:
            rev_id, text = split_keyed(line[6:])
        except MalformedLine as exc:
            self._violation(conn, str(exc))
        if rev_id in scores:
            self._violation(conn, f"duplicate answer for rev_id {rev_id}")
        if rev_id not in outstanding:
            self._violation(conn, f"unknown rev_id {rev_id}")
        try:
            return rev_id, parse_score(text)
        except MalformedLine as exc:
            self._violation(conn, str(exc))

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
    host, port = parse_address(listen)
    revisions = load_corpus(corpus_path).revisions
    labels = load_labels(truth_path)
    server = ScoringServer(revisions, labels, window=window, timeout=timeout)
    positives = sum(labels[rev.rev_id] for rev in revisions)
    if positives in (0, len(revisions)):
        raise UsageError(
            f"the session's AUC needs both classes, but the corpus has {positives} positive "
            f"and {len(revisions) - positives} negative revisions"
        )
    try:
        server.bind(host, port)
    except OSError as exc:
        raise UsageError(f"cannot listen on --listen {listen}: {exc.strerror or exc}") from None
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

    Every complete REV line already received is parsed and featurized
    against the pipeline's schema, and the run of them is scored as one
    block and answered in one write, as ``SCORE\\t<rev_id>\\t<score>``
    lines in arrival order.  It never waits for more lines to fill a block.
    A pipeline passed in memory, not as a file, must have a schema: one
    without is refused before connecting.
    """
    _check_timeout(timeout)
    address = parse_address(connect)
    if not isinstance(pipeline, StackedPipeline):
        pipeline = load_pipeline(pipeline)
    elif pipeline.schema is None:
        raise UsageError("the pipeline has no schema to encode revisions with")
    answered = 0
    try:
        with socket.create_connection(address, timeout=timeout) as sock:
            undecodable: set[int] = set()
            for lines in iter_blocks(sock, undecodable, MAX_PROTOCOL_LINE):
                block, end = _rev_block(lines, answered, undecodable)
                if block:
                    X = encode_matrix([extract_features(rev) for rev in block], pipeline.schema)
                    scores = predict_stack_batch(pipeline, X)
                    sock.sendall("".join(
                        f"SCORE\t{rev.rev_id}\t{format_score(score)}\n"
                        for rev, score in zip(block, scores)
                    ).encode("utf-8"))
                    answered += len(block)
                if end is not None:
                    status, message = end
                    if message:
                        print(message, file=sys.stderr)
                    return status
    except (OSError, MalformedLine) as exc:
        print(f"connection failed after {answered} answers: {exc}", file=sys.stderr)
        return 1
    print(f"connection closed by server after {answered} answers", file=sys.stderr)
    return 1


def _rev_block(
    lines: list[str], answered: int, undecodable: set[int]
) -> tuple[list[Revision], Optional[tuple[int, str]]]:
    """The revisions of the REV lines that lead ``lines``, and how the session ends, if it does.

    The first other line, or one in ``undecodable``, ends the session
    after the block is answered: ``(exit status, message for stderr)``,
    the message counting the block's answers.
    """
    block: list[Revision] = []
    for line in lines:
        after = answered + len(block)
        # each line before this one was a REV line answered: it is line after + 1
        if after + 1 in undecodable:
            return block, (1, f"server sent a line that is not UTF-8 after {after} answers")
        if line == "END":
            return block, (0, "")
        if line.startswith("ERROR"):
            return block, (1, f"server error: {line}")
        if not line.startswith("REV\t"):
            return block, (1, f"malformed server line: {line!r}")
        try:
            block.append(parse_line(line[4:]))
        except MalformedLine as exc:
            return block, (1, f"connection failed after {after} answers: {exc}")
    return block, None
