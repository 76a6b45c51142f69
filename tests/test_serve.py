"""The streaming scoring protocol: framing, flow control, violations."""

import dataclasses
import socket
import struct
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies

from tests._util import rev
from vandalstack.corpus import LabeledExample, format_line, write_corpus, write_labels
from vandalstack import serve
from vandalstack.errors import ProtocolViolation, Timeout, UsageError
from vandalstack.featurize import build_schema, encode, encode_matrix, extract_features, extract_many
from vandalstack.learners import ModelSpec
from vandalstack.lines import MAX_PROTOCOL_LINE
from vandalstack.serve import (
    ScoringServer,
    format_score,
    parse_address,
    run_client,
    run_server,
)
from vandalstack.stacking import (
    StackConfig,
    fit_stack,
    predict_stack,
    save_pipeline,
)


# --- score formatting -------------------------------------------------------

def test_format_score_frozen_strings():
    assert format_score(0.0) == "0.00000000"
    assert format_score(0.5) == "0.50000000"
    assert format_score(1.0) == "1.00000000"
    assert format_score(1e-12) == "0.000000000001"
    assert format_score(0.123456789123) == "0.123456789"
    assert format_score(1.0 / 3.0) == "0.333333333"


def test_format_score_never_uses_exponent_and_round_trips_precisely():
    rng = np.random.default_rng(0)
    values = np.concatenate([rng.random(200), rng.random(50) * 1e-8, [0.0, 1.0]])
    for value in values:
        text = format_score(float(value))
        assert "e" not in text and "E" not in text
        assert abs(float(text) - float(value)) < 1e-7  # >= 8 significant digits


# each prints a trailing zero for itself or for the float read back from its text
@example(0.39199605018578665)
@example(0.9190886196338225)
@given(strategies.floats(0.0, 1.0, allow_nan=False))
def test_format_score_is_a_fixed_point(value):
    text = format_score(value)
    assert format_score(float(text)) == text
    assert abs(float(text) - value) <= 5e-9 * max(value, 1e-300) or value < 1e-290


# --- address parsing --------------------------------------------------------

def test_parse_address():
    assert parse_address("127.0.0.1:9000") == ("127.0.0.1", 9000)
    assert parse_address("localhost:80") == ("localhost", 80)
    assert parse_address(":0") == ("127.0.0.1", 0)
    assert parse_address("127.0.0.1:65535") == ("127.0.0.1", 65535)
    for bad in ("nocolon", "host:", "host:abc", "", "host:8²"):
        with pytest.raises(UsageError):
            parse_address(bad)
    # socket calls would take these modulo 65536, or overflow
    for bad in ("127.0.0.1:65536", "127.0.0.1:99999", ":18446744073709551617"):
        with pytest.raises(UsageError, match="port of 0-65535"):
            parse_address(bad)


# --- live sessions ----------------------------------------------------------

def tiny_corpus(n=6):
    revisions = [
        rev(i, comment=f"edit number {i}", registered=bool(i % 2))
        for i in range(1, n + 1)
    ]
    labels = {r.rev_id: r.rev_id % 3 == 0 for r in revisions}
    return revisions, labels


class ServerThread:
    """Runs serve_one in the background, capturing result or exception."""

    def __init__(self, revisions, labels, window=16, timeout=10.0):
        self.server = ScoringServer(revisions, labels, window=window, timeout=timeout)
        self.address = self.server.bind()
        self.result = None
        self.error = None
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()

    def _run(self):
        try:
            self.result = self.server.serve_one()
        except Exception as exc:  # noqa: BLE001 - recorded for assertions
            self.error = exc
        finally:
            self.server.close()

    def join(self):
        self.thread.join(timeout=10.0)
        assert not self.thread.is_alive(), "server thread hung"
        return self


def connect(address):
    sock = socket.create_connection(address, timeout=10.0)
    sock.settimeout(10.0)
    return sock, sock.makefile("rb")


def read_line(reader):
    return reader.readline().decode("utf-8").rstrip("\n")


def test_session_round_trip_in_order():
    revisions, labels = tiny_corpus()
    st = ServerThread(revisions, labels)
    sock, reader = connect(st.address)
    with sock:
        for expected in revisions:
            line = read_line(reader)
            assert line == f"REV\t{format_line(expected)}"
            score = 0.9 if labels[expected.rev_id] else 0.1
            sock.sendall(f"SCORE\t{expected.rev_id}\t{score}\n".encode())
        assert read_line(reader) == "END"
    st.join()
    assert st.error is None
    result = st.result
    assert result.report.auc == 1.0
    assert result.scores == {
        r.rev_id: (0.9 if labels[r.rev_id] else 0.1) for r in revisions
    }
    assert [e for e in result.trace if e[0] == "send"] == [
        ("send", r.rev_id) for r in revisions
    ]


def test_out_of_order_answers_are_matched_by_rev_id():
    revisions, labels = tiny_corpus(4)
    st = ServerThread(revisions, labels, window=4)
    sock, reader = connect(st.address)
    with sock:
        got = [read_line(reader) for _ in range(4)]  # whole window up front
        ids = [int(line.split("\t")[1]) for line in got]  # REV \t rev_id \t ...
        for rev_id in reversed(ids):
            sock.sendall(f"SCORE\t{rev_id}\t0.5\n".encode())
        assert read_line(reader) == "END"
    st.join()
    assert st.error is None
    assert set(st.result.scores) == set(ids)


def test_window_limits_outstanding_revisions():
    revisions, labels = tiny_corpus(6)
    st = ServerThread(revisions, labels, window=2)
    sock, reader = connect(st.address)
    with sock:
        for _ in range(6):
            line = read_line(reader)
            rev_id = int(line.split("\t")[1])
            sock.sendall(f"SCORE\t{rev_id}\t0.25\n".encode())
        assert read_line(reader) == "END"
    st.join()
    assert st.error is None
    in_flight = 0
    for kind, _ in st.result.trace:
        in_flight += 1 if kind == "send" else -1
        assert 0 <= in_flight <= 2


@pytest.mark.parametrize(
    "answer, detail",
    [
        ("SCORE\t999999\t0.5\n", "unknown"),
        ("BOGUS LINE\n", "malformed"),
        ("SCORE\t1\t1.5\n", "range"),
        ("SCORE\t1\tnot-a-number\n", "malformed score"),
        ("SCORE\tabc\t0.5\n", "rev_id"),
        ("SCORE\t1²\t0.5\n", "rev_id"),  # a digit that int() refuses
    ],
)
def test_violations_send_error_line_and_close(answer, detail):
    revisions, labels = tiny_corpus(3)
    st = ServerThread(revisions, labels, window=1)
    sock, reader = connect(st.address)
    with sock:
        assert read_line(reader).startswith("REV\t")
        sock.sendall(answer.encode())
        response = read_line(reader)
        assert response.startswith("ERROR\t")
    st.join()
    assert isinstance(st.error, ProtocolViolation)


def test_duplicate_answer_is_a_violation():
    revisions, labels = tiny_corpus(3)
    st = ServerThread(revisions, labels, window=2)
    sock, reader = connect(st.address)
    with sock:
        first = int(read_line(reader).split("\t")[1])
        sock.sendall(f"SCORE\t{first}\t0.5\n".encode())
        sock.sendall(f"SCORE\t{first}\t0.5\n".encode())
        lines = []
        while True:
            line = read_line(reader)
            if line == "" or line.startswith("ERROR"):
                lines.append(line)
                break
            lines.append(line)
        assert lines[-1].startswith("ERROR\t")
    st.join()
    assert isinstance(st.error, ProtocolViolation)


def test_early_close_is_a_violation():
    revisions, labels = tiny_corpus(3)
    st = ServerThread(revisions, labels, window=1)
    sock, reader = connect(st.address)
    read_line(reader)
    # shutdown forces the FIN out even though the makefile reader still
    # holds a reference to the underlying socket
    sock.shutdown(socket.SHUT_RDWR)
    reader.close()
    sock.close()
    st.join()
    assert isinstance(st.error, ProtocolViolation)


def test_reset_connection_is_a_violation():
    revisions, labels = tiny_corpus(3)
    st = ServerThread(revisions, labels, window=1)
    sock, reader = connect(st.address)
    read_line(reader)
    # linger 0: close() resets the connection instead of closing it
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    reader.close()
    sock.close()
    st.join()
    assert isinstance(st.error, ProtocolViolation)


def test_a_window_answered_in_one_write_is_refilled_in_one_write(monkeypatch):
    writes = []
    real_sendall = socket.socket.sendall

    def recording_sendall(self, data, *args):
        writes.append((self.getsockname()[1], bytes(data)))
        return real_sendall(self, data, *args)

    monkeypatch.setattr(socket.socket, "sendall", recording_sendall)
    revisions, labels = tiny_corpus(8)
    st = ServerThread(revisions, labels, window=4)
    sock, reader = connect(st.address)
    with sock:
        for _ in range(2):
            ids = [int(read_line(reader).split("\t")[1]) for _ in range(4)]
            sock.sendall("".join(f"SCORE\t{i}\t0.5\n" for i in ids).encode())
        assert read_line(reader) == "END"
    st.join()
    assert st.error is None
    server_writes = [data for port, data in writes if port == st.address[1]]
    assert [w.count(b"REV\t") for w in server_writes] == [4, 4, 0]
    assert server_writes[-1] == b"END\n"
    kinds = [kind for kind, _ in st.result.trace]
    assert kinds == ["send"] * 4 + ["recv"] * 4 + ["send"] * 4 + ["recv"] * 4
    in_flight = 0
    for kind in kinds:
        in_flight += 1 if kind == "send" else -1
        assert 0 <= in_flight <= 4


def test_a_bad_answer_inside_a_chunk_ends_the_session_before_any_refill():
    revisions, labels = tiny_corpus(6)
    st = ServerThread(revisions, labels, window=4)
    sock, reader = connect(st.address)
    with sock:
        ids = [int(read_line(reader).split("\t")[1]) for _ in range(4)]
        sock.sendall(f"SCORE\t{ids[0]}\t0.5\nBOGUS LINE\nSCORE\t{ids[1]}\t0.5\n".encode())
        assert read_line(reader) == "ERROR\tmalformed answer line 'BOGUS LINE'"
    st.join()
    assert isinstance(st.error, ProtocolViolation)
    assert str(st.error) == "malformed answer line 'BOGUS LINE'"
    # the answer before it counts; nothing is sent after it
    assert st.server.trace == [("send", i) for i in ids] + [("recv", ids[0])]


def measured(fn):
    """``fn()``, its seconds, and the peak of the memory traced while it ran (every thread's)."""
    tracemalloc.start()
    started = time.monotonic()
    try:
        result = fn()
    finally:
        elapsed = time.monotonic() - started
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return result, elapsed, peak


def test_a_flooding_client_is_cut_off_with_bounded_memory():
    revisions, labels = tiny_corpus(3)
    st = ServerThread(revisions, labels, window=1)
    sock, reader = connect(st.address)
    flood = b"x" * (1 << 16)

    def flood_and_wait():
        try:
            for _ in range(128):  # 8 MiB on one line, never an LF
                sock.sendall(flood)
            sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass  # the server hung up: the point of the test
        st.join()

    with sock:
        assert read_line(reader).startswith("REV\t")
        _, elapsed, peak = measured(flood_and_wait)
    assert isinstance(st.error, ProtocolViolation)
    assert str(st.error) == f"protocol line longer than {MAX_PROTOCOL_LINE} bytes"
    assert elapsed < 5.0
    assert peak < 8 * MAX_PROTOCOL_LINE


def test_server_requires_complete_labels_and_valid_window():
    revisions, labels = tiny_corpus(3)
    with pytest.raises(UsageError):
        ScoringServer(revisions, {}, window=4)
    with pytest.raises(UsageError):
        ScoringServer(revisions, labels, window=0)


@pytest.mark.parametrize("timeout", [0.0, -1.0, float("nan"), float("inf"), float("-inf")])
def test_a_timeout_that_is_not_finite_and_positive_is_refused(timeout):
    revisions, labels = tiny_corpus(3)
    with pytest.raises(UsageError, match="timeout"):
        ScoringServer(revisions, labels, timeout=timeout)
    # refused before the pipeline is loaded or a connection is tried
    with pytest.raises(UsageError, match="timeout"):
        run_client("no-such-pipeline.txt", "127.0.0.1:9", timeout=timeout)


def test_an_address_that_cannot_be_bound_is_a_usage_error(tmp_path):
    revisions, labels = tiny_corpus(6)
    corpus, truth = tmp_path / "corpus.tsv", tmp_path / "truth.tsv"
    write_corpus(revisions, corpus)
    write_labels([LabeledExample(r, labels[r.rev_id]) for r in revisions], truth)
    taken = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    taken.bind(("127.0.0.1", 0))
    taken.listen(1)
    busy = f"127.0.0.1:{taken.getsockname()[1]}"
    try:
        # 192.0.2.1 is a documentation address, not one of this host's
        for listen in (busy, "192.0.2.1:0"):
            with pytest.raises(UsageError, match=f"--listen {listen}"):
                run_server(corpus, truth, listen=listen, timeout=5.0)
    finally:
        taken.close()


def test_a_port_out_of_range_is_refused_before_anything_else():
    with pytest.raises(UsageError, match="port of 0-65535"):
        run_client("no-such-pipeline.txt", "127.0.0.1:99999")
    with pytest.raises(UsageError, match="port of 0-65535"):
        run_server("no-such-corpus.tsv", "no-such-truth.tsv", listen="127.0.0.1:99999")


def test_no_timeout_means_wait_forever():
    revisions, labels = tiny_corpus(3)
    assert ScoringServer(revisions, labels, timeout=None).timeout is None


# --- the real client against a trained pipeline -----------------------------

def labeled_corpus_for_pipeline():
    rng = np.random.default_rng(5)
    revisions = []
    labels = {}
    for i in range(1, 41):
        vandal = bool(rng.integers(0, 2))
        comment = "WOW!!! 123" if vandal else "fixed the label text"
        revisions.append(rev(i, comment=comment, registered=not vandal))
        labels[i] = vandal
    return revisions, labels


def small_pipeline(revisions, labels):
    raws = extract_many(revisions)
    schema = build_schema(raws)
    y = np.array([labels[r.rev_id] for r in revisions], dtype=np.int64)
    config = StackConfig(
        first_stage=(
            ModelSpec("gradient_boosting", {"n_estimators": 5, "max_depth": 2}),
            ModelSpec("logistic_regression"),
        ),
        second_stage=(ModelSpec("gradient_boosting", {"n_estimators": 5}),),
        k=3,
        seed=1,
    )
    return fit_stack(encode_matrix(raws, schema), y, config, schema=schema), schema


def test_run_client_scores_match_offline_prediction(tmp_path):
    revisions, labels = labeled_corpus_for_pipeline()
    pipeline, schema = small_pipeline(revisions, labels)
    pipeline_path = tmp_path / "pipeline.txt"
    save_pipeline(pipeline, pipeline_path)

    st = ServerThread(revisions, labels, window=8)
    status = run_client(pipeline_path, f"{st.address[0]}:{st.address[1]}")
    st.join()
    assert status == 0
    assert st.error is None

    offline = {
        r.rev_id: float(
            format_score(predict_stack(pipeline, encode(extract_features(r), schema)))
        )
        for r in revisions
    }
    assert st.result.scores == offline


def test_run_client_refuses_a_pipeline_without_a_schema_before_connecting():
    revisions, labels = labeled_corpus_for_pipeline()
    pipeline, _ = small_pipeline(revisions, labels)
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    address = listener.getsockname()
    try:
        with pytest.raises(UsageError, match="no schema"):
            run_client(dataclasses.replace(pipeline, schema=None), f"{address[0]}:{address[1]}")
        # a connection the client had made would be waiting here
        listener.settimeout(0.0)
        with pytest.raises(BlockingIOError):
            listener.accept()
    finally:
        listener.close()


def test_run_client_reports_failure_on_early_server_exit(tmp_path):
    revisions, labels = labeled_corpus_for_pipeline()
    pipeline, _ = small_pipeline(revisions, labels)

    # a plain socket that sends one REV and slams the door
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    address = listener.getsockname()

    def half_server():
        conn, _ = listener.accept()
        conn.sendall(f"REV\t{format_line(revisions[0])}\n".encode())
        conn.recv(1024)
        conn.close()

    thread = threading.Thread(target=half_server, daemon=True)
    thread.start()
    status = run_client(pipeline, f"{address[0]}:{address[1]}", timeout=10.0)
    thread.join(timeout=10.0)
    listener.close()
    assert status == 1


def test_run_client_stops_on_error_line(tmp_path):
    revisions, labels = labeled_corpus_for_pipeline()
    pipeline, _ = small_pipeline(revisions, labels)

    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    address = listener.getsockname()

    def error_server():
        conn, _ = listener.accept()
        conn.sendall(b"ERROR\tgo away\n")
        conn.close()

    thread = threading.Thread(target=error_server, daemon=True)
    thread.start()
    status = run_client(pipeline, f"{address[0]}:{address[1]}", timeout=10.0)
    thread.join(timeout=10.0)
    listener.close()
    assert status == 1


def test_run_client_rejects_a_line_that_is_not_utf8(tmp_path, capsys):
    revisions, labels = labeled_corpus_for_pipeline()
    pipeline, _ = small_pipeline(revisions, labels)

    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    address = listener.getsockname()

    def garbled_server():
        conn, _ = listener.accept()
        conn.sendall(b"REV\t\xff\xfe\n")
        conn.recv(1024)
        conn.close()

    thread = threading.Thread(target=garbled_server, daemon=True)
    thread.start()
    status = run_client(pipeline, f"{address[0]}:{address[1]}", timeout=10.0)
    thread.join(timeout=10.0)
    listener.close()
    assert not thread.is_alive()
    assert status == 1
    assert "not UTF-8" in capsys.readouterr().err


def test_serve_one_times_out_when_no_client_connects():
    revisions, labels = tiny_corpus()
    server = ScoringServer(revisions, labels, timeout=0.2)
    server.bind()
    started = time.monotonic()
    try:
        with pytest.raises(Timeout):
            server.serve_one()
    finally:
        server.close()
    assert time.monotonic() - started < 5.0


def test_write_corpus_files_round_trip_through_server(tmp_path):
    # run_server's file loading path is covered via the CLI tests; here we
    # only confirm the writers emit what ScoringServer's loader consumes
    revisions, labels = tiny_corpus(4)
    corpus_path = tmp_path / "corpus.tsv"
    truth_path = tmp_path / "truth.tsv"
    write_corpus(revisions, corpus_path)
    write_labels(
        [LabeledExample(r, labels[r.rev_id]) for r in revisions], truth_path
    )
    from vandalstack.corpus import load_corpus, load_labels

    assert [r.rev_id for r in load_corpus(corpus_path).revisions] == [1, 2, 3, 4]
    assert load_labels(truth_path) == labels


# --- the client's blocks ------------------------------------------------------

class FakeServer:
    """Plays the server's end from a script, then records the answers to the end.

    Each step of the script is bytes to send, an int (wait for that many
    answer lines) or a float (seconds to sleep).
    """

    def __init__(self, *script):
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.connect = f"127.0.0.1:{self.listener.getsockname()[1]}"
        self.script = script
        self.answers = []
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()

    def _run(self):
        with self.listener:
            conn, _ = self.listener.accept()
        with conn, conn.makefile("rb") as reader:
            try:
                for step in self.script:
                    if isinstance(step, bytes):
                        conn.sendall(step)
                    elif isinstance(step, int):
                        self.answers += [reader.readline() for _ in range(step)]
                    else:
                        time.sleep(step)
                self.answers += list(reader)
            except OSError:
                pass  # the client hung up

    def join(self):
        self.thread.join(timeout=10.0)
        assert not self.thread.is_alive(), "fake server hung"
        return [raw.decode("utf-8") for raw in self.answers]


def rev_lines(revisions):
    return "".join(f"REV\t{format_line(r)}\n" for r in revisions).encode("utf-8")


def alone(pipeline, schema, revision):
    """The answer for ``revision`` scored on its own."""
    score = predict_stack(pipeline, encode(extract_features(revision), schema))
    return f"SCORE\t{revision.rev_id}\t{format_score(score)}\n"


@pytest.fixture
def blocks(monkeypatch):
    """The row count of every block the client scores."""
    sizes = []
    real = serve.predict_stack_batch

    def recording(pipeline, X):
        sizes.append(X.shape[0])
        return real(pipeline, X)

    monkeypatch.setattr(serve, "predict_stack_batch", recording)
    return sizes


@pytest.fixture(scope="module")
def fitted():
    revisions, labels = labeled_corpus_for_pipeline()
    pipeline, schema = small_pipeline(revisions, labels)
    return revisions, pipeline, schema


def test_the_client_scores_a_whole_window_as_one_block(fitted, blocks):
    revisions, pipeline, schema = fitted
    window = revisions[:16]
    server = FakeServer(rev_lines(window), 16, b"END\n")
    status = run_client(pipeline, server.connect, timeout=10.0)
    answers = server.join()
    assert status == 0
    assert blocks == [16]
    assert answers == [alone(pipeline, schema, r) for r in window]


@pytest.mark.parametrize(
    "tail, status, message",
    [
        (b"END\n", 0, None),
        (b"ERROR\tgo away\n", 1, "server error: ERROR\tgo away"),
        (b"HELLO\n", 1, "malformed server line: 'HELLO'"),
        (b"REV\t\xff\xfe\n", 1, "server sent a line that is not UTF-8 after 3 answers"),
        (b"REV\t7\tno meta\n", 1, "connection failed after 3 answers: expected 4 tab-separated"),
    ],
)
def test_revisions_before_the_last_line_are_answered_first(
    fitted, blocks, capsys, tail, status, message
):
    revisions, pipeline, schema = fitted
    server = FakeServer(rev_lines(revisions[:3]) + tail)
    assert run_client(pipeline, server.connect, timeout=10.0) == status
    answers = server.join()
    assert blocks == [3]
    assert answers == [alone(pipeline, schema, r) for r in revisions[:3]]
    err = capsys.readouterr().err
    assert (message in err) if message else err == ""


def test_a_line_split_across_two_writes_is_scored_once_complete(fitted, blocks):
    revisions, pipeline, schema = fitted
    line = rev_lines(revisions[:1])
    server = FakeServer(line[:20], 0.2, line[20:], 1, b"END\n")
    assert run_client(pipeline, server.connect, timeout=10.0) == 0
    assert server.join() == [alone(pipeline, schema, revisions[0])]
    assert blocks == [1]


def test_a_flooding_server_is_cut_off_with_bounded_memory(fitted, capsys):
    _, pipeline, _ = fitted
    flood = b"x" * (8 << 20)  # 8 MiB on one line, never an LF
    server = FakeServer(b"REV\t" + flood)
    status, elapsed, peak = measured(lambda: run_client(pipeline, server.connect, timeout=10.0))
    server.join()
    assert status == 1
    assert (
        f"connection failed after 0 answers: protocol line longer than {MAX_PROTOCOL_LINE} bytes"
        in capsys.readouterr().err
    )
    assert elapsed < 5.0
    assert peak < 8 * MAX_PROTOCOL_LINE
