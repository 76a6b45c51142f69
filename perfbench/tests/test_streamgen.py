"""The open-loop sender flags every kind of bad answer a client can give."""

from __future__ import annotations

import socket
import threading

from perfbench.streamgen import parity_failures, run_open_loop
from vandalstack.corpus import Revision


def _revisions(n):
    return [Revision(rev_id=500 + i, comment=f"edit {i}") for i in range(n)]


def _serve(revisions, answer, rate=500.0, drain_timeout=2.0):
    """Run the sender against a fake client whose replies ``answer`` makes."""
    with socket.create_server(("127.0.0.1", 0)) as lsock:
        port = lsock.getsockname()[1]

        def client():
            with socket.create_connection(("127.0.0.1", port)) as sock, \
                    sock.makefile("rb") as reader:
                for raw in reader:
                    line = raw.decode().rstrip("\n")
                    if line == "END":
                        return
                    rev_id = int(line.split("\t")[1])
                    for reply in answer(rev_id):
                        sock.sendall(reply.encode() + b"\n")

        thread = threading.Thread(target=client, daemon=True)
        thread.start()
        conn, _ = lsock.accept()
        with conn:
            result = run_open_loop(conn, revisions, rate, window=4, drain_timeout=drain_timeout)
        thread.join(timeout=10)
        assert not thread.is_alive()
    return result


def test_honest_client_has_no_failures():
    result = _serve(_revisions(30), lambda r: [f"SCORE\t{r}\t0.500000000"])
    assert result.failures == []
    assert result.sent == result.answered == 30
    assert len(result.latency) == 30 and max(result.in_flight) <= 4


def test_wrong_duplicate_out_of_range_and_missing_answers_are_flagged():
    def answer(rev_id):
        if rev_id == 501:
            return [f"SCORE\t{rev_id}\t0.1", f"SCORE\t{rev_id}\t0.1"]  # duplicate
        if rev_id == 502:
            return [f"SCORE\t{rev_id}\t1.5"]  # out of range
        if rev_id == 503:
            return ["SCORE\t999999\t0.2"]  # unknown id, and 503 never answered
        if rev_id == 504:
            return [f"SCORE {rev_id} 0.2"]  # malformed
        return [f"SCORE\t{rev_id}\t0.3"]

    result = _serve(_revisions(8), answer, drain_timeout=0.5)
    kinds = sorted(f.split(" ")[0] for f in result.failures)
    assert kinds == ["duplicate", "malformed", "no", "no", "no", "score", "unknown"]
    assert result.answered == 5


def test_parity_compares_score_strings_exactly():
    expected = {1: "0.500000000", 2: "0.250000000"}
    assert parity_failures({1: "0.500000000"}, expected) == []
    assert len(parity_failures({1: "0.50000000", 2: "0.250000000", 3: "0.1"}, expected)) == 2
