"""One rev_id rule for every keyed input: corpus, truth and scores lines and ``SCORE`` answers.

A rev_id is ASCII digits below 2^63, so that it fits the int64 arrays a
scored set is built from; a larger one is refused naming its line.
"""

import pytest

from tests._util import rev
from tests.test_serve import ServerThread, connect, read_line
from vandalstack import cli
from vandalstack.corpus import load_corpus, load_labels, parse_rev_id
from vandalstack.errors import MalformedLine, ProtocolViolation
from vandalstack.evaluation import load_scores

LARGEST = (1 << 63) - 1
REFUSED = f"rev_id must be ASCII digits below 2^63, got '{LARGEST + 1}'"


def read_corpus(tmp_path, rev_id):
    path = tmp_path / "corpus.tsv"
    path.write_text(f"1\tfirst\t0\t0,,,,,,\n{rev_id}\tsecond\t1\t0,,,,,,\n", encoding="utf-8")
    skipped = load_corpus(path)  # the skip policy counts a refused line as malformed
    assert [r.rev_id for r in skipped.revisions] == [1, rev_id][: 2 - skipped.malformed_count]
    return load_corpus(path, on_malformed="abort").revisions[-1].rev_id


def read_truth(tmp_path, rev_id):
    path = tmp_path / "truth.tsv"
    path.write_text(f"1\t0\n{rev_id}\t1\n", encoding="utf-8")
    return max(load_labels(path))


def read_scores(tmp_path, rev_id):
    path = tmp_path / "scores.tsv"
    path.write_text(f"1\t0.25\n{rev_id}\t0.75\n", encoding="utf-8")
    return max(load_scores(path))


def read_answer(tmp_path, rev_id):
    st = ServerThread([rev(1), rev(LARGEST)], {1: False, LARGEST: True}, window=2)
    sock, reader = connect(st.address)
    with sock:
        assert [read_line(reader)[:4] for _ in range(2)] == ["REV\t", "REV\t"]
        sock.sendall(f"SCORE\t1\t0.25\nSCORE\t{rev_id}\t0.75\n".encode())
        reply = read_line(reader)
    st.join()
    if st.error is not None:
        assert reply == f"ERROR\t{st.error}"
        raise st.error
    assert reply == "END" and st.result.report.auc == 1.0
    return max(st.result.scores)


@pytest.mark.parametrize(
    "read, where",
    [
        (read_corpus, "line 2: "),
        (read_truth, "line 2: "),
        (read_scores, "line 2: "),
        (read_answer, ""),  # a protocol line has no number
    ],
)
def test_a_rev_id_below_2_63_is_read_and_2_63_is_refused(tmp_path, read, where):
    assert read(tmp_path, LARGEST) == LARGEST
    with pytest.raises((MalformedLine, ProtocolViolation)) as info:
        read(tmp_path, LARGEST + 1)
    assert str(info.value) == where + REFUSED


def test_the_rule_counts_digits_not_characters():
    # int() alone refuses a string of over 4,300 digits with a ValueError
    assert parse_rev_id("0" * 5000 + "7") == 7
    for bad in ("", "-1", "+1", " 1", "9" * 20, "1" + "0" * 5000):
        with pytest.raises(MalformedLine, match="line 4: rev_id must be"):
            parse_rev_id(bad, 4)


@pytest.mark.parametrize("holders", [("scores",), ("truth",), ("scores", "truth")])
def test_evaluate_refuses_a_rev_id_of_2_63_naming_its_line(tmp_path, capsys, holders):
    paths = {}
    for name, value in (("scores", "0.5"), ("truth", "1")):
        ids = [1, 2] + ([LARGEST + 1] if name in holders else [3])
        paths[name] = tmp_path / f"{name}.tsv"
        paths[name].write_text(
            "".join(f"{rev_id}\t{value if rev_id > 1 else 0}\n" for rev_id in ids),
            encoding="utf-8",
        )
    rc = cli.main(
        ["evaluate", "--scores", str(paths["scores"]), "--truth", str(paths["truth"]),
         "--report", str(tmp_path / "report.txt")]
    )
    assert rc == 1
    assert capsys.readouterr().err == f"error: line 3: {REFUSED}\n"


def test_serve_refuses_a_truth_file_holding_2_63_before_it_listens(tmp_path, capsys):
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text(f"1\ta\t0\t0,,,,,,\n{LARGEST + 1}\tb\t0\t0,,,,,,\n", encoding="utf-8")
    truth = tmp_path / "truth.tsv"
    truth.write_text(f"1\t0\n{LARGEST + 1}\t1\n", encoding="utf-8")
    assert cli.main(["serve", "--corpus", str(corpus), "--truth", str(truth)]) == 1
    assert capsys.readouterr().err == f"error: line 2: {REFUSED}\n"
