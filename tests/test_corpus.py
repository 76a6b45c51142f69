"""Corpus line grammar, truth files, joining, and round trips."""

import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from vandalstack.corpus import (
    LabeledExample,
    Revision,
    format_line,
    join_labels,
    load_corpus,
    load_labels,
    parse_line,
    write_corpus,
    write_labels,
)
from vandalstack.errors import DuplicateConflict, MalformedLine

FULL_LINE = (
    "308612969\t/* wbsetclaim-create:2||1 */ [[Property:P800]]: [[Q5974487]]"
    "\t1\t0,GB,EU,GMT,EN,LEEDS,WEST YORKSHIRE,"
)


def test_parse_full_line():
    rev = parse_line(FULL_LINE)
    assert rev.rev_id == 308612969
    assert rev.comment == "/* wbsetclaim-create:2||1 */ [[Property:P800]]: [[Q5974487]]"
    assert rev.has_contributor is True
    assert rev.registered is False
    assert rev.country == "GB"
    assert rev.continent == "EU"
    assert rev.timezone == "GMT"
    assert rev.region == "EN"
    assert rev.city == "LEEDS"
    assert rev.county == "WEST YORKSHIRE"
    assert rev.user_tag is None  # trailing comma -> empty tag -> missing


def test_parse_empty_fields_line():
    rev = parse_line("7\t\t0\t1,,,,,,,")
    assert rev.rev_id == 7
    assert rev.comment == ""
    assert rev.has_contributor is False
    assert rev.registered is True
    for name in ("country", "continent", "timezone", "region", "city", "county"):
        assert getattr(rev, name) is None
    assert rev.user_tag is None


def test_parse_user_tag_keeps_commas():
    rev = parse_line("9\tx\t0\t1,,,,,,,0Auth CID: 378, extra")
    assert rev.user_tag == "0Auth CID: 378, extra"


def test_parse_seven_field_meta_has_no_tag():
    rev = parse_line("5\tc\t0\t0,US,NA,PST,CA,LA,ORANGE")
    assert rev.county == "ORANGE"
    assert rev.user_tag is None


def test_parse_rejects_bad_rev_id():
    with pytest.raises(MalformedLine):
        parse_line("abc\tx\t1\t0,,,,,,")
    with pytest.raises(MalformedLine):
        parse_line("1²\tx\t1\t0,,,,,,")  # a digit that int() refuses


def test_parse_rejects_wrong_field_counts():
    with pytest.raises(MalformedLine):
        parse_line("1\tcomment only")
    with pytest.raises(MalformedLine):
        parse_line("1\tc\t1\t0,GB,EU")  # meta too short
    with pytest.raises(MalformedLine):
        parse_line("1\tc\t2\t0,,,,,,")  # has_contributor not 0/1
    with pytest.raises(MalformedLine):
        parse_line("1\tc\t1\tx,,,,,,")  # registered not 0/1


def test_parse_reports_line_number():
    with pytest.raises(MalformedLine) as excinfo:
        parse_line("zzz\tc\t1\t0,,,,,,", line_no=17)
    assert excinfo.value.line_no == 17


def test_round_trip_random_revisions():
    rng = np.random.default_rng(5)
    alphabet = "abc XYZ123!().#/:"
    geo_pool = [None, "GB", "US", "WEST YORKSHIRE", "A B"]
    for _ in range(300):
        comment = "".join(
            alphabet[i] for i in rng.integers(0, len(alphabet), size=rng.integers(0, 30))
        )
        rev = Revision(
            rev_id=int(rng.integers(0, 1 << 40)),
            comment=comment,
            has_contributor=bool(rng.integers(2)),
            registered=bool(rng.integers(2)),
            country=geo_pool[int(rng.integers(len(geo_pool)))],
            continent=geo_pool[int(rng.integers(len(geo_pool)))],
            timezone=geo_pool[int(rng.integers(len(geo_pool)))],
            region=geo_pool[int(rng.integers(len(geo_pool)))],
            city=geo_pool[int(rng.integers(len(geo_pool)))],
            county=geo_pool[int(rng.integers(len(geo_pool)))],
            user_tag=[None, "tag", "a,b", "0Auth CID: 378"][int(rng.integers(4))],
        )
        assert parse_line(format_line(rev)) == rev


def test_format_line_rejects_separator_bytes():
    with pytest.raises(ValueError):
        format_line(Revision(rev_id=1, comment="a\tb"))
    with pytest.raises(ValueError):
        format_line(Revision(rev_id=1, country="a,b"))


@pytest.mark.parametrize(
    "line",
    [
        "1\tab\rcd\t0\t0,,,,,,",  # comment
        "1\tc\t0\t0,,,,,A\rB,",  # city
        "1\tc\t0\t0,,,,,,,tag\r",  # user tag
        "1\tc\t0\r\t0,,,,,,",  # has_contributor
        "1\tc\t0\t0,,,,,,\n",
    ],
)
def test_parse_line_rejects_a_line_break_inside_a_field(line):
    with pytest.raises(MalformedLine) as info:
        parse_line(line, line_no=4)
    assert info.value.line_no == 4


def test_format_line_refuses_what_parse_line_rejects():
    for bad in (
        Revision(rev_id=1, comment="a\rb"),
        Revision(rev_id=1, city="A\rB"),
        Revision(rev_id=1, user_tag="t\tu"),
        Revision(rev_id=1, user_tag="t\ru"),
    ):
        with pytest.raises(ValueError):
            format_line(bad)


def test_a_cr_inside_a_corpus_line_is_malformed():
    text = "1\ta\t0\t0,,,,,,\r\n2\tab\rcd\t0\t0,,,,,,\r\n3\tc\t0\t0,,,,,,\n"
    loaded = load_corpus(io.StringIO(text))
    assert [r.rev_id for r in loaded.revisions] == [1, 3]
    assert loaded.malformed_count == 1
    with pytest.raises(MalformedLine) as info:
        load_corpus(io.StringIO(text), on_malformed="abort")
    assert info.value.line_no == 2


def test_blank_lines_are_malformed_corpus_and_truth_lines():
    loaded = load_corpus(io.StringIO("1\ta\t0\t0,,,,,,\n\n2\tb\t0\t0,,,,,,\n"))
    assert [r.rev_id for r in loaded.revisions] == [1, 2]
    assert loaded.malformed_count == 1
    with pytest.raises(MalformedLine) as info:
        load_labels(io.StringIO("5\t1\n\n6\t0\n"))
    assert info.value.line_no == 2


def test_load_corpus_order_and_counts():
    text = "\n".join(
        [
            "3\tthird? no, first\t0\t0,,,,,,",
            "1\tsecond\t0\t0,,,,,,",
            "2\tthird\t1\t1,US,NA,PST,CA,LA,,",
        ]
    )
    loaded = load_corpus(io.StringIO(text + "\n"))
    assert [r.rev_id for r in loaded.revisions] == [3, 1, 2]
    assert loaded.malformed_count == 0


def test_load_corpus_empty():
    loaded = load_corpus(io.StringIO(""))
    assert loaded.revisions == []
    assert loaded.malformed_count == 0


def test_load_corpus_skip_counts_malformed():
    text = "1\ta\t0\t0,,,,,,\nBAD LINE\n2\tb\t0\t0,,,,,,\n"
    loaded = load_corpus(io.StringIO(text))
    assert [r.rev_id for r in loaded.revisions] == [1, 2]
    assert loaded.malformed_count == 1


def test_load_corpus_abort_raises():
    text = "1\ta\t0\t0,,,,,,\nBAD LINE\n"
    with pytest.raises(MalformedLine):
        load_corpus(io.StringIO(text), on_malformed="abort")
    with pytest.raises(ValueError):
        load_corpus(io.StringIO(text), on_malformed="explode")


def test_load_labels_spellings_and_duplicates():
    assert load_labels(io.StringIO("5\t1\n6\t0\n")) == {5: True, 6: False}
    assert load_labels(io.StringIO("5\t1\n5\t1\n")) == {5: True}
    spelled = load_labels(
        io.StringIO("1\ttrue\n2\tFalse\n3\tROLLBACK_REVERTED\n4\tregular\n")
    )
    assert spelled == {1: True, 2: False, 3: True, 4: False}


def test_load_labels_conflict_raises():
    with pytest.raises(DuplicateConflict):
        load_labels(io.StringIO("5\t1\n5\t0\n"))


def test_load_labels_rejects_unknown_spelling():
    with pytest.raises(MalformedLine):
        load_labels(io.StringIO("5\tmaybe\n"))


def test_load_labels_strips_only_ascii_spaces_around_a_label():
    assert load_labels(io.StringIO("5\t  yes \n6\tno \n")) == {5: True, 6: False}
    # str.strip() and str.lower() would make each of these a label
    for text in ("1\x1c", "\x1ftrue", "0\x85", "\u2028yes", "ROLLBAC\u212a_REVERTED"):
        with pytest.raises(MalformedLine, match="line 2: unknown label spelling"):
            load_labels(io.StringIO(f"4\t1\n5\t{text}\n"))


def test_join_labels_counts_and_order():
    revisions = [Revision(rev_id=i) for i in (10, 11, 12)]
    joined = join_labels(revisions, {10: True, 12: False})
    assert [(ex.revision.rev_id, ex.label) for ex in joined.examples] == [
        (10, True),
        (12, False),
    ]
    assert joined.unlabeled_count == 1

    all_joined = join_labels(revisions, {10: True, 11: True, 12: False})
    assert [ex.revision.rev_id for ex in all_joined.examples] == [10, 11, 12]
    assert all_joined.unlabeled_count == 0

    assert join_labels(revisions, {}).examples == []


def test_write_and_reload_files(tmp_path):
    revisions = [
        parse_line(FULL_LINE),
        Revision(rev_id=2, comment="plain", registered=True),
    ]
    examples = [LabeledExample(revisions[0], True), LabeledExample(revisions[1], False)]
    corpus_path = tmp_path / "c.tsv"
    truth_path = tmp_path / "t.tsv"
    write_corpus(revisions, corpus_path)
    write_labels(examples, truth_path)
    assert load_corpus(corpus_path).revisions == revisions
    assert load_labels(truth_path) == {308612969: True, 2: False}


def test_importing_the_corpus_module_loads_no_model_or_protocol_code():
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, vandalstack.corpus; print(*sorted(m for m in sys.modules if 'vandal' in m))"
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    loaded = done.stdout.split()
    assert "vandalstack.corpus" in loaded
    for module in ("vandalstack.serve", "vandalstack.stacking", "vandalstack.learners"):
        assert module not in loaded
