"""Tests for the synthetic benchmark corpus generator."""

from __future__ import annotations

from vandalstack import benchmark
from vandalstack.corpus import format_line, load_corpus, load_labels

import pytest


def _corpus_lines(examples):
    return [format_line(ex.revision) for ex in examples]


def test_exact_positive_count():
    for n, rate in [(100, 0.1), (250, 0.02), (37, 0.5), (9, 0.0)]:
        examples = benchmark.make_benchmark(n=n, positive_rate=rate, seed=1)
        assert len(examples) == n
        positives = sum(1 for ex in examples if ex.label)
        assert positives == round(n * rate)
        assert [ex.revision.rev_id for ex in examples] == list(
            range(100000, 100000 + n)
        )


def test_determinism_and_seed_sensitivity():
    a = benchmark.make_benchmark(n=80, positive_rate=0.1, seed=3)
    b = benchmark.make_benchmark(n=80, positive_rate=0.1, seed=3)
    assert _corpus_lines(a) == _corpus_lines(b)
    assert [ex.label for ex in a] == [ex.label for ex in b]
    c = benchmark.make_benchmark(n=80, positive_rate=0.1, seed=4)
    assert _corpus_lines(a) != _corpus_lines(c)


def test_xor_signal_in_comment_text():
    # the label is exactly (has a digit) xor (has an uppercase letter):
    # positives always carry one of the two markers, negatives none or both
    examples = benchmark.make_benchmark(n=2000, positive_rate=0.25, seed=11)
    seen_both = 0
    for ex in examples:
        comment = ex.revision.comment
        has_digit = any(ch.isdigit() for ch in comment)
        has_upper = any(ch.isupper() for ch in comment)
        assert ex.label == (has_digit != has_upper)
        if has_digit and has_upper:
            seen_both += 1
    # the confounder pattern (both markers on a negative) must actually
    # occur, otherwise either marker alone would separate the classes
    assert seen_both > 0


def test_geo_fields_within_known_alphabets():
    examples = benchmark.make_benchmark(n=200, positive_rate=0.1, seed=5)
    for ex in examples:
        rev = ex.revision
        assert rev.country in benchmark._COUNTRIES
        assert rev.continent in benchmark._CONTINENTS
        assert rev.timezone in benchmark._TIMEZONES
        assert rev.region in benchmark._REGIONS
        assert rev.city in benchmark._CITIES
        assert rev.county is None
        assert rev.user_tag is None


def test_split_holdout_sizes_and_order():
    examples = benchmark.make_benchmark(n=40, positive_rate=0.1, seed=2)
    train, test = benchmark.split_holdout(examples, 0.25)
    assert len(train) == 30
    assert len(test) == 10
    assert train + test == examples
    train_ids = {ex.revision.rev_id for ex in train}
    test_ids = {ex.revision.rev_id for ex in test}
    assert not train_ids & test_ids


def test_split_holdout_rejects_bad_fractions():
    examples = benchmark.make_benchmark(n=10, positive_rate=0.1, seed=2)
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            benchmark.split_holdout(examples, bad)
    # a fraction that rounds to an empty split is rejected too
    with pytest.raises(ValueError):
        benchmark.split_holdout(examples[:2], 0.05)


def test_write_split_round_trip(tmp_path):
    examples = benchmark.make_benchmark(n=30, positive_rate=0.2, seed=6)
    benchmark.write_split(examples, tmp_path, "foo")
    load = load_corpus(tmp_path / "foo_corpus.tsv")
    assert load.malformed_count == 0
    assert [format_line(r) for r in load.revisions] == _corpus_lines(examples)
    labels = load_labels(tmp_path / "foo_truth.tsv")
    assert labels == {ex.revision.rev_id: ex.label for ex in examples}


def test_main_writes_corpus_and_splits(tmp_path, capsys):
    out = tmp_path / "bench"
    rc = benchmark.main(
        ["--out", str(out), "--n", "60", "--positive-rate", "0.1",
         "--seed", "2", "--holdout", "0.25"]
    )
    assert rc == 0
    assert "wrote 60 examples (6 positive)" in capsys.readouterr().out

    bench = load_corpus(out / "bench_corpus.tsv").revisions
    train = load_corpus(out / "train_corpus.tsv").revisions
    test = load_corpus(out / "test_corpus.tsv").revisions
    assert len(bench) == 60
    assert len(train) == 45
    assert len(test) == 15
    assert [r.rev_id for r in train] + [r.rev_id for r in test] == [
        r.rev_id for r in bench
    ]
    truth = load_labels(out / "bench_truth.tsv")
    assert sum(truth.values()) == 6


def test_main_without_holdout_writes_only_bench(tmp_path):
    out = tmp_path / "plain"
    rc = benchmark.main(["--out", str(out), "--n", "12", "--seed", "1"])
    assert rc == 0
    assert (out / "bench_corpus.tsv").exists()
    assert not (out / "train_corpus.tsv").exists()
    assert not (out / "test_corpus.tsv").exists()


@pytest.mark.parametrize(
    "args, flag",
    [
        (["--holdout", "1.5"], "--holdout"),
        (["--holdout", "0"], "--holdout"),
        (["--holdout", "nan"], "--holdout"),
        (["--n", "3", "--holdout", "0.1"], "--holdout"),
        (["--positive-rate", "2"], "--positive-rate"),
        (["--positive-rate", "-1"], "--positive-rate"),
        (["--positive-rate", "nan"], "--positive-rate"),
        (["--n", "-1"], "--n"),
    ],
)
def test_main_refuses_a_bad_flag_naming_it_and_writes_nothing(tmp_path, capsys, args, flag):
    out = tmp_path / "refused"
    with pytest.raises(SystemExit) as info:
        benchmark.main(["--out", str(out), "--n", "20", *args])
    assert info.value.code == 2
    assert f"error: {flag} " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n, rate", [(-1, 0.1), (10, 1.5), (10, -0.1), (10, float("nan"))])
def test_make_benchmark_refuses_a_bad_size_or_rate(n, rate):
    with pytest.raises(ValueError, match="n must be" if n < 0 else "positive_rate must be"):
        benchmark.make_benchmark(n=n, positive_rate=rate, seed=1)


def test_main_takes_the_bounds_of_each_flag(tmp_path):
    for rate, positives in (("0", 0), ("1", 20)):
        out = tmp_path / f"rate{rate}"
        assert benchmark.main(
            ["--out", str(out), "--n", "20", "--positive-rate", rate, "--holdout", "0.5"]
        ) == 0
        assert sum(load_labels(out / "bench_truth.tsv").values()) == positives
