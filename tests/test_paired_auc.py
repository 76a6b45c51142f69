"""``tools/paired_auc.py``: two source trees scored on the same splits, paired by data seed."""

import importlib.util
import sys
from pathlib import Path

import pytest
from perfbench.corpusgen import CorpusSpec

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "paired_auc.py"
SMALL = CorpusSpec(n=1000, holdout=0.5, q=0.004)


def load_tool():
    spec = importlib.util.spec_from_file_location("paired_auc", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_tree_paired_with_itself_scores_the_same_on_every_seed(capsys):
    tool = load_tool()
    sides = (tool.load_package(ROOT / "src", "paired_auc_a"), tool.load_package(ROOT / "src", "paired_auc_b"))
    rows = tool.paired(sides, [3, 4], SMALL)
    assert capsys.readouterr().out == ""  # the commands' own output goes to stderr
    assert [seed for seed, _, _ in rows] == [3, 4]
    for _, parent, change in rows:
        assert 0.5 < parent <= 1.0 and parent == change
    assert tool.summary(rows) == (0.0, 0)


def test_summary_takes_the_median_difference_and_counts_the_lower_seeds():
    tool = load_tool()
    rows = [(1, 0.9, 0.8), (2, 0.9, 0.95), (3, 0.8, 0.7), (4, 0.7, 0.7)]
    median, lower = tool.summary(rows)
    assert median == pytest.approx(-0.05) and lower == 2


def test_sign_interval_takes_order_statistics_by_the_binomial_tail():
    tool = load_tool()
    diffs = [i / 1000 for i in range(20, 0, -1)]
    # n = 20: P(B <= 5) = 0.0207 <= 0.025 < P(B <= 6), so k = 6
    low, high, coverage = tool.sign_interval(diffs)
    assert (low, high) == (0.006, 0.015)
    assert round(coverage, 4) == 0.9586
    assert tool.interval_line(diffs) == "interval [+0.006000, +0.015000] coverage 0.9586"
    # n = 6: P(B <= 0) = 1/64, so k = 1 and the interval spans every difference
    assert tool.sign_interval([0.3, -0.1, 0.2, 0.0, -0.4, 0.1]) == (-0.4, 0.3, 1.0 - 2.0 / 64)
    # n = 5: P(B <= 0) = 1/32 > 0.025
    assert tool.sign_interval([0.1] * 5) is None
    assert tool.interval_line([0.1] * 5) == "interval none"


def test_usage_without_two_trees_and_a_seed(capsys):
    assert load_tool().main(["a", "b"]) == 2
    assert "PARENT_SRC CHANGE_SRC SEED" in capsys.readouterr().err


@pytest.fixture(autouse=True)
def forget_loaded_packages():
    yield
    for name in [n for n in sys.modules if n.startswith("paired_auc_")]:
        del sys.modules[name]
