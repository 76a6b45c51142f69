"""``tools/score_cpu.py``: two source trees loaded side by side, scoring timed in pairs by block size."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "score_cpu.py"

# a package with the stacking interface the tool reads: a pipeline loader
# and a block scorer
STACKING = '''import numpy as np


def load_pipeline(path):
    return {{"scale": float(open(path).read())}}


def predict_stack_batch(pipeline, X):
    return {score}
'''


def load_tool():
    spec = importlib.util.spec_from_file_location("score_cpu", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_package(root: Path, score: str) -> Path:
    package = root / "vandalstack"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("", encoding="utf-8")
    (package / "stacking.py").write_text(STACKING.format(score=score), encoding="utf-8")
    return root


def pipelines(tool, sides, tmp_path, scale="0.5"):
    path = tmp_path / "pipeline.txt"
    path.write_text(scale, encoding="utf-8")
    return tuple(
        importlib.import_module(side.__name__ + ".stacking").load_pipeline(path) for side in sides
    )


def test_blocks_are_whole_and_cover_the_least_rows():
    tool = load_tool()
    X = np.arange(8000.0).reshape(4000, 2)
    for size in tool.BLOCKS:
        blocks = tool.blocks_of(X, size)
        assert all(block.shape == (size, 2) for block in blocks)
        assert sum(block.shape[0] for block in blocks) >= min(size, tool.ROWS)
        assert np.array_equal(np.concatenate(blocks), X[: len(blocks) * size])
    assert len(tool.blocks_of(X, 1)) == tool.ROWS
    assert len(tool.blocks_of(X, 81)) == tool.ROWS // 81


def test_two_trees_load_side_by_side_and_their_scores_compare(tmp_path):
    tool = load_tool()
    parent = tool.load_package(write_package(tmp_path / "a", "X.sum(axis=1) * pipeline['scale']"), "score_cpu_a")
    change = tool.load_package(write_package(tmp_path / "b", "pipeline['scale'] * X.sum(axis=1)"), "score_cpu_b")
    sides = (parent, change)
    X = np.arange(12.0).reshape(6, 2)
    rows = tool.compare(sides, pipelines(tool, sides, tmp_path), X, (1, 4), pairs=3)
    assert sorted(rows) == [1, 4]
    assert rows[1]["rows"] == 6 and rows[4]["rows"] == 4
    for row in rows.values():
        assert row["same"] is True
        assert 0.0 <= row["won"] <= 1.0 and row["parent"] >= 0.0


def test_scores_that_differ_in_one_bit_are_reported(tmp_path):
    tool = load_tool()
    parent = tool.load_package(write_package(tmp_path / "a", "X.sum(axis=1)"), "score_cpu_c")
    # one row's score one unit in the last place higher
    change = tool.load_package(
        write_package(tmp_path / "b", "np.where(X[:, 0] == 0, X.sum(axis=1), np.nextafter(X.sum(axis=1), 9.0))"),
        "score_cpu_d",
    )
    sides = (parent, change)
    X = np.array([[0.0, 1.0], [1.0, 1.0]])
    [row] = tool.compare(sides, pipelines(tool, sides, tmp_path), X, (2,), pairs=2).values()
    assert row["same"] is False


def test_usage_without_two_trees(capsys):
    assert load_tool().main([]) == 2
    assert "PARENT_SRC CHANGE_SRC" in capsys.readouterr().err


@pytest.mark.parametrize("args", [["a", "b", "x"], ["a", "b", "7", "2.5"], ["a", "b", "-1"], ["a", "b", "7", "0"]])
def test_usage_on_a_seed_or_pairs_that_is_no_count(capsys, args):
    assert load_tool().main(args) == 2
    assert "PARENT_SRC CHANGE_SRC" in capsys.readouterr().err


@pytest.mark.parametrize("change_score, status", [("X.sum(axis=1)", 0), ("X.sum(axis=1) + 1.0", 1)])
def test_the_exit_status_says_whether_every_block_scored_the_same(
    tmp_path, monkeypatch, capsys, change_score, status
):
    tool = load_tool()
    path = tmp_path / "pipeline.txt"
    path.write_text("1.0", encoding="utf-8")
    X = np.arange(10.0).reshape(5, 2)
    monkeypatch.setattr(tool, "prepare", lambda package, seed, tmp: (path, X))
    monkeypatch.setattr(tool, "BLOCKS", (1, 5))
    parent = write_package(tmp_path / "a", "X.sum(axis=1)")
    change = write_package(tmp_path / "b", change_score)
    assert tool.main([str(parent), str(change), "3", "2"]) == status
    lines = capsys.readouterr().out.splitlines()  # the table is printed either way
    assert [line.split(" rows ")[0] for line in lines] == ["block 1", "block 5"]
    assert all(line.endswith(f" same {status == 0}") for line in lines)


@pytest.fixture(autouse=True)
def forget_loaded_packages():
    yield
    for name in [n for n in sys.modules if n.startswith(("score_cpu_", "parent_vandalstack", "change_vandalstack"))]:
        del sys.modules[name]
