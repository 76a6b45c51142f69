"""``tools/score_cpu.py``: two source trees loaded side by side, scoring and featurize timed in pairs by block size."""

import importlib.util
import re
import sys
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "score_cpu.py"

# a package with the stacking and featurize interfaces the tool reads: a
# pipeline loader and a block scorer; a revision's features and a block's
# encoding with the pipeline's schema
STACKING = '''import types

import numpy as np


def load_pipeline(path):
    scale = float(open(path).read())
    return types.SimpleNamespace(scale=scale, schema=scale)


def predict_stack_batch(pipeline, X):
    return {score}
'''
FEATURIZE = '''import numpy as np


def extract_features(rev):
    return [float(rev), 2.0 * rev]


def encode_matrix(raws, schema):
    return {encode}
'''


# one measurement's figures on a printed line: each side's median and quartiles, then the pair
FIGURES = re.compile(
    r"parent (\S+) \[(\S+) (\S+)\] change (\S+) \[(\S+) (\S+)\] diff \S+ won \S+ same (True|False)"
)


def figures(text: str) -> list[tuple[float, float, float]]:
    """Each side's (first quartile, median, third quartile) in ``text``, one measurement's figures."""
    match = FIGURES.fullmatch(text)
    assert match, text
    p, p1, p3, c, c1, c3 = map(float, match.groups()[:6])
    return [(p1, p, p3), (c1, c, c3)]


def load_tool():
    spec = importlib.util.spec_from_file_location("score_cpu", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_package(root: Path, score: str, encode: str = "np.array(raws).reshape(len(raws), 2) * schema") -> Path:
    package = root / "vandalstack"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("", encoding="utf-8")
    (package / "stacking.py").write_text(STACKING.format(score=score), encoding="utf-8")
    (package / "featurize.py").write_text(FEATURIZE.format(encode=encode), encoding="utf-8")
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
    parent = tool.load_package(write_package(tmp_path / "a", "X.sum(axis=1) * pipeline.scale"), "score_cpu_a")
    change = tool.load_package(write_package(tmp_path / "b", "pipeline.scale * X.sum(axis=1)"), "score_cpu_b")
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


def test_two_trees_featurize_side_by_side_and_their_matrices_compare(tmp_path):
    tool = load_tool()
    parent = tool.load_package(write_package(tmp_path / "a", "X.sum(axis=1)"), "score_cpu_e")
    change = tool.load_package(
        write_package(tmp_path / "b", "X.sum(axis=1)", "np.array(raws) * schema + 0.0"), "score_cpu_f"
    )
    sides = (parent, change)
    schemas = tuple(pipeline.schema for pipeline in pipelines(tool, sides, tmp_path))
    rows = tool.compare_featurize(sides, schemas, [1, 2, 3, 4, 5], (1, 2), pairs=3)
    assert rows[1]["rows"] == 5 and rows[2]["rows"] == 4
    assert all(row["same"] is True for row in rows.values())
    odd = tool.load_package(
        write_package(tmp_path / "c", "X.sum(axis=1)", "np.nextafter(np.array(raws) * schema, 9.0)"), "score_cpu_g"
    )
    [row] = tool.compare_featurize((parent, odd), schemas, [1, 2], (2,), pairs=2).values()
    assert row["same"] is False


def test_cold_scoring_sleeps_the_open_loop_spacing_before_each_of_its_first_blocks(tmp_path, monkeypatch):
    tool = load_tool()
    parent = tool.load_package(write_package(tmp_path / "a", "X.sum(axis=1)"), "score_cpu_h")
    change = tool.load_package(write_package(tmp_path / "b", "X.sum(axis=1) + 1.0"), "score_cpu_i")
    sides = (parent, change)
    slept = []
    monkeypatch.setattr(tool.time, "sleep", slept.append)
    monkeypatch.setattr(tool, "COLD_BLOCKS", 3)
    X = np.arange(20.0).reshape(10, 2)
    rows = tool.compare(sides, pipelines(tool, sides, tmp_path), X, (1, 2), pairs=2, cold=True)
    # 3 blocks a measurement, 2 sides, 2 pairs, 2 block sizes
    assert slept == [tool.SPACING] * 24 and tool.SPACING == 0.05
    assert rows[1]["rows"] == 3 and rows[2]["rows"] == 6
    assert all(row["same"] is False for row in rows.values())


def run_main(tool, tmp_path, monkeypatch, change_score="X.sum(axis=1)", change_encode="np.array(raws) * schema"):
    """The exit status and printed lines of the tool on two toy packages, blocks 1 and 5, block 1 also cold."""
    path = tmp_path / "pipeline.txt"
    path.write_text("1.0", encoding="utf-8")
    monkeypatch.setattr(tool, "prepare", lambda package, seed, tmp: (path, [1, 2, 3, 4, 5]))
    monkeypatch.setattr(tool, "BLOCKS", (1, 5))
    monkeypatch.setattr(tool, "SPACING", 0.0)
    parent = write_package(tmp_path / "a", "X.sum(axis=1)")
    change = write_package(tmp_path / "b", change_score, change_encode)
    return tool.main([str(parent), str(change), "3", "2"])


@pytest.mark.parametrize(
    "change_score, change_encode, status",
    [
        ("X.sum(axis=1)", "np.array(raws) * schema", 0),
        ("X.sum(axis=1) + 1.0", "np.array(raws) * schema", 1),
        ("X.sum(axis=1)", "np.array(raws) * schema + 1.0", 1),
    ],
)
def test_the_exit_status_says_whether_every_block_scored_and_featurized_the_same(
    tmp_path, monkeypatch, capsys, change_score, change_encode, status
):
    tool = load_tool()
    assert run_main(tool, tmp_path, monkeypatch, change_score, change_encode) == status
    lines = capsys.readouterr().out.splitlines()  # the table is printed either way
    assert [line.split(" rows ")[0] for line in lines] == ["block 1", "block 5"]
    scored, featurized = change_score == "X.sum(axis=1)", change_encode == "np.array(raws) * schema"
    hot, rest = zip(*(line.split(" featurize ") for line in lines))
    assert all(line.endswith(f" same {scored}") for line in hot)
    # block 1 is also scored cold, block 5 is not
    assert rest[0].split(" cold ")[0].endswith(f" same {featurized}") and rest[1].endswith(f" same {featurized}")
    assert " cold " not in rest[1]
    cold = rest[0].split(" cold ")[1]
    assert cold.startswith("rows 5 parent ") and cold.endswith(f" same {scored}")
    # every median is printed between its side's quartiles
    measured = [*(line.split(" ", 4)[4] for line in hot), rest[0].split(" cold ")[0], rest[1], cold.split(" ", 2)[2]]
    for text in measured:
        assert all(q1 <= median <= q3 for q1, median, q3 in figures(text))


def test_cold_scores_that_differ_set_the_exit_status(tmp_path, monkeypatch, capsys):
    tool = load_tool()
    score_cold = tool.score_cold

    def change_differs_when_cold(package, pipeline, blocks):
        seconds, scores = score_cold(package, pipeline, blocks)
        return seconds, scores + (package.__name__ == "change_vandalstack")

    monkeypatch.setattr(tool, "score_cold", change_differs_when_cold)
    assert run_main(tool, tmp_path, monkeypatch) == 1
    [first, second] = capsys.readouterr().out.splitlines()
    assert first.endswith(" same False") and " same False" not in first.split(" cold ")[0]
    assert " same False" not in second


@pytest.fixture(autouse=True)
def forget_loaded_packages():
    yield
    for name in [n for n in sys.modules if n.startswith(("score_cpu_", "parent_vandalstack", "change_vandalstack"))]:
        del sys.modules[name]
