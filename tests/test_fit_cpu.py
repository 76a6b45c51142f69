"""``tools/fit_cpu.py``: two source trees loaded side by side, fits timed in pairs."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "fit_cpu.py"

# a package with the learners interface the tool reads: a model class and
# model_to_lines, reached through a relative import
LEARNERS = """from .model import Model, model_to_lines
"""
MODEL = '''class Model:
    def __init__(self, scale=1.0, seed=0):
        self.scale, self.seed = scale, seed

    def get_params(self):
        return {{"scale": self.scale, "seed": self.seed}}

    def fit(self, X, y):
        self.total_ = {total}
        return self


def model_to_lines(model):
    return [f"total {{model.total_!r}}"]
'''


def load_tool():
    spec = importlib.util.spec_from_file_location("fit_cpu", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_package(root: Path, total: str) -> Path:
    learners = root / "vandalstack" / "learners"
    learners.mkdir(parents=True)
    (root / "vandalstack" / "__init__.py").write_text("", encoding="utf-8")
    (learners / "__init__.py").write_text(LEARNERS, encoding="utf-8")
    (learners / "model.py").write_text(MODEL.format(total=total), encoding="utf-8")
    return root


def test_paired_summary_takes_medians_and_the_share_of_pairs_won():
    tool = load_tool()
    row = tool.paired_summary([1.0, 2.0, 3.0, 4.0], [0.5, 2.5, 2.0, 3.0])
    assert row == {"parent": 2.5, "change": 2.25, "diff": -0.75, "won": 0.75}


def test_two_trees_load_side_by_side_and_their_fits_compare(tmp_path):
    tool = load_tool()
    parent = tool.load_package(write_package(tmp_path / "a", "float(X.sum()) * self.scale"), "fit_cpu_a")
    change = tool.load_package(write_package(tmp_path / "b", "float(X.sum() * self.scale)"), "fit_cpu_b")
    assert parent.__name__ == "fit_cpu_a" and change.__name__ == "fit_cpu_b"
    X = np.arange(6.0).reshape(3, 2)
    fits = [("Model", {"scale": 2.0, "seed": 1}, X, np.zeros(3)),
            ("Model", {"scale": 2.0, "seed": 2}, X, np.zeros(3)),
            ("Model", {"scale": 0.1, "seed": 1}, X, np.zeros(3))]
    assert tool.family(fits[0]) == tool.family(fits[1]) == "Model scale=2.0 3x2"
    rows = tool.compare((parent, change), fits, pairs=3)
    # the families in the order met, then all of them
    assert list(rows) == ["Model scale=2.0 3x2", "Model scale=0.1 3x2", "all"]
    assert rows["Model scale=2.0 3x2"]["fits"] == 2 and rows["all"]["fits"] == 3
    # 15.0 * 0.1 and 15.0 * 0.1 agree; the texts are compared fit by fit
    assert all(row["same"] for row in rows.values())
    for row in rows.values():
        assert 0.0 <= row["won"] <= 1.0 and row["parent"] >= 0.0 and len(row["peak_mb"]) == 2


def test_a_model_text_that_differs_is_reported(tmp_path):
    tool = load_tool()
    parent = tool.load_package(write_package(tmp_path / "a", "float(X.sum())"), "fit_cpu_c")
    change = tool.load_package(write_package(tmp_path / "b", "float(X.sum()) + 1.0"), "fit_cpu_d")
    fits = [("Model", {"scale": 1.0, "seed": 0}, np.ones((2, 2)), np.zeros(2)),
            ("Model", {"scale": 2.0, "seed": 0}, np.ones((2, 2)), np.zeros(2))]
    rows = tool.compare((parent, change), fits, pairs=2)
    assert [row["same"] for row in rows.values()] == [False, False, False]


def test_the_all_row_pairs_the_cpu_of_every_fit(tmp_path, monkeypatch):
    tool = load_tool()
    parent = tool.load_package(write_package(tmp_path / "a", "0.0"), "fit_cpu_e")
    change = tool.load_package(write_package(tmp_path / "b", "0.0"), "fit_cpu_f")
    fits = [("Model", {"scale": s, "seed": 0}, np.ones((2, 2)), np.zeros(2)) for s in (1.0, 2.0)]
    # per fit and side, CPU seconds that depend on the pair: the change is
    # slower on the first family and faster on the second, faster in all
    # but the last pair
    seconds = {(parent, 1.0): [1.0, 1.0, 1.0], (parent, 2.0): [2.0, 2.0, 2.0],
               (change, 1.0): [1.5, 1.5, 1.5], (change, 2.0): [0.5, 1.0, 3.0]}
    calls = {}

    def fit_once(package, fit):
        key = (package, fit[1]["scale"])
        calls[key] = calls.get(key, 0) + 1
        return seconds[key][min(calls[key], 3) - 1], ["same"]

    monkeypatch.setattr(tool, "fit_once", fit_once)
    rows = tool.compare((parent, change), fits, pairs=3)
    assert rows["all"] == {
        "parent": 3.0, "change": 2.5, "diff": -0.5, "won": 2 / 3, "fits": 2, "same": True,
        "peak_mb": rows["all"]["peak_mb"],
    }
    assert rows["Model scale=1.0 2x2"]["won"] == 0.0
    assert rows["all"]["peak_mb"] == [max(row["peak_mb"][side] for row in rows.values()) for side in (0, 1)]


def test_usage_without_two_trees(capsys):
    assert load_tool().main([]) == 2
    assert "PARENT_SRC CHANGE_SRC" in capsys.readouterr().err


@pytest.mark.parametrize("args", [["a", "b", "x"], ["a", "b", "81", "2.5"], ["a", "b", "-1"], ["a", "b", "81", "0"]])
def test_usage_on_a_seed_or_pairs_that_is_no_count(capsys, args):
    assert load_tool().main(args) == 2
    assert "PARENT_SRC CHANGE_SRC" in capsys.readouterr().err


@pytest.mark.parametrize("change_total, status", [("float(X.sum())", 0), ("float(X.sum()) + 1.0", 1)])
def test_the_exit_status_says_whether_every_family_wrote_the_same_text(
    tmp_path, monkeypatch, capsys, change_total, status
):
    tool = load_tool()
    fits = [("Model", {"scale": 1.0, "seed": 0}, np.ones((2, 2)), np.zeros(2))]
    monkeypatch.setattr(tool, "capture", lambda package, seed: fits)
    parent = write_package(tmp_path / "a", "float(X.sum())")
    change = write_package(tmp_path / "b", change_total)
    assert tool.main([str(parent), str(change), "3", "2"]) == status
    line, last = capsys.readouterr().out.splitlines()  # the table is printed either way
    assert line.startswith("Model scale=1.0 2x2 fits 1 ") and last.startswith("all fits 1 ")
    assert line.split(" same ")[1].startswith(str(status == 0))
    assert last.split(" same ")[1].startswith(str(status == 0))


@pytest.fixture(autouse=True)
def forget_loaded_packages():
    import sys

    yield
    for name in [n for n in sys.modules if n.startswith(("fit_cpu_", "parent_vandalstack", "change_vandalstack"))]:
        del sys.modules[name]
