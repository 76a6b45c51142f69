"""``tools/loc.py``: the lines-of-code rule, pinned on a small fixture file."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "loc.py"

# the lines that count are marked `# code`; every other line is blank,
# a comment or a docstring
FIXTURE = '''"""Module docstring,
on two lines."""

# a comment
import os  # code


class Thing:  # code
    """Class docstring."""

    size = 3  # code

    def method(self):  # code
        """Method docstring,

        on three lines.
        """
        text = """a string that is no docstring,
spanning two lines"""
        "a bare string after the first statement"  # code
        return text  # code


async def fetch():  # code
    """Async docstring."""
    def inner():  # code
        """Nested docstring."""
        return (  # code
            1  # code
        )  # code
'''


def load_tool():
    spec = importlib.util.spec_from_file_location("loc", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_rule_counts_code_lines_only(tmp_path, capsys):
    # 11 marked lines, and both lines of the string that is no docstring
    assert FIXTURE.count("# code") == 11
    fixture = tmp_path / "pkg" / "sample.py"
    fixture.parent.mkdir()
    fixture.write_text(FIXTURE, encoding="utf-8")
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n", encoding="utf-8")
    tool = load_tool()
    assert tool.count_lines(FIXTURE) == 13
    assert tool.main([str(tmp_path)]) == 0
    assert tool.main([str(fixture), str(fixture)]) == 0
    assert capsys.readouterr().out == "13\n26\n"
