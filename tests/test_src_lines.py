"""The code-only line counter of `tools/src_lines.py`."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"

FIXTURE = '''"""A module docstring,
over two lines."""

# a comment line

import os  # a trailing comment


def f(a, b):
    """A function docstring."""
    # a comment inside
    return os.path.join(
        a,

        b,  # a comment in the call
    )


"""A string statement after the code."""
x = ("a string "
     "in an expression")
'''


def load_tool():
    spec = importlib.util.spec_from_file_location("src_lines", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_counts_the_lines_holding_code():
    # import, def, the call's four lines holding tokens (its blank line
    # holds none) and the two lines of the assignment
    assert load_tool().code_lines(FIXTURE) == 8


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert load_tool().main(["src_lines.py", str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n") == ["     8  a.py", "     1  b.py", "     9  total", ""]
