import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

FIXTURE = '''"""Module docstring,
on two lines."""

import os  # a trailing comment keeps the line

# a comment line


def f(x):
    """Function docstring."""
    total = (x +
             1)
    return total


class C:
    """Class docstring."""

    text = """a string that is not a docstring
spans two lines"""
'''


def test_fixture_counts_only_code_lines():
    # import, def, the two lines of the sum, return, class and the two
    # lines of the class attribute string
    assert code_lines.code_lines(FIXTURE) == 8


def test_main_prints_modules_and_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n\n\ny = 2\n")
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [["8", "a.py"], ["2", "b.py"], ["10", "total"]]
