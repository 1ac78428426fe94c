"""tools/src_lines.py counts total and code-only lines: no comments, blanks or docstrings."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"

SAMPLE = '''"""Module docstring,
two lines."""

import math  # a comment on a code line

# a comment line


def f(x):
    """Function docstring."""
    s = """a multi-line
string that is code"""
    return (x +
            math.pi)


class C:
    """Class docstring
    over
    three lines."""

    y = 1
'''


def _tool():
    spec = importlib.util.spec_from_file_location("src_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_an_inline_sample():
    # Code lines: import, def, the two lines of s, the two of the return,
    # class and y = 1.
    assert _tool().count_lines(SAMPLE) == (22, 8)


def test_a_module_of_docstrings_and_comments_has_no_code():
    assert _tool().count_lines('"""Only a docstring."""\n# and a comment\n\n') == (3, 0)
