"""scripts/same_outputs.py's code-line count, on a sample source; no
refresh runs."""

from __future__ import annotations

from scripts.same_outputs import code_lines

# A source mixing blank, comment, docstring, code and multi-line string
# lines; CODE numbers its code lines (a blank line inside the parentheses
# holds no token).
SAMPLE = '''\
"""Module docstring,
over two lines."""

# a comment
import os  # a trailing comment


def f(x):
    """One-line docstring."""
    text = """a multi-line
string that is no docstring"""
    # another comment
    return (x +

            1)


class C:
    """Class docstring
    over two lines.
    """

    y = 1
    """A string after the first statement is no docstring."""
'''
CODE = {5, 8, 10, 11, 13, 15, 18, 23, 24}


def test_code_lines_skip_blank_comment_and_docstring_lines():
    lines = SAMPLE.splitlines()
    assert [lines[n - 1].strip()[:6] for n in sorted(CODE)] == [
        "import", "def f(", "text =", "string", "return", "1)", "class ", "y = 1", '"""A s']
    assert code_lines(SAMPLE) == len(CODE)
