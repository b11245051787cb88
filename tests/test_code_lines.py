"""The code-line counter that the records cite (`tests/code_lines.py`)."""

from __future__ import annotations

from code_lines import code_lines

# Eight code lines: the import, the class and def lines, both lines of
# the bracketed sum, both lines of the string that is no docstring, and
# the return.  Docstrings, comments and blank lines do not count.
SNIPPET = '''"""A module docstring,
over two lines."""

import os  # a trailing comment

# a comment line


class A:
    """A class docstring."""

    def f(self, x):
        """A function docstring,
        over two lines."""
        total = (x +
                 1)
        text = """a two-line
        string"""
        return total, text, os
'''


def test_counts_only_code_lines():
    assert code_lines(SNIPPET) == 8
