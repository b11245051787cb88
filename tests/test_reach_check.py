"""The comparison of `tests/reach_check.py`, on a synthetic module."""

from __future__ import annotations

from reach_check import compare, read_listed

# Two functions.  Lines 2 and 13 are docstrings and line 14 a `nonlocal`;
# none of them emits a line event, so none is ever reported.
MODULE = '''\
def f(x):
    """Pick a branch."""
    if x:
        return 1
    return 2


def g():
    n = 0

    @functools.cache
    def h():
        """Count."""
        nonlocal n
        n += 1

    h()
    return 2
'''

# Every line that can emit a line event.
ALL = {1, 3, 4, 5, 8, 9, 11, 12, 15, 17, 18}


def unreached(hits, listed=""):
    return compare({"m.py": MODULE}, {"m.py": hits}, read_listed(listed))


def test_a_fully_reached_module_passes():
    assert unreached(ALL) == ([], [])


def test_a_new_unreached_statement_fails():
    # The body of `h` is its own statement; its `def` header is reached.
    assert unreached(ALL - {4, 15}) == ([("m.py", 4, "return 1"), ("m.py", 15, "n += 1")], [])
    assert unreached(ALL - {4}, "m.py: return 1  # a reason") == ([], [])


def test_a_compound_statement_is_reached_through_its_header_only():
    # The decorator is part of `h`'s header; its body lines are not.
    assert unreached(ALL - {11}) == ([], [])
    assert unreached(ALL - {3}) == ([("m.py", 3, "if x:")], [])


def test_a_listed_statement_that_is_reached_fails():
    assert unreached(ALL, "# a comment\nm.py: return 1  # a reason\n") == ([], [("m.py", "return 1")])


def test_a_repeated_text_needs_one_entry_per_statement():
    # `return 2` stands on lines 5 and 18.
    listed = "m.py: return 2  # a reason"
    assert unreached(ALL - {5, 18}, listed) == ([("m.py", 18, "return 2")], [])
    assert unreached(ALL - {5, 18}, listed + "\n" + listed) == ([], [])
    assert unreached(ALL - {5}, listed + "\n" + listed) == ([], [("m.py", "return 2")])


def test_nonlocal_and_docstrings_are_skipped():
    assert unreached(ALL - {2, 13, 14}) == ([], [])
