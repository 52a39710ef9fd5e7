from codelines import code_lines

SAMPLE = '''"""A module docstring
over two lines."""

# a comment
x = 1


def f():
    """A function docstring."""
'''


def test_blank_comment_and_docstring_lines_are_not_code():
    assert code_lines(SAMPLE) == 2
