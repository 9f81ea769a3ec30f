import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "line_counts.py"

SOURCE = '''"""A module docstring
over two lines."""

# a comment-only line
import os


def f():
    """A function docstring."""
    text = """a multi-line string
that is not a docstring

keeps all four of its lines"""
    return text  # a trailing comment


class C:
    """A class docstring."""
    x = os.sep
'''


def test_docstrings_comments_and_blanks_are_not_code():
    spec = importlib.util.spec_from_file_location("line_counts", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # Code: import, def, the four lines of `text`, return, class, x.
    assert module.count_lines(SOURCE) == (9, 19)
