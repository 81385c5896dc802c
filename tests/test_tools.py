"""`tools/count_lines.py` counts code lines as its docstring says."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location("count_lines", ROOT / "tools" / "count_lines.py")
count_lines = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(count_lines)

MODULE = '''"""A module docstring
over two lines."""

# a comment line
import os  # a trailing comment


class Thing:
    """A one-line class docstring."""

    def method(self):
        """A function docstring
        over three
        lines."""
        return os.sep


def function():
    """A one-line function docstring."""
    "a string expression that is no docstring"
    text = """a string value
over two lines"""
    return text
'''

# the lines `count` counts as code, in order
CODE = [
    "import os  # a trailing comment",
    "class Thing:",
    "    def method(self):",
    "        return os.sep",
    "def function():",
    '    "a string expression that is no docstring"',
    '    text = """a string value',
    'over two lines"""',
    "    return text",
]


def test_count_skips_blanks_comments_and_docstrings(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(MODULE, encoding="utf-8")
    assert count_lines.count(path) == (len(CODE), 23)  # every line counts toward the total
