"""`tools/count_lines.py` counts code lines, `tools/paired_runs.py` reads
a cell of paired runs, and `tools/op_times.py` sums a round's operations
by name, as their docstrings say."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location("count_lines", ROOT / "tools" / "count_lines.py")
count_lines = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(count_lines)
PAIRED = importlib.util.spec_from_file_location("paired_runs", ROOT / "tools" / "paired_runs.py")
paired_runs = importlib.util.module_from_spec(PAIRED)
PAIRED.loader.exec_module(paired_runs)
OP_TIMES = importlib.util.spec_from_file_location("op_times", ROOT / "tools" / "op_times.py")
op_times = importlib.util.module_from_spec(OP_TIMES)
OP_TIMES.loader.exec_module(op_times)

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


# parent median 3 with quartiles 2 and 4; the change's median is 2.6
PARENT, CHANGE = [1.0, 2.0, 3.0, 4.0, 5.0], [2.0, 2.5, 2.6, 3.5, 4.5]
FLAT = [10.0] * 4  # no spread: any difference is resolved


@pytest.mark.parametrize(
    "parent, change, better, text",
    [
        # pairs 3, 4 and 5 read lower; a move inside the quartiles is unresolved
        (PARENT, CHANGE, "lower", "3.0000 [2.0000, 4.0000] → 2.6000, -13.3%, 3/5, unresolved"),
        (PARENT, CHANGE, "higher", "3.0000 [2.0000, 4.0000] → 2.6000, -13.3%, 2/5, unresolved"),
        # 30% worse is over a bound of 25%, 30% better is not, and 25% worse is at it
        (FLAT, [13.0] * 4, "lower", "10.00 [10.00, 10.00] → 13.00, +30.0%, 0/4, over bound"),
        (FLAT, [13.0] * 4, "higher", "10.00 [10.00, 10.00] → 13.00, +30.0%, 4/4"),
        (FLAT, [7.0] * 4, "higher", "10.00 [10.00, 10.00] → 7.0000, -30.0%, 0/4, over bound"),
        (FLAT, [12.5] * 4, "lower", "10.00 [10.00, 10.00] → 12.50, +25.0%, 0/4"),
    ],
)
def test_a_cell_reads_the_medians_quartiles_pairs_and_flags(parent, change, better, text):
    assert paired_runs.cell(parent, change, {"better": better, "bound": 0.25}) == text


def test_op_times_reads_the_median_of_each_operation_and_of_the_round():
    # three rounds: two sweeps, two interpolation checks summed per round, a composition
    rounds = [
        [("sweep pfa", 3.0), ("sweep lpfa", 1.0), ("interpolation", 0.5), ("interpolation", 0.5), ("composition", 2.0)],
        [("sweep pfa", 5.0), ("sweep lpfa", 2.0), ("interpolation", 1.0), ("interpolation", 2.0), ("composition", 1.0)],
        [("sweep pfa", 4.0), ("sweep lpfa", 9.0), ("interpolation", 0.25), ("interpolation", 0.25), ("composition", 3.0)],
    ]
    assert op_times.summarize(rounds) == [
        ("sweep pfa", 4.0), ("sweep lpfa", 2.0), ("interpolation ×2", 1.0), ("composition", 2.0),
        ("round", 11.0),  # the round totals are 7, 11 and 16.5
    ]


def test_op_times_names_an_operation_by_its_verdict_and_its_family_or_command():
    def _sweep_verdict(result):
        pass

    def _cli_verdict(result):
        pass

    def _composition_verdict(result):
        pass

    assert op_times.name(_sweep_verdict, ("pfa", [])) == "sweep pfa"
    assert op_times.name(_cli_verdict, (["audit", "constant", "--mechanism", "pfa"], 0, 0, "", "")) == "cli audit constant"
    assert op_times.name(_composition_verdict, ([object()], 7)) == "composition"
