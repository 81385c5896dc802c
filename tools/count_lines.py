"""Code and total lines per module under src/advicemech, and their totals.

A code line is one that is not blank, not a comment line and not inside a
module, class or function docstring (found with `ast`).  Every line counts
toward the total.  Run from the root of a checkout:

    python3 tools/count_lines.py
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent / "src" / "advicemech"


def docstring_lines(tree) -> set:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                if isinstance(body[0].value.value, str):
                    lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(path: Path) -> tuple:
    """(code lines, total lines) of one module."""
    text = path.read_text(encoding="utf-8")
    docs = docstring_lines(ast.parse(text))
    lines = text.splitlines()
    code = sum(
        1
        for number, line in enumerate(lines, 1)
        if line.strip() and not line.strip().startswith("#") and number not in docs
    )
    return code, len(lines)


def main() -> int:
    rows = [(path.name, *count(path)) for path in sorted(ROOT.glob("*.py"))]
    width = max(len(name) for name, _, _ in rows)
    print(f"{'module':<{width}}  {'code':>5}  {'total':>5}")
    for name, code, total in rows:
        print(f"{name:<{width}}  {code:>5}  {total:>5}")
    print(f"{'total':<{width}}  {sum(r[1] for r in rows):>5}  {sum(r[2] for r in rows):>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
