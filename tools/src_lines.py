"""Print the size of the package source: all lines, and code lines.

    python3 tools/src_lines.py

Counts every .py file under src/ and prints the two totals, then each
module's two figures, one module a line. The first figure is the physical
line count. The second counts only lines that hold code: blank lines, comment
lines and the lines of module, class and function docstrings are left out.
A line is code when a token other than a comment starts, ends or continues
on it; a string literal that is not a docstring counts on every line it
spans. Standard library only.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}
_DOC_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOC_OWNERS) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """(physical lines, code lines) of one Python source text."""
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= _docstring_lines(ast.parse(text))
    return len(text.splitlines()), len(code)


def main() -> None:
    counts = {path.relative_to(SRC).as_posix(): count(path.read_text(encoding="utf-8"))
              for path in sorted(SRC.rglob("*.py"))}
    print(f"src/ lines: {sum(lines for lines, _ in counts.values())}")
    print("code lines (no docstrings, comments or blank lines): "
          f"{sum(code for _, code in counts.values())}")
    for name, (lines, code) in counts.items():
        print(f"{name}: {lines} lines, {code} code lines")


if __name__ == "__main__":
    main()
