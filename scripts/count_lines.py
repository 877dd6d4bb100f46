#!/usr/bin/env python3
"""Code lines and docstring lines of the package's source, counted apart.

A docstring line is a line of a module, class or function docstring. A code
line is any other line that holds a token other than a comment. Blank and
comment-only lines count as neither. Prints one row per file and a total:

    python scripts/count_lines.py [DIR]    # DIR defaults to src/xifamily
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def count(source: str) -> tuple[int, int]:
    """(code lines, docstring lines) of one Python source."""
    docstring = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstring.update(range(first.lineno, first.end_lineno + 1))
    tokens = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            tokens.update(range(token.start[0], token.end[0] + 1))
    return len(tokens - docstring), len(docstring)


def main(argv) -> int:
    root = Path(argv[1] if len(argv) > 1 else Path(__file__).parents[1] / "src" / "xifamily")
    total_code = total_doc = 0
    for path in sorted(root.glob("*.py")):
        code, doc = count(path.read_text(encoding="utf-8"))
        total_code += code
        total_doc += doc
        print(f"{path.name:20s} code {code:5d}  docstrings {doc:5d}")
    print(f"{'total':20s} code {total_code:5d}  docstrings {total_doc:5d}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
