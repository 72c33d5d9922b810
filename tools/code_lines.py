"""Count code lines per module, without docstrings, comments or blank lines.

    python3 tools/code_lines.py [DIR] [--base BASE]

DIR defaults to ``src/faberelast``.  A line counts when a token other
than a comment, an indent or a line break starts on it or runs through
it, and it is not part of a docstring (the string that opens a module,
class or function body).  So every line of a statement spread over
several lines counts.  Prints one line per module and the total.  With
``--base``, another tree of the same package (an older commit's), it
prints one table instead: the base count, the count in DIR and the
delta, per module of either tree (0 where a tree lacks it) and in
total.  Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of lines of ``source`` that hold code."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def _counts(directory: Path) -> dict:
    """Module file name -> code lines, for the modules of ``directory``."""
    return {path.name: code_lines(path.read_text()) for path in sorted(directory.glob("*.py"))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", nargs="?", type=Path, default=REPO / "src" / "faberelast")
    parser.add_argument("--base", type=Path, help="print base, head and delta against this tree")
    args = parser.parse_args(argv)
    head = _counts(args.dir)
    if args.base is None:
        for name, count in [*head.items(), ("total", sum(head.values()))]:
            print(f"{count:6d}  {name}")
        return 0
    base = _counts(args.base)
    names = sorted(base.keys() | head.keys())
    rows = [(name, base.get(name, 0), head.get(name, 0)) for name in names]
    print(f"{'base':>6}  {'head':>6}  {'delta':>6}  module")
    for name, old, new in [*rows, ("total", sum(base.values()), sum(head.values()))]:
        print(f"{old:6d}  {new:6d}  {new - old:+6d}  {name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
