#!/usr/bin/env python3
"""Count the code lines and total lines of each `src/sentsimp` file, and in total.

    python3 scripts/line_counts.py              # the working tree
    python3 scripts/line_counts.py --rev REV    # a revision, read through `git show`

Code lines leave out blank lines, comment-only lines and docstring lines (a
module's, class's or function's first statement when it is a string literal,
found with `ast`). Every other line that holds a token is code, so each line
of a multi-line string that is not a docstring counts. Total lines are the
lines of the file, as `wc -l` counts them.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "src/sentsimp"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_starts(source: str) -> set[tuple[int, int]]:
    """The (line, column) where each docstring's string literal starts."""
    starts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def count_lines(source: str) -> tuple[int, int]:
    """(code lines, total lines) of a Python source."""
    docstrings = _docstring_starts(source)
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code), source.count("\n")


def _sources(rev: str | None) -> dict[str, str]:
    """File name -> text of each Python file of the package, at `rev` or in the tree."""
    if rev is None:
        return {p.name: p.read_text(encoding="utf-8")
                for p in sorted((ROOT / PACKAGE).glob("*.py"))}
    names = subprocess.run(["git", "ls-tree", "--name-only", rev, f"{PACKAGE}/"], cwd=ROOT,
                           capture_output=True, text=True, check=True).stdout.split()
    return {Path(n).name: subprocess.run(["git", "show", f"{rev}:{n}"], cwd=ROOT,
                                         capture_output=True, text=True, check=True).stdout
            for n in sorted(names) if n.endswith(".py")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", help="a git revision; the working tree when left out")
    args = parser.parse_args(argv)
    rows = [(name, *count_lines(text)) for name, text in _sources(args.rev).items()]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    print(f"{'file':<14} {'code':>6} {'total':>6}")
    for name, code, total in rows:
        print(f"{name:<14} {code:>6} {total:>6}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
