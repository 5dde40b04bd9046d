"""Count the code lines of Python modules: lines that hold a token, without
docstrings, comments or blank lines.

    python tools/code_lines.py src/fgplate

prints each module's count and the total. A file or several paths may be
given; a directory counts its *.py files, recursively.
"""
import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    source = path.read_text(encoding="utf-8")
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    with path.open("rb") as handle:
        for token in tokenize.tokenize(handle.readline):
            if token.type not in _NOT_CODE:
                lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main(paths: list[str]) -> int:
    files = sorted(f for p in map(Path, paths)
                   for f in (p.rglob("*.py") if p.is_dir() else [p]))
    total = 0
    for path in files:
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or ["src"]))
