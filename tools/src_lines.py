"""Count the non-blank lines and the code lines of each attkit module.

    python tools/src_lines.py SRC
    python tools/src_lines.py OLD_SRC SRC

SRC is the ``src/`` directory of an attkit checkout. A code line is a
non-blank line that holds code: neither a comment alone nor part of a
docstring. With one tree it prints, for each module of ``SRC/attkit``, its
count of non-blank lines and of code lines, then the totals. With two trees
it prints each module's old count, new count and change of non-blank lines,
then the same three of code lines, a module present in only one tree
counting 0 in the other, then the totals.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

# Tokens that are no code: a comment, line ends and indentation.
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def module_counts(text: str) -> tuple[int, int]:
    """(non-blank lines, code lines) of one module's source text."""
    lines = text.splitlines()
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                code.difference_update(range(first.lineno, first.end_lineno + 1))
    blank = {i for i, line in enumerate(lines, 1) if not line.strip()}
    return len(lines) - len(blank), len(code - blank)


def counts(src) -> dict[str, tuple[int, int]]:
    """(non-blank lines, code lines) of each module of src/attkit, by module name."""
    package = Path(src) / "attkit"
    if not package.is_dir():
        raise SystemExit(f"error: no attkit package under {src}")
    return {path.stem: module_counts(path.read_text()) for path in sorted(package.glob("*.py"))}


def _total(tree: dict[str, tuple[int, int]]) -> tuple[int, int]:
    return sum(n for n, _ in tree.values()), sum(c for _, c in tree.values())


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    if len(argv) == 1:
        new = counts(argv[0])
        for name, (n, c) in [*new.items(), ("total", _total(new))]:
            print(f"{name:16} {n:6} {c:6}")
        return 0
    old, new = counts(argv[0]), counts(argv[1])
    rows = [(name, old.get(name, (0, 0)), new.get(name, (0, 0)))
            for name in sorted(old.keys() | new.keys())]
    for name, (a, ca), (b, cb) in [*rows, ("total", _total(old), _total(new))]:
        print(f"{name:16} {a:6} {b:6} {b - a:+6} {ca:6} {cb:6} {cb - ca:+6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
