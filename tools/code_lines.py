"""Code lines of each module of src/residua, and their total.

    python3 tools/code_lines.py [DIR]                (default: src/residua)
    python3 tools/code_lines.py --against REV [DIR]

A code line holds at least one token that is not part of a comment or a
docstring (the string that opens a module, class or function body).
Blank, comment-only and docstring lines are left out, so reformatting a
docstring or a comment moves nothing.  Prints one line per module,
"lines path", and then "lines total".

With --against REV, the git revision REV is also extracted with git
archive, the same DIR (which must lie in this checkout) is counted there,
and each line reads "REV-lines this-lines delta path"; a module missing
on one side counts 0.
"""

import ast
import io
import sys
import tempfile
import tokenize
from pathlib import Path

from answer_digest import extract

ROOT = Path(__file__).resolve().parent.parent

_SKIP = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree) -> set:
    """The line numbers spanned by the docstrings of tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _BODIES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of the Python source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def tree_counts(top: Path) -> dict:
    """{module path relative to top: code lines} of the .py files under top."""
    return {
        path.relative_to(top).as_posix(): code_lines(path.read_text(encoding="utf-8"))
        for path in top.rglob("*.py")
    }


def rev_counts(rev: str, top: Path) -> dict:
    """tree_counts of the directory top as it is at git revision rev."""
    with tempfile.TemporaryDirectory() as tree:
        extract(rev, tree)
        return tree_counts(Path(tree) / top.resolve().relative_to(ROOT))


def main(argv) -> int:
    rev = None
    if argv[:1] == ["--against"]:
        if len(argv) < 2:
            raise SystemExit("usage: code_lines.py [--against REV] [DIR]")
        rev, argv = argv[1], argv[2:]
    top = Path(argv[0]) if argv else ROOT / "src" / "residua"
    this = tree_counts(top)
    if rev is None:
        for name in sorted(this):
            print(f"{this[name]:6d} {name}")
        print(f"{sum(this.values()):6d} total")
        return 0
    old = rev_counts(rev, top)
    rows = [(old.get(n, 0), this.get(n, 0), n) for n in sorted(old.keys() | this.keys())]
    rows.append((sum(old.values()), sum(this.values()), "total"))
    for before, after, name in rows:
        print(f"{before:6d} {after:6d} {after - before:+6d} {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
