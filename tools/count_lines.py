"""Count the code lines of Python files, leaving out blank lines, comment-only lines and docstrings.

    python3 tools/count_lines.py [PATH ...]

Each PATH is a .py file or a directory searched for them; the default is
src/omtransfer.  A line counts when a token other than a comment, a line
break or indentation lies on it, and it is not part of a module, class or
function docstring.  Prints each file's count and the total.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            value = getattr(first, "value", None)
            if isinstance(first, ast.Expr) and isinstance(value, ast.Constant) and isinstance(value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> int:
    """Code lines of one Python file."""
    source = path.read_text(encoding="utf-8")
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(code - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    paths = [Path(a) for a in argv] or [Path(__file__).resolve().parents[1] / "src" / "omtransfer"]
    files = sorted(f for p in paths for f in ([p] if p.is_file() else p.rglob("*.py")))
    total = 0
    for f in files:
        n = count(f)
        total += n
        print(f"{n:6d}  {f}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
