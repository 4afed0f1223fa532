"""Count the lines and code lines of the package, module by module.

Code lines are the non-blank lines outside comments and docstrings: a
line that holds only a comment, only part of a docstring (the string
that opens a module, class or function body), or nothing, is not one.

    python scripts/src_lines.py [package directory, default src/noiseattn]
"""

import ast
import sys
from pathlib import Path


def docstring_lines(tree) -> set[int]:
    """Line numbers spanned by the docstrings of ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """(lines, code lines) of the Python file ``path``."""
    text = path.read_text()
    skipped = docstring_lines(ast.parse(text))
    lines = text.splitlines()
    code = sum(1 for number, line in enumerate(lines, start=1)
               if number not in skipped and line.strip() and not line.lstrip().startswith("#"))
    return len(lines), code


PACKAGE = Path(__file__).resolve().parents[1] / "src" / "noiseattn"


def main(argv) -> int:
    package = Path(argv[1]) if len(argv) > 1 else PACKAGE
    total_lines = total_code = 0
    for path in sorted(package.glob("*.py")):
        lines, code = count(path)
        total_lines, total_code = total_lines + lines, total_code + code
        print(f"{path.name:<16} {lines:>6} {code:>6}")
    print(f"{'total':<16} {total_lines:>6} {total_code:>6}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
