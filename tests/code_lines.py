"""Print the code lines of each `foml` module and their total.

A code line is a line of a module under `src/foml` that is not blank, not
a comment line and not part of a docstring (the string that opens a
module, class or function body).  Run it as
`PYTHONPATH=src python tests/code_lines.py`; pytest does not collect it.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "foml"
BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(text: str) -> int:
    docstrings: set[int] = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, BODIES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    return sum(1 for n, line in enumerate(text.splitlines(), 1)
               if line.strip() and not line.lstrip().startswith("#")
               and n not in docstrings)


def main() -> None:
    total = 0
    for path in sorted(SRC.glob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{path.name:16} {n:6,}")
    print(f"{'total':16} {total:6,}")


if __name__ == "__main__":
    main()
