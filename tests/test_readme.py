"""The README's quick tour runs, and shows what it prints."""

import ast
import io
import re
from contextlib import redirect_stdout
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def tour_blocks():
    tour = README.read_text(encoding="utf-8").split("## Quick tour", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", tour, re.S)


def test_quick_tour_shows_what_it_prints():
    namespace: dict = {}
    shown = []  # (what a statement printed or evaluated to, its trailing comment)
    for block in tour_blocks():
        lines = block.splitlines()
        for stmt in ast.parse(block).body:
            if not isinstance(stmt, ast.Expr):
                exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
                continue
            out = io.StringIO()
            with redirect_stdout(out):
                value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            comment = lines[stmt.end_lineno - 1].partition("  # ")[2].strip()
            shown.append((out.getvalue().rstrip("\n") if value is None else repr(value), comment))
    assert [value for value, _ in shown] == [
        "x^2 - 8*x + 15",
        "[[v1v2, 0]; [0, -v1v2]]",
        "[[0, 0]; [0, 0]]",
        "'[[1, 0]; [0, 2]]'",
    ]
    assert [comment for _, comment in shown] == [value for value, _ in shown]
