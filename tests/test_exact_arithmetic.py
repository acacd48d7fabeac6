"""The library's arithmetic stays exact: a static scan of src/grassmat.

No float literal, no use of the name `float`, no true division `/`, and
no math.log*, sqrt, ceil, floor or exp, so widths, bounds and
coefficients are computed on ints and Fractions only.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "grassmat"
INEXACT_MATH = {"sqrt", "ceil", "floor", "exp", "expm1"}


def _inexact_math(name: str) -> bool:
    return name.startswith("log") or name in INEXACT_MATH


def _violations(tree: ast.AST) -> list:
    found = []
    for node in ast.walk(tree):
        where = getattr(node, "lineno", "?")
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((where, f"float literal {node.value!r}"))
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append((where, "name float"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((where, "true division"))
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and _inexact_math(node.attr)
        ):
            found.append((where, f"math.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [(where, f"from math import {a.name}") for a in node.names if _inexact_math(a.name)]
    return found


SOURCES = sorted(SRC.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_source_is_float_free(path):
    assert _violations(ast.parse(path.read_text(), str(path))) == []


def test_scan_sees_every_kind_of_violation():
    snippet = """
import math
from math import log2, comb
x = 0.5
y = float(3)
z = 1 / 2
z /= 2
w = math.sqrt(2) + math.ceil(z) + math.floor(z) + math.exp(1) + math.log(3)
ok = 7 // 2 + math.comb(4, 2) + math.factorial(3)
"""
    kinds = sorted(what for _, what in _violations(ast.parse(snippet)))
    assert kinds == sorted([
        "from math import log2", "float literal 0.5", "name float", "true division",
        "true division", "math.sqrt", "math.ceil", "math.floor", "math.exp", "math.log",
    ])
