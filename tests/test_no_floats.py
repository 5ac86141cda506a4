"""Arithmetic in gl2aut stays exact: no module under src/gl2aut uses floats.

The guard reads the source with `ast`. It flags float and complex
literals, calls to `float`, and math.log, math.log2, math.sqrt and
math.exp, whether reached as attributes or imported by name. The `/`
operator is not flagged: on field elements it is field division.
"""

import ast

import pytest

import helpers

_INEXACT_MATH = {"log", "log2", "sqrt", "exp"}


def _float_uses(source: str):
    """(line, description) for every inexact construct in the source."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, f"float literal {node.value!r}"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            yield node.lineno, "call to float"
        elif (isinstance(node, ast.Attribute) and node.attr in _INEXACT_MATH
              and isinstance(node.value, ast.Name) and node.value.id == "math"):
            yield node.lineno, f"math.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            for alias in node.names:
                if alias.name in _INEXACT_MATH:
                    yield node.lineno, f"from math import {alias.name}"


def test_guard_flags_each_inexact_construct():
    source = "\n".join([
        "import math",
        "from math import sqrt, gcd",
        "a = 0.5",
        "b = float(3)",
        "c = math.log(8, 2)",
        "d = math.log2(8) + math.exp(1)",
        "e = 2j",
        "f = x / y",
        "g = math.gcd(4, 6) + math.prod([2, 3])",
    ])
    found = sorted(_float_uses(source))
    assert [line for line, _ in found] == [2, 3, 4, 5, 6, 6, 7]


@pytest.mark.parametrize("path", sorted((helpers.SRC / "gl2aut").glob("*.py")),
                         ids=lambda p: p.name)
def test_source_has_no_floats(path):
    assert list(_float_uses(path.read_text())) == []
