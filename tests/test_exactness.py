"""No floating point in the modules that compute verified statements.

`checks` and `cli` are left out: they hold wall-clock seconds, which
never enter a certificate's statements."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "sympderiv"
EXACT_MODULES = ["intlin", "freelie", "trees", "derivspace", "traces",
                 "casson", "catalogs"]


@pytest.mark.parametrize("module", EXACT_MODULES)
def test_no_true_division_or_float_literal(module):
    path = SRC / f"{module}.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) \
                and isinstance(node.op, ast.Div):
            found.append(f"true division at line {node.lineno}")
        elif isinstance(node, ast.Constant) and isinstance(
                node.value, (float, complex)):
            found.append(f"float literal {node.value!r} at line {node.lineno}")
    assert not found, found
