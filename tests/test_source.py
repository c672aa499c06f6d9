"""The package source itself: integers and rationals only, no floating point."""

from __future__ import annotations

import ast
import pathlib

import quadpencil

PACKAGE = pathlib.Path(quadpencil.__file__).parent


def _floats(path: pathlib.Path) -> list[str]:
    """Float or complex literals and float(...) calls in one module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{path.name}:{node.lineno}: literal {node.value!r}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            found.append(f"{path.name}:{node.lineno}: float(...)")
    return found


def test_no_module_has_a_float_literal_or_call():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert {path.name for path in modules} >= {"cli.py", "integers.py", "unipoly.py"}
    assert [line for path in modules for line in _floats(path)] == []


def test_the_float_check_sees_floats(tmp_path):
    path = tmp_path / "module.py"
    path.write_text("def root(n):\n    return int((n - 1) ** 0.5), float(n), 1j\n")
    assert sorted(_floats(path)) == [
        "module.py:2: float(...)", "module.py:2: literal 0.5", "module.py:2: literal 1j",
    ]
