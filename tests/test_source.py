"""The package source itself: integers and rationals only, no floating point,
and one representation of a form past its construction."""

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


# A form's coefficient dict is read where a form is built or printed; every
# computation after PencilOfQuadrics.__init__ reads pencil.polars.  Only
# QuadraticForm has a .coeffs attribute: a polynomial is a tuple of ints.
FORM_MODULES = {"parsing.py", "quadric.py", "pencil.py"}
FORM_ATTRIBUTES = {"QuadraticForm", "q1", "q2", "monomials", "coefficient", "coeffs"}


def _form_reads(path: pathlib.Path) -> list[str]:
    """Imports of QuadraticForm and reads of .q1, .q2, .monomials,
    .coefficient or .coeffs in one module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.ImportFrom):
            found += [f"{path.name}:{node.lineno}: imports {alias.name}"
                      for alias in node.names if alias.name == "QuadraticForm"]
        elif isinstance(node, ast.Attribute) and node.attr in FORM_ATTRIBUTES:
            found.append(f"{path.name}:{node.lineno}: reads .{node.attr}")
    return found


def test_only_construction_and_printing_read_a_forms_coefficients():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert {path.name for path in modules} >= FORM_MODULES | {"localcert.py", "reduction.py"}
    assert [line for path in modules if path.relative_to(PACKAGE).as_posix() not in FORM_MODULES
            for line in _form_reads(path)] == []


def test_the_form_check_sees_form_reads(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(
        "from .quadric import NUM_VARIABLES, QuadraticForm\n"
        "def value(pencil, q, f):\n"
        "    return pencil.q1, pencil.q2.coeffs, q.monomials(), q.coefficient(0, 1), f.coeffs\n"
    )
    assert sorted(_form_reads(path)) == [
        "module.py:1: imports QuadraticForm", "module.py:3: reads .coefficient",
        "module.py:3: reads .coeffs", "module.py:3: reads .coeffs",
        "module.py:3: reads .monomials", "module.py:3: reads .q1", "module.py:3: reads .q2",
    ]
