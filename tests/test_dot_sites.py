"""Every length and overlap of a real vector goes through ``linalg``'s three helpers.

The rounding of a short real dot is OpenBLAS's ``ddot`` kernel's, and the
recorded bits depend on it; ``linalg._dot``, ``_norm`` and ``_dots`` are its one
home.  The scan reads each module of ``src/seqrac`` with ``ast`` and names each
call, by module and enclosing function, that spells a dot elsewhere: a method or
function named ``dot``, ``vdot``, ``vecdot``, ``inner`` or ``einsum``, or a
``linalg.norm`` beyond the three norms of complex data.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "seqrac").glob("*.py"))
DOTS = {"dot", "vdot", "vecdot", "inner", "einsum"}
HELPERS = {("linalg", "_dot"), ("linalg", "_dots")}  # _norm calls _dot
# The norms of complex data: the eigenvector, and two Frobenius norms of residuals.
COMPLEX_NORMS = Counter(
    [("linalg", "max_eigenpair"), ("analytics", "_common_unitary_defect"), ("analytics", "selftest_report")]
)


def _calls(tree: ast.AST, scope: str = ""):
    """``(function, call)`` for each call in ``tree``, named by the innermost enclosing function."""
    for node in ast.iter_child_nodes(tree):
        inner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
        if isinstance(node, ast.Call):
            yield scope, node
        yield from _calls(node, inner)


def _spelling(call: ast.Call) -> str | None:
    """``"dot"`` and the like, ``"linalg.norm"``, or None for any other call."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name in DOTS:
        return name
    if name == "norm" and isinstance(func, ast.Attribute) and getattr(func.value, "attr", None) == "linalg":
        return "linalg.norm"
    return None


def short_dot_sites(module: str, source: str) -> list[str]:
    """``module.function:line spelling`` for each dot or norm call outside its allowed sites."""
    found, norms = [], Counter()
    for scope, call in _calls(ast.parse(source)):
        spelling = _spelling(call)
        if spelling is None or spelling in DOTS and (module, scope) in HELPERS:
            continue
        if spelling == "linalg.norm":
            norms[module, scope] += 1
            if norms[module, scope] <= COMPLEX_NORMS[module, scope]:
                continue
        found.append(f"{module}.{scope or '<module>'}:{call.lineno} {spelling}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_short_dots_only_in_the_helpers(path):
    assert short_dot_sites(path.stem, path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "module, source, sites",
    [
        ("m", "import numpy as np\nx = np.dot(a, b)\n", ["m.<module>:2 dot"]),
        ("m", "def f(v):\n    return v.dot(v)\n", ["m.f:2 dot"]),
        ("m", "def f(v):\n    def g():\n        return vdot(v, v)\n    return g\n", ["m.g:3 vdot"]),
        ("m", "def f(a, b):\n    return np.vecdot(a, b) + np.inner(a, b)\n", ["m.f:2 vecdot", "m.f:2 inner"]),
        ("m", "def f(a):\n    return np.einsum('ij,ij->i', a, a)\n", ["m.f:2 einsum"]),
        ("m", "def f(a):\n    return np.linalg.norm(a)\n", ["m.f:2 linalg.norm"]),
        ("linalg", "def _dot(x, y):\n    return x.dot(y)\n", []),
        ("linalg", "def _norm(v):\n    return v.dot(v)\n", ["linalg._norm:2 dot"]),
        ("linalg", "def max_eigenpair(v):\n    return np.linalg.norm(v)\n", []),
        ("analytics", "def selftest_report(a, b):\n    return np.linalg.norm(a), np.linalg.norm(b)\n",
         ["analytics.selftest_report:2 linalg.norm"]),
        ("m", "def f(a):\n    return np.dotted(a) + norm(a) + a.linalg_norm()\n", []),
    ],
)
def test_scan_finds_exactly_the_sites(module, source, sites):
    assert short_dot_sites(module, source) == sites
