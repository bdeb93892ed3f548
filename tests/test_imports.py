"""Every module uses every name it imports, and the package re-exports only names in use.

The scan reads each file with ``ast``: a name bound by an ``import`` or
``from ... import`` anywhere in a module must be read somewhere in that module,
as a bare name or as the root of an attribute chain.  ``seqrac/__init__.py`` is
left out, because its imports are the package's re-exports; ``__future__``
imports are directives, not names.  Each of those re-exports must be read, as a
bare name or an attribute, by a module of ``src/seqrac``, by the acceptance
suite or by the bench workloads.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "seqrac"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
FILES = sorted(MODULES + list((ROOT / "tests").glob("*.py")))
# The callers of the public surface besides the package itself.
CALLERS = [ROOT / "tests" / "test_acceptance.py", ROOT / "bench" / "workloads.py"]


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` imports and never reads, in order of import."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "source, unused",
    [
        ("import itertools\n", ["itertools"]),
        ("import os.path\nos.sep\n", []),
        ("import numpy as np\nx = np.pi\n", []),
        ("from a import b, c as d\nb()\n", ["d"]),
        ("from __future__ import annotations\n", []),
        ("def f():\n    from a import b\n    return 1\n", ["b"]),
        ("from a import b\nclass C:\n    x: b\n", []),
    ],
)
def test_scan_finds_exactly_the_unread_names(source, unused):
    assert unused_imports(source) == unused


def reexports(source: str) -> list[str]:
    """The names that ``source`` binds by ``from ... import``, in order of import."""
    nodes = ast.walk(ast.parse(source))
    return [a.asname or a.name for node in nodes if isinstance(node, ast.ImportFrom) for a in node.names]


def names_read(source: str) -> set[str]:
    """Every bare name and every attribute that ``source`` reads."""
    nodes = list(ast.walk(ast.parse(source)))
    return {node.id for node in nodes if isinstance(node, ast.Name)} | {
        node.attr for node in nodes if isinstance(node, ast.Attribute)
    }


def test_every_reexport_is_read():
    read = set().union(*(names_read(p.read_text(encoding="utf-8")) for p in MODULES + CALLERS))
    public = reexports((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert public and [name for name in public if name not in read] == []


@pytest.mark.parametrize(
    "source, names",
    [
        ("from .a import b, c as d\nfrom .e import (\n    f,\n)\n", ["b", "d", "f"]),
        ("import a\n__version__ = '1'\n", []),
    ],
)
def test_reexports_are_the_from_imports(source, names):
    assert reexports(source) == names


def test_names_read_are_bare_names_and_attributes():
    assert names_read("def f(x):\n    return g(x).h + i.j\n") == {"g", "x", "h", "i", "j"}
