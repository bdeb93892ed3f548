"""Every module uses every name it imports.

The scan reads each file with ``ast``: a name bound by an ``import`` or
``from ... import`` anywhere in a module must be read somewhere in that module,
as a bare name or as the root of an attribute chain.  ``seqrac/__init__.py`` is
left out, because its imports are the package's re-exports; ``__future__``
imports are directives, not names.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    [p for p in (ROOT / "src" / "seqrac").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py")),
)


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
