"""Source hygiene: no module under ``src/flowopt`` or ``tests/`` imports a name
it never uses.

A standard-library ``ast`` scan stands in for a linter. A name counts as used
when it appears anywhere in the module as a bare name (which includes the root
of an attribute chain such as ``np.zeros``). ``from __future__`` imports and
names listed in ``__all__`` are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "flowopt").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py"))


def _exported(tree) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return names


def unused_imports(source: str) -> list:
    """``(line, name)`` for every imported name the module never uses."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # ``import a.b`` binds ``a``.
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _exported(tree)
    return [(line, name) for line, name in imported if name not in used]


def test_scan_flags_unused_and_keeps_used():
    source = ("from __future__ import annotations\n"
              "import os, json\n"
              "import a.b as ab\n"
              "import x.y\n"
              "from m import (p, q as r, s)\n"
              "__all__ = ['s']\n"
              "print(json.dumps(x.y.z), r)\n")
    assert unused_imports(source) == [(2, "os"), (3, "ab"), (5, "p")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
