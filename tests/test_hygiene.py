"""Source hygiene: no module under ``src/flowopt`` or ``tests/`` imports a name
it never uses, and no public top-level function or class in ``src/flowopt``
is dead.

A standard-library ``ast`` scan stands in for a linter. A name counts as used
when it appears anywhere in the module as a bare name (which includes the root
of an attribute chain such as ``np.zeros``). ``from __future__`` imports and
names listed in ``__all__`` are exempt.

A public definition is dead when no code in ``src/flowopt``, ``bench/`` or
``scripts/`` names it, as a bare name or an attribute, outside its own body;
tests do not count as callers. Click commands are reached through their
decorator and are exempt, as is each entry of ``DEAD_CODE_ALLOWLIST``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "flowopt").glob("*.py"))
MODULES = SRC + sorted((ROOT / "tests").glob("*.py"))
CALLERS = SRC + sorted((ROOT / "bench").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
DEAD_CODE_ALLOWLIST = {
    "toyset.tanimoto": "reference the selection-law test compares selection_probabilities with",
}


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


def _is_click_command(node) -> bool:
    return any(isinstance(n, ast.Attribute) and n.attr in ("command", "group")
               for d in node.decorator_list for n in ast.walk(d))


def dead_definitions(defining: dict, callers: dict) -> list:
    """``module.name`` of each public top-level function or class in ``defining``
    (module name -> source) that no source in ``callers`` (path -> source)
    names outside the definition's own body."""
    defs = {}
    for module, source in defining.items():
        for node in ast.parse(source).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_") and not _is_click_command(node)):
                defs.setdefault(node.name, []).append(module)
    used = set()
    for path, source in callers.items():
        module = Path(path).stem
        for top in ast.parse(source).body:
            owner = getattr(top, "name", None)
            for n in ast.walk(top):
                name = n.id if isinstance(n, ast.Name) else getattr(n, "attr", None)
                if name in defs and not (name == owner and module in defs[name]):
                    used.add(name)
    return sorted(f"{module}.{name}" for name, modules in defs.items() if name not in used
                  for module in modules)


def test_dead_code_scan_flags_unreferenced_definitions():
    defining = {"mod": ("import click\n"
                        "def used(): pass\n"
                        "def recursive(n): return recursive(n - 1)\n"
                        "class Dead: pass\n"
                        "def _private(): pass\n"
                        "def by_attribute(): pass\n"
                        "@click.group()\n"
                        "def main(): pass\n"
                        "@main.command('run')\n"
                        "def run(): pass\n")}
    callers = dict(defining, other="import mod\nused()\nmod.by_attribute()\n")
    assert dead_definitions(defining, callers) == ["mod.Dead", "mod.recursive"]


def test_no_dead_public_definitions():
    defining = {p.stem: p.read_text() for p in SRC}
    dead = dead_definitions(defining, {str(p): p.read_text() for p in CALLERS})
    assert sorted(set(dead) - set(DEAD_CODE_ALLOWLIST)) == []
    assert sorted(set(DEAD_CODE_ALLOWLIST) - set(dead)) == []
