"""Source hygiene: no module under ``src/flowopt``, ``bench/``, ``scripts/`` or
``tests/`` imports a name it never uses, no public top-level function or class
in ``src/flowopt`` is dead, and no defaulted parameter there is left at its
default by every caller.
No module in ``src/flowopt`` imports ``autodiff`` or reads an attribute ``.data``
other than ``ctypes.data``.
No module in ``src/flowopt`` but ``rng.py`` constructs a NumPy stream
(``SeedSequence``, ``default_rng``, ``Generator`` or ``PCG64``), so every
stream comes from the one derivation ``tests/test_rng.py`` pins.

A standard-library ``ast`` scan stands in for a linter. A name counts as used
when it appears anywhere in the module as a bare name (which includes the root
of an attribute chain such as ``np.zeros``). ``from __future__`` imports and
names listed in ``__all__`` are exempt.

A public definition is dead when no code in ``src/flowopt``, ``bench/`` or
``scripts/`` names it, as a bare name or an attribute, outside its own body;
tests do not count as callers. Click commands are reached through their
decorator and are exempt, as is each entry of ``DEAD_CODE_ALLOWLIST``.

A defaulted parameter is dead when no call in those same callers sets it, by
keyword or by position; a default no caller overrides is a constant posing as
an option. Each entry of ``DEAD_PARAMETER_ALLOWLIST`` says why it stays.

A field of ``RunConfig`` or of one of its sections is dead, by the same
reasoning, when those callers never set it or never read it as an attribute.
Each entry of ``DEAD_CONFIG_ALLOWLIST`` says why it stays.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

from flowopt.config import _SECTION_TYPES, RunConfig

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "flowopt").glob("*.py"))
CALLERS = SRC + sorted((ROOT / "bench").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
MODULES = CALLERS + sorted((ROOT / "tests").glob("*.py"))
DEAD_CODE_ALLOWLIST = {
    "harness.selection_probabilities": "the selection law from scratch, which the acceptance "
                                       "line and the tests check a run's SelectionState against",
    "guidance.objective_gradient": "J and the latent gradient, checked finite: what the tape "
                                   "tests and the guidance-gradient acceptance line call; the "
                                   "program's steps take the unchecked _predict_and_gradient",
}
DEAD_PARAMETER_ALLOWLIST = {
    "config.paper_tuned.seed": "every PROFILES entry shares the signature of toy_default(seed)",
}
DEAD_CONFIG_ALLOWLIST = {
    "DataConfig.min_len": "read by bench/workloads.py and as `flowopt gen-data`'s default",
    "SurrogateConfig.epochs": "read by nothing, and kept while bench/test_smoke.py sets it",
    "VaeConfig.lr": "set by no profile, but written into every checkpoint header, whose "
                    "digests are pinned; retired with the re-record of bench/ckpt",
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


def holder_remnants(source: str) -> list:
    """``(line, what)`` for each import of ``autodiff`` and each read of an
    attribute ``.data`` other than ``ctypes.data``. Parameters are plain arrays,
    and on numpy 2 ``ndarray.data`` is a memoryview that ``np.dot`` and
    ``.shape`` accept, so a read left over from the parameter holder would run
    without error."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [f"{node.module}.{a.name}" for a in node.names]
        else:
            modules = []
        if any("autodiff" in m.split(".") for m in modules):
            found.append((node.lineno, "import autodiff"))
        if (isinstance(node, ast.Attribute) and node.attr == "data"
                and isinstance(node.ctx, ast.Load)
                and not (isinstance(node.value, ast.Attribute) and node.value.attr == "ctypes")):
            found.append((node.lineno, ".data"))
    return sorted(found)


def test_remnant_scan_flags_autodiff_imports_and_data_reads():
    source = ("from .autodiff import Tensor\n"
              "from . import autodiff, nn\n"
              "import flowopt.autodiff\n"
              "from .nn import data\n"
              "w.data = 1\n"
              "x = np.dot(x, w.data) + w.data.shape[0] + raw.ctypes.data\n"
              "w.data[0] = 0\n")
    assert holder_remnants(source) == [(1, "import autodiff"), (2, "import autodiff"),
                                       (3, "import autodiff"), (6, ".data"), (6, ".data"),
                                       (7, ".data")]


@pytest.mark.parametrize("path", SRC, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_parameter_holder_remnants(path):
    assert holder_remnants(path.read_text()) == []


STREAM_CONSTRUCTORS = {"SeedSequence", "default_rng", "Generator", "PCG64"}


def stream_constructions(source: str) -> list:
    """``(line, name)`` of each call, and each ``from`` import, of a NumPy
    stream constructor, however it is reached (``np.random.PCG64(...)``)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in STREAM_CONSTRUCTORS:
                found.append((node.lineno, name))
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, a.name) for a in node.names if a.name in STREAM_CONSTRUCTORS]
    return sorted(found)


def test_stream_scan_flags_constructors_not_annotations():
    source = ("import numpy as np\n"
              "from numpy.random import default_rng\n"
              "def f(gen: np.random.Generator) -> np.random.Generator:\n"
              "    return np.random.Generator(np.random.PCG64(0))\n"
              "g = default_rng(np.random.SeedSequence(1, spawn_key=(2,)))\n"
              "h = gen.integers(0, 8)\n")
    assert stream_constructions(source) == [(2, "default_rng"), (4, "Generator"), (4, "PCG64"),
                                            (5, "SeedSequence"), (5, "default_rng")]


@pytest.mark.parametrize("path", [p for p in SRC if p.name != "rng.py"],
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_streams_are_built_in_rng_only(path):
    assert stream_constructions(path.read_text()) == []


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


def _defaulted(fn, is_method: bool) -> list:
    """``(position, name)`` of each defaulted parameter of ``fn``: its index
    among the positional arguments a call passes, or None if keyword-only."""
    args = fn.args.posonlyargs + fn.args.args
    skip = int(is_method and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                     for d in fn.decorator_list))
    first = len(args) - len(fn.args.defaults)
    return ([(i - skip, a.arg) for i, a in enumerate(args) if i >= first]
            + [(None, a.arg) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
               if d is not None])


def dead_parameters(defining: dict, callers: dict) -> list:
    """``module.function.param`` (``module.Class.method.param`` for a method) of
    each defaulted parameter in ``defining`` (module name -> source) that no call
    in ``callers`` (path -> source) sets.

    A call matches every definition of the name it calls, bare or as an
    attribute; a call to a class name is a call to that class's ``__init__``.
    A method's ``self`` or ``cls`` takes no argument of the call, and a call
    that unpacks ``*args`` or ``**kwargs`` sets every parameter.
    """
    defs = {}  # called name -> [(qualified function name, defaulted parameters)]
    for module, source in defining.items():
        tree = ast.parse(source)
        owner = {id(f): c for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                 for f in c.body if isinstance(f, ast.FunctionDef)}
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                cls = owner.get(id(fn))
                qual = f"{module}.{cls.name}.{fn.name}" if cls else f"{module}.{fn.name}"
                entry = (qual, _defaulted(fn, cls is not None))
                defs.setdefault(fn.name, []).append(entry)
                if cls is not None and fn.name == "__init__":
                    defs.setdefault(cls.name, []).append(entry)
    unset = {f"{qual}.{param}" for entries in defs.values()
             for qual, params in entries for _, param in params}
    for source in callers.values():
        for call in ast.walk(ast.parse(source)):
            if not isinstance(call, ast.Call):
                continue
            called = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            unpacks = (any(isinstance(a, ast.Starred) for a in call.args)
                       or any(k.arg is None for k in call.keywords))
            keywords = {k.arg for k in call.keywords}
            for qual, params in defs.get(called, []):
                for position, param in params:
                    if (unpacks or param in keywords
                            or position is not None and position < len(call.args)):
                        unset.discard(f"{qual}.{param}")
    return sorted(unset)


def test_dead_parameter_scan_flags_defaults_no_caller_sets():
    defining = {"mod": ("def f(a, b=1, c=2, *, d=3, e=4): pass\n"
                        "def g(x=0): pass\n"
                        "def h(y=0): return h(y)\n"
                        "class K:\n"
                        "    def __init__(self, p=1, q=2): pass\n"
                        "    def m(self, r=1, s=2): pass\n"
                        "    @staticmethod\n"
                        "    def st(u=1, v=2): pass\n"
                        "    @classmethod\n"
                        "    def make(cls, w=1): pass\n")}
    callers = dict(defining, other=("import mod\n"
                                    "mod.f(0, 5, e=6)\n"
                                    "g(**{})\n"
                                    "k = mod.K(7)\n"
                                    "k.m(8)\n"
                                    "mod.K.st(9)\n"
                                    "mod.K.make()\n"))
    assert dead_parameters(defining, callers) == [
        "mod.K.__init__.q", "mod.K.m.s", "mod.K.make.w", "mod.K.st.v", "mod.f.c", "mod.f.d"]


def test_no_dead_parameters():
    defining = {p.stem: p.read_text() for p in SRC}
    dead = dead_parameters(defining, {str(p): p.read_text() for p in CALLERS})
    assert sorted(set(dead) - set(DEAD_PARAMETER_ALLOWLIST)) == []
    assert sorted(set(DEAD_PARAMETER_ALLOWLIST) - set(dead)) == []


NO_DEFAULT = object()  # a field with a default factory: any argument sets it


def _literal_equals(node, value) -> bool:
    try:
        return ast.literal_eval(node) == value
    except ValueError:
        return False


def dead_config_fields(fields: dict, callers: dict) -> list:
    """``Class.field`` of each field in ``fields`` (class name -> {field name:
    default or ``NO_DEFAULT``}, in field order) that no source in ``callers``
    (path -> source) sets, or that none reads as an attribute.

    A setting is an argument to the class, by keyword or by position, that is
    not a literal equal to the field's default; a keyword to ``replace``; or
    an assignment to an attribute. The last two cannot see the class, so they
    set the field of that name in every class that has one. A call to the
    class that unpacks ``*args`` or ``**kwargs`` sets all of its fields.

    Reads are matched by name alone as well: loading any attribute of a
    field's name (``state.lr``, ``rng.seed``) reads that field in every
    class, whatever object it is loaded from. The scan can therefore miss a
    dead field whose name some other object shares; it cannot flag a live
    one.
    """
    every = {f"{cls}.{name}" for cls, names in fields.items() for name in names}
    unset, unread = set(every), set(every)

    def mark(found: set, name: str, classes=fields):
        found.difference_update(f"{cls}.{name}" for cls in classes if name in fields[cls])

    for source in callers.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute):
                mark(unset if isinstance(node.ctx, ast.Store) else unread, node.attr)
            if not isinstance(node, ast.Call):
                continue
            called = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if called == "replace":
                for k in node.keywords:
                    mark(unset, k.arg)
            elif called in fields:
                defaults = fields[called]
                given = list(zip(defaults, node.args)) + [(k.arg, k.value) for k in node.keywords]
                if (any(isinstance(a, ast.Starred) for a in node.args)
                        or any(name is None for name, _ in given)):
                    given = [(name, None) for name in defaults]
                for name, value in given:
                    if value is None or not _literal_equals(value, defaults[name]):
                        mark(unset, name, [called])
    return sorted(unset | unread)


def test_dead_config_scan_flags_fields_nothing_sets_or_reads():
    fields = {"A": {"x": 1, "y": 2.0, "z": "s", "w": 0, "sub": NO_DEFAULT},
              "B": {"x": 3, "v": (1, 2), "u": 0, "t": 0}}
    callers = {"mod": ("a = A(1, 3.0, z='s', sub=B())\n"
                       "b = B(v=(1, 2), u=n)\n"
                       "c = replace(a, w=4)\n"
                       "c.t = 5\n"
                       "print(a.x, a.y, a.z, a.w, a.sub, b.v, b.u)\n")}
    # A.x is passed its default and B.x nothing; A.z its default; B.v its
    # default; B.t is set but never read.
    assert dead_config_fields(fields, callers) == ["A.x", "A.z", "B.t", "B.v", "B.x"]
    unpacked = {"mod": "B(**kw)\nprint(b.x, b.v, b.u, b.t)\n"}
    assert dead_config_fields({"B": fields["B"]}, unpacked) == []


def test_no_dead_config_fields():
    fields = {cls.__name__: {f.name: NO_DEFAULT if f.default is dataclasses.MISSING else f.default
                             for f in dataclasses.fields(cls)}
              for cls in (RunConfig, *_SECTION_TYPES.values())}
    dead = dead_config_fields(fields, {str(p): p.read_text() for p in CALLERS})
    assert sorted(set(dead) - set(DEAD_CONFIG_ALLOWLIST)) == []
    assert sorted(set(DEAD_CONFIG_ALLOWLIST) - set(dead)) == []

