"""Source hygiene: every name a levyhom module imports is used in it, every
parameter of a levyhom function is read in its body, every top-level
definition and method is read by the package, the benchmark or the
acceptance criteria, and the regime names are spelled out only where the
regime is defined."""

import ast
from fnmatch import fnmatchcase
from pathlib import Path

import pytest

from levyhom.regimes import (CAUCHY_CENTER, CRITICAL_LOG, DIFFUSIVE,
                             STABLE_CENTER, STABLE_NO_CENTER)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "levyhom"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by the imports of ``source`` that no other node reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_unused_imports_are_found():
    source = ("import os\nfrom typing import Callable, Optional\n"
              "x: Optional = os\n")
    assert unused_imports(source) == [(2, "Callable")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def unread_parameters(source, allow=()):
    """(line, qualified name, parameter) for each parameter, ``self`` and
    ``cls`` aside, that no name in its function's body reads; functions
    whose qualified name matches a pattern of ``allow`` are skipped."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                a = child.args
                params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs
                          + [v for v in (a.vararg, a.kwarg) if v]]
                read = {n.id for stmt in child.body for n in ast.walk(stmt)
                        if isinstance(n, ast.Name)}
                if not any(fnmatchcase(name, pat) for pat in allow):
                    found.extend((child.lineno, name, p) for p in params
                                 if p not in read and p not in ("self", "cls"))
                visit(child, name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return sorted(found)


def test_unread_parameters_are_found():
    source = ("class C:\n"
              "    def m(self, a, *, b=1):\n"
              "        def inner(c):\n"
              "            return a\n"
              "        return inner\n"
              "    def hook(self, unused):\n"
              "        pass\n"
              "def f(x, *args, **kw):\n"
              "    return lambda y: x + y\n")
    assert unread_parameters(source) == [
        (2, "C.m", "b"), (3, "C.m.inner", "c"), (6, "C.hook", "unused"),
        (8, "f", "args"), (8, "f", "kw")]
    assert unread_parameters(source, allow=("*.hook", "C.m.*")) == [
        (2, "C.m", "b"), (8, "f", "args"), (8, "f", "kw")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert unread_parameters(path.read_text()) == []


def definitions(source):
    """(line, qualified name) of each top-level class, undecorated
    top-level function, and function defined in a top-level class's body,
    dunders aside."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            found.append((node.lineno, node.name))
            found.extend((child.lineno, f"{node.name}.{child.name}")
                         for child in node.body
                         if isinstance(child, (ast.FunctionDef,
                                               ast.AsyncFunctionDef))
                         and not (child.name.startswith("__")
                                  and child.name.endswith("__")))
        elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and not node.decorator_list):
            found.append((node.lineno, node.name))
    return found


def names_read(source):
    """(owner, name) for each name ``source`` reads as a Name, an Attribute
    or an imported name; owner is the qualified name of the enclosing
    top-level definition, or of the method for code in a class's methods,
    None for module-level code."""
    found = set()

    def collect(owner, node):
        for sub in ast.walk(node):
            if isinstance(getattr(sub, "ctx", None), ast.Store):
                continue
            if isinstance(sub, ast.Name):
                found.add((owner, sub.id))
            elif isinstance(sub, ast.Attribute):
                found.add((owner, sub.attr))
            elif isinstance(sub, ast.ImportFrom):
                found.update((owner, alias.name) for alias in sub.names)

    for top in ast.parse(source).body:
        owner = getattr(top, "name", None)
        if not isinstance(top, ast.ClassDef):
            collect(owner, top)
            continue
        for child in top.body:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                collect(f"{owner}.{child.name}", child)
            else:
                collect(owner, child)
        for expr in top.decorator_list + top.bases + top.keywords:
            collect(owner, expr)
    return found


def unread_definitions(definers, readers):
    """(file name, line, qualified name) for each definition of a file in
    ``definers`` whose name no file in ``readers`` reads outside the
    definition's own body. Both map a path to its source."""
    reads = {path: names_read(source) for path, source in readers.items()}

    def inside(owner, qualified):
        return owner is not None and (owner == qualified
                                      or owner.startswith(qualified + "."))

    return sorted(
        (path.name, line, qualified)
        for path, source in definers.items()
        for line, qualified in definitions(source)
        if not any(read == qualified.rsplit(".", 1)[-1]
                   and not (other == path and inside(owner, qualified))
                   for other, found in reads.items()
                   for owner, read in found))


def test_unread_definitions_are_found():
    mod, bench = Path("mod.py"), Path("bench.py")
    definers = {mod: ("class Used:\n"
                      "    def __init__(self):\n        pass\n"
                      "    def method(self):\n        return self.method()\n"
                      "    @classmethod\n    def tested(cls):\n        pass\n"
                      "    def sibling(self):\n        return self.read()\n"
                      "    def read(self):\n        pass\n"
                      "def helper():\n    return helper()\n"
                      "def tested_only():\n    pass\n"
                      "@register\ndef fixture():\n    return Used\n"
                      "def public():\n    return 1\n")}
    readers = {**definers, bench: ("from mod import public, Used\n"
                                   "Used().sibling()\n")}
    assert unread_definitions(definers, readers) == [
        ("mod.py", 4, "Used.method"), ("mod.py", 7, "Used.tested"),
        ("mod.py", 13, "helper"), ("mod.py", 15, "tested_only")]


# read only by the tests: EndpointBatch.load reads back the .npz that
# ``levyhom simulate`` writes
UNREAD_BY_DESIGN = {("pathsim.py", "EndpointBatch.load")}


def test_every_definition_is_read_by_the_pipeline():
    readers = [*MODULES, *sorted((ROOT / "levybench").rglob("*.py")),
               ROOT / "tests" / "test_acceptance.py"]
    unread = unread_definitions({p: p.read_text() for p in MODULES},
                                {p: p.read_text() for p in readers})
    assert [(f, name) for f, _, name in unread] == sorted(UNREAD_BY_DESIGN)


REGIME_NAMES = {STABLE_NO_CENTER, CAUCHY_CENTER, STABLE_CENTER, CRITICAL_LOG,
                DIFFUSIVE}


def regime_literals(source):
    """(line, name) for each string literal that names a regime, outside the
    bodies of functions decorated with ``_fixture`` (config documents)."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef) and any(
                    isinstance(dec, ast.Call) and getattr(dec.func, "id", "")
                    == "_fixture" for dec in child.decorator_list):
                continue
            if isinstance(child, ast.Constant) and child.value in REGIME_NAMES:
                found.append((child.lineno, child.value))
            visit(child)

    visit(ast.parse(source))
    return sorted(found)


def test_regime_literals_are_found():
    source = ("@_fixture('a')\n"
              "def doc():\n"
              "    return {'regime': 'diffusive'}\n"
              "def mode(r):\n"
              "    return r == 'cauchy_center' or r == 'cauchy'\n")
    assert regime_literals(source) == [(5, "cauchy_center")]


@pytest.mark.parametrize("path", [p for p in MODULES
                                  if p.name != "regimes.py"],
                         ids=lambda p: p.name)
def test_regimes_are_spelled_out_only_in_regimes(path):
    assert regime_literals(path.read_text()) == []


def call_sites(source, name):
    """(line, qualified name of the enclosing function, None at module
    level) for each call of ``name``, as a bare name or an attribute."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and name in (
                    getattr(child.func, "id", None),
                    getattr(child.func, "attr", None)):
                found.append((child.lineno, owner))
            inner = owner
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                inner = f"{owner}.{child.name}" if owner else child.name
            visit(child, inner)

    visit(ast.parse(source), None)
    return sorted(found)


def test_call_sites_are_found():
    source = ("x = build(1)\n"
              "class C:\n"
              "    def m(self):\n"
              "        return lib.build(self) + other()\n"
              "def f():\n"
              "    g = lambda: build(2)\n"
              "    return build\n")
    assert call_sites(source, "build") == [(1, None), (4, "C.m"), (6, "f")]


@pytest.mark.parametrize("name", ["mode_operator", "splu"])
def test_the_mode_operator_is_built_and_factored_only_in_mode_model(name):
    # one route from a spec to its mode operator: a second build or LU
    # would grow back the operators the measure's model already holds
    sites = [(path.name, owner) for path in MODULES
             for _, owner in call_sites(path.read_text(), name)]
    assert sites == [("corrector.py", "mode_model")]


def test_packets_are_mapped_only_in_the_candidate_draw():
    # one candidate draw serves every engine branch: a second mapping site
    # would grow back a branch's private draw
    sites = [(path.name, owner) for path in MODULES
             for _, owner in call_sites(path.read_text(), "z_from_packets")]
    assert sites == [("pathsim.py", "_candidate_blocks")]
