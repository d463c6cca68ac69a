"""Static hygiene checks that need no linter: every name a module imports
is used in that module, every module-private top-level function or
class of the package is used outside its own definition, every
parameter of a function of the package is read by its body, every
default of a module-private function is overridden by some call, and
the package calls no function-style numpy reduction.
``__init__.py`` files re-export by importing, and ``from __future__``
imports switch on compiler features, so both are exempt from the import
scan."""

import ast
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_MODULES = sorted(p for d in ("src/lorcurv", "tests")
                  for p in (_ROOT / d).glob("*.py") if p.name != "__init__.py")
_PACKAGE = sorted((_ROOT / "src/lorcurv").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements in ``source`` and never read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_finds_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\nfrom math import pi, tau\n"
              "print(np.pi, tau)\n")
    assert unused_imports(source) == ["line 2: os", "line 4: pi"]


def unused_private_definitions(source: str) -> list[str]:
    """Top-level functions and classes named ``_name`` that nothing in
    ``source`` refers to outside their own body."""
    tree = ast.parse(source)
    defs = [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")]
    unused = []
    for node in defs:
        inside = {id(n) for n in ast.walk(node)}
        used = any(isinstance(n, ast.Name) and n.id == node.name
                   and id(n) not in inside for n in ast.walk(tree))
        if not used:
            unused.append(f"line {node.lineno}: {node.name}")
    return unused


@pytest.mark.parametrize("path", _PACKAGE, ids=lambda p: p.name)
def test_no_unused_private_definitions(path):
    assert unused_private_definitions(path.read_text()) == []


def test_scan_finds_unused_private_definition():
    source = ("def _used():\n    return 1\n\n"
              "def _recursive(n):\n    return _recursive(n - 1)\n\n"
              "class _Dead:\n    pass\n\n"
              "def public():\n    return _used()\n")
    assert unused_private_definitions(source) == ["line 4: _recursive",
                                                  "line 7: _Dead"]


#: functions whose signature a caller fixes: FormSpec calls every
#: ``matrix`` with ``(tag, p)``, and the Gc_lt1.10 matrix needs no tag
_FIXED_SIGNATURES = {"_lt1_10_matrix"}


def unused_parameters(source: str) -> list[str]:
    """Parameters of a ``def`` in ``source`` that its body never reads."""
    unused = []
    for node in ast.walk(ast.parse(source)):
        if (not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                or node.name in _FIXED_SIGNATURES):
            continue
        args = node.args
        params = [a.arg for a in (*args.posonlyargs, *args.args,
                                  *args.kwonlyargs, args.vararg, args.kwarg)
                  if a is not None]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unused += [f"line {node.lineno}: {node.name}({name})"
                   for name in params if name not in read]
    return unused


@pytest.mark.parametrize("path", _PACKAGE, ids=lambda p: p.name)
def test_no_unused_parameters(path):
    assert unused_parameters(path.read_text()) == []


def test_scan_finds_unused_parameter():
    source = ("def f(a, b, *args, c=1, **kw):\n    b = a\n    return kw\n\n"
              "class K:\n    def m(self, x):\n        return lambda: self.n + x\n\n"
              "def g(y=lambda z: z):\n    return 0\n\n"
              "def _lt1_10_matrix(ctx, p):\n    return p\n")
    assert unused_parameters(source) == ["line 1: f(b)", "line 1: f(c)",
                                         "line 1: f(args)", "line 9: g(y)"]


def _passes(call: ast.Call, index: int | None, name: str) -> bool:
    """Whether ``call`` gives the parameter at positional ``index`` (None
    for keyword-only) called ``name`` a value; a starred argument may."""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(k.arg in (None, name) for k in call.keywords):
        return True
    return index is not None and len(call.args) > index


def unpassed_defaults(sources: dict[str, str]) -> list[str]:
    """Defaulted parameters of module-private top-level functions that no
    call in ``sources`` (module name -> source) passes, by position or by
    name: such a default is the only value its parameter ever takes."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    calls = [n for tree in trees.values() for n in ast.walk(tree)
             if isinstance(n, ast.Call)]
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if (not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    or not node.name.startswith("_") or node.name.startswith("__")):
                continue
            args = node.args
            positional = [*args.posonlyargs, *args.args]
            first = len(positional) - len(args.defaults)
            defaulted = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
            defaulted += [(None, a.arg) for a, d in zip(args.kwonlyargs,
                                                        args.kw_defaults)
                          if d is not None]
            mine = [c for c in calls
                    if getattr(c.func, "id", getattr(c.func, "attr", None)) == node.name]
            found += [f"{module} line {node.lineno}: {node.name}({name})"
                      for index, name in defaulted
                      if not any(_passes(c, index, name) for c in mine)]
    return found


def test_every_private_default_is_passed():
    assert unpassed_defaults({p.name: p.read_text() for p in _PACKAGE}) == []


def test_scan_finds_unpassed_default():
    a = ("def _f(x, y=1, z=2, *, k=3, m=4):\n    return x\n\n"
         "def _g(u=0):\n    return u\n\n"
         "def _h(v=0):\n    return v\n\n"
         "def public(w=0):\n    return _f(1, 2, m=5)\n")
    b = ("import a\nargs = (1,)\n"
         "a._g(*args)\n")
    assert unpassed_defaults({"a.py": a, "b.py": b}) == [
        "a.py line 1: _f(z)", "a.py line 1: _f(k)", "a.py line 7: _h(v)"]


#: reductions the package calls as ndarray methods: on 3x3 arrays the
#: ``np.max(x)`` wrappers cost more than the arithmetic
_REDUCTIONS = {"max", "min", "sum", "all", "any"}


def function_style_reductions(source: str) -> list[str]:
    """Calls ``np.max(...)``, ``np.min(...)``, ``np.sum(...)``,
    ``np.all(...)`` or ``np.any(...)`` in ``source``."""
    calls = [node for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in _REDUCTIONS
             and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"]
    return [f"line {node.lineno}: np.{node.func.attr}"
            for node in sorted(calls, key=lambda n: (n.lineno, n.col_offset))]


@pytest.mark.parametrize("path", _PACKAGE, ids=lambda p: p.name)
def test_no_function_style_reductions(path):
    assert function_style_reductions(path.read_text()) == []


def test_scan_finds_function_style_reduction():
    source = ("import numpy as np\nx = np.zeros(3)\n"
              "a = np.max(np.abs(x))\nb = np.abs(x).max() + np.sum(x)\n"
              "c = np.all(x > 0) or np.any(x)\nd = np.min(x) + x.min() + max(x)\n"
              "e = np.maximum(x, 1.0).sum()\n")
    assert function_style_reductions(source) == [
        "line 3: np.max", "line 4: np.sum", "line 5: np.all", "line 5: np.any",
        "line 6: np.min"]


#: modules on the per-op curvature path, where an array rebuilt on every
#: call costs a numpy dispatch that a module constant does not
_CURVATURE_PATH = [_ROOT / "src/lorcurv" / name
                   for name in ("oneill.py", "curvature.py", "metric.py")]
_ARRAY_BUILDERS = {"array", "asarray", "eye", "identity", "diag", "zeros",
                   "ones", "full", "arange"}


def _literal(node: ast.AST) -> bool:
    """A number or other constant, a signed one, or a list or tuple of them."""
    if isinstance(node, ast.Constant):
        return True
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _literal(node.operand)
    if isinstance(node, (ast.List, ast.Tuple)):
        return all(map(_literal, node.elts))
    return False


def constant_arrays_in_functions(source: str) -> list[str]:
    """Calls such as ``np.eye(3)`` or ``np.diag([1.0, 1.0, -1.0])`` inside
    a function body: a numpy array builder whose positional arguments are
    all literals, so that every call builds the same array."""
    found = {}
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        for node in ast.walk(fn):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _ARRAY_BUILDERS
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "np"
                    and all(map(_literal, node.args))):
                found[(node.lineno, node.col_offset)] = node.func.attr
    return [f"line {line}: np.{name}" for (line, _), name in sorted(found.items())]


@pytest.mark.parametrize("path", _CURVATURE_PATH, ids=lambda p: p.name)
def test_no_constant_arrays_in_functions(path):
    assert constant_arrays_in_functions(path.read_text()) == []


def test_scan_finds_constant_array_in_function():
    source = ("import numpy as np\nJ = np.diag([1.0, 1.0, -1.0])\n\n"
              "def f(v, a, n):\n"
              "    e = np.eye(3)\n"
              "    s = np.diag([1.0, 1.0, -1.0]) @ np.array([v[1], -v[0], 0.0])\n"
              "    m = np.array([[0.0, 1, -1], [1, 0, 0]]) + np.diag(np.diag(a))\n"
              "    def g():\n        return np.zeros((3, 3), dtype=float)\n"
              "    return np.eye(n) + J, lambda: np.asarray(-2.0)\n")
    assert constant_arrays_in_functions(source) == [
        "line 5: np.eye", "line 6: np.diag", "line 7: np.array",
        "line 9: np.zeros", "line 10: np.asarray"]


#: modules whose zero bands take the unit of the quantity they test
_BANDED = [_ROOT / "src/lorcurv" / name
           for name in ("canonical.py", "curvature.py", "cli.py")]


def _is_one(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value == 1


def mixed_unit_bands(source: str) -> list[str]:
    """Products ``classification_tol * (1.0 + x)``, in either order and
    with the 1 on either side: a band that is absolute while x is small
    and relative once it is large, so a verdict changes with the units."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)):
            continue
        for tol, other in ((node.left, node.right), (node.right, node.left)):
            if (getattr(tol, "attr", getattr(tol, "id", None)) == "classification_tol"
                    and isinstance(other, ast.BinOp) and isinstance(other.op, ast.Add)
                    and (_is_one(other.left) or _is_one(other.right))):
                found.append(f"line {node.lineno}")
    return found


@pytest.mark.parametrize("path", _BANDED, ids=lambda p: p.name)
def test_no_mixed_unit_bands(path):
    assert mixed_unit_bands(path.read_text()) == []


def test_scan_finds_mixed_unit_band():
    source = ("a = tol.classification_tol * (1.0 + abs(x))\n"
              "b = (s + 1) * classification_tol * 100\n"
              "c = tol.classification_tol * max(abs(x), 1.0)\n"
              "d = tol.abs_tol * (1.0 + abs(x))\n"
              "e = tol.classification_tol * x + 1.0\n")
    assert mixed_unit_bands(source) == ["line 1", "line 2"]
