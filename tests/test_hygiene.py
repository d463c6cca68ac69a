"""Static hygiene checks that need no linter: every name a module imports
is used in that module, every module-private top-level function or
class of the package is used outside its own definition, every
parameter of a function of the package is read by its body, every
default of a module-private function is overridden by some call, the
package names numpy only inside arrays.array (the engine computes on
Python floats), the atlas reads classification_tol only in
cross_check's residual flag, the package keeps no cache that outlives
one metric, metric._eigen alone calls the Jacobi eigensolver, no engine
module imports the atlas or the CLI, the reducer binds the curvature
engine and curvature the classifier without running them, and no
function body of the package imports a module of the package.
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


#: the one function of the package that names numpy: arrays.array builds
#: the ndarrays the public API hands out, and the engine computes on floats
_NUMPY_BOUNDARY = {"arrays.py": "array"}
_IMPORT_CALLS = {"__import__", "import_module"}


def _numpy_module(name: object) -> bool:
    return isinstance(name, str) and name.partition(".")[0] == "numpy"


def numpy_uses(source: str, boundary: str | None = None) -> list[str]:
    """Every numpy import in ``source`` (an ``import`` or ``from numpy``
    statement, or an ``__import__``/``import_module`` call) and every read
    of a name such a statement binds, outside the top-level function
    ``boundary``: ``line <n>: import <module>`` or ``line <n>: <name>``."""
    nodes = [n for top in ast.parse(source).body
             if not (isinstance(top, ast.FunctionDef) and top.name == boundary)
             for n in ast.walk(top)]
    found, bound = [], set()
    for node in nodes:
        if isinstance(node, ast.Import):
            for a in node.names:
                if _numpy_module(a.name):
                    found.append((node.lineno, node.col_offset, f"import {a.name}"))
                    bound.add(a.asname or "numpy")
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
                and _numpy_module(node.module)):
            found.append((node.lineno, node.col_offset, f"import {node.module}"))
            bound.update(a.asname or a.name for a in node.names)
        elif (isinstance(node, ast.Call) and _name(node.func) in _IMPORT_CALLS
                and node.args and _numpy_module(getattr(node.args[0], "value", None))):
            found.append((node.lineno, node.col_offset, f"import {node.args[0].value}"))
    found += [(n.lineno, n.col_offset, n.id) for n in nodes
              if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and n.id in bound]
    return [f"line {line}: {what}" for line, _, what in sorted(found)]


@pytest.mark.parametrize("path", _PACKAGE, ids=lambda p: p.name)
def test_numpy_is_named_only_in_arrays_array(path):
    """import lorcurv, and the CLI's metric subcommands, import no numpy,
    and the engine calls none: it computes on Python floats."""
    assert numpy_uses(path.read_text(), _NUMPY_BOUNDARY.get(path.name)) == []


def test_scan_finds_numpy_use():
    source = ("import math\nimport numpy as np\nimport numpy.linalg\n"
              "from numpy import linalg\nfrom .numpy import x\n\n"
              "class K:\n    import numpy as inner\n"
              "    J = inner.diag([1.0, 1.0, -1.0])\n\n"
              "def f(W, h):\n"
              "    d = np.linalg.det(W) + linalg.norm(W) + np.max(np.abs(h))\n"
              "    return W.T.dot(h) @ W, numpy.linalg.LinAlgError, x.max(), d\n\n"
              "def array(rows):\n    import numpy\n    return numpy.array(rows)\n\n"
              "g = lambda: __import__('numpy'), importlib.import_module('numpy.linalg')\n"
              "numpy = math.pi\n")
    outside = ["line 2: import numpy", "line 3: import numpy.linalg",
               "line 4: import numpy", "line 8: import numpy", "line 9: inner",
               "line 12: np", "line 12: linalg", "line 12: np", "line 12: np",
               "line 13: numpy"]
    imports = ["line 19: import numpy", "line 19: import numpy.linalg"]
    assert numpy_uses(source, "array") == outside + imports
    assert numpy_uses(source) == outside + [
        "line 16: import numpy", "line 17: numpy"] + imports


#: every module's zero bands take the unit of the quantity they test.
#: oneill.py is exempt: classify_self_adjoint receives Ric / s, with s the
#: squared frame brackets, so its 1 + norm means "the bracket unit or the
#: operator's own size, whichever is larger"
_BANDED = [p for p in _PACKAGE if p.name != "oneill.py"]


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


#: the one place where the atlas reads classification_tol: the residual
#: flag of cross_check.  The O'Neill type of a closed form is the engine's
#: (curvature._classify_ricci), so the atlas takes no type decision of its
#: own, and reads the band nowhere else
_ATLAS_TOL_READER = ("cross_check", "check")


def tolerance_reads(source: str) -> list[tuple[str, ...]]:
    """The enclosing function names, outermost first, of every read of
    ``classification_tol`` in ``source``; () at module scope."""
    found = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if _name(child) == "classification_tol" and isinstance(
                    getattr(child, "ctx", None), ast.Load):
                found.append(scope)
            visit(child, scope)
    visit(ast.parse(source), ())
    return found


def test_atlas_reads_the_band_only_in_its_residual_flag():
    source = (_ROOT / "src/lorcurv/atlas.py").read_text()
    assert tolerance_reads(source) == [_ATLAS_TOL_READER]


def test_scan_finds_tolerance_reads():
    source = ("BAND = DEFAULT_TOL.classification_tol\n\n"
              "def _operator_type(T, tol):\n"
              "    if n <= tol.classification_tol * s:\n        return 0\n"
              "    return abs(D) <= classification_tol * n\n\n"
              "def cross_check(tol):\n"
              "    def check(res):\n"
              "        return res > tol.classification_tol\n"
              "    tol.abs_tol\n    classification_tol = 1.0\n")
    assert tolerance_reads(source) == [
        (), ("_operator_type",), ("_operator_type",), ("cross_check", "check")]


#: the one store across calls: a family algebra is a fixed object of
#: (tag, basis), built once and shared read-only
_SHARED_CACHES = {"algebra.py": ["_family_algebra"]}
_CACHE_DECORATORS = {"cache", "lru_cache"}
_DICT_BUILDERS = {"dict", "defaultdict", "OrderedDict", "fromkeys"}
_DICT_WRITERS = {"setdefault", "update", "__setitem__"}


def _name(node: ast.AST) -> str | None:
    return getattr(node, "id", getattr(node, "attr", None))


def cross_call_caches(source: str) -> list[str]:
    """Functions decorated with ``functools.cache`` or ``lru_cache``, and
    module-level dicts that a function writes into: stores that outlive
    the metric a call was made on."""
    tree = ast.parse(source)
    functions = [node for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    found = [fn.name for fn in functions for dec in fn.decorator_list
             if _name(dec.func if isinstance(dec, ast.Call) else dec)
             in _CACHE_DECORATORS]
    dicts = set()
    for node in tree.body:
        value = getattr(node, "value", None)
        if (isinstance(value, (ast.Dict, ast.DictComp))
                or isinstance(value, ast.Call) and _name(value.func) in _DICT_BUILDERS):
            targets = getattr(node, "targets", [getattr(node, "target", None)])
            dicts.update(_name(t) for t in targets if isinstance(t, ast.Name))
    for fn in functions:
        for node in ast.walk(fn):
            written = []
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = getattr(node, "targets", [getattr(node, "target", None)])
                written = [t.value for t in targets if isinstance(t, ast.Subscript)]
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _DICT_WRITERS):
                written = [node.func.value]
            found += [n.id for n in written
                      if isinstance(n, ast.Name) and n.id in dicts]
    return sorted(set(found))


@pytest.mark.parametrize("path", _PACKAGE, ids=lambda p: p.name)
def test_no_cross_metric_caches(path):
    assert cross_call_caches(path.read_text()) == _SHARED_CACHES.get(path.name, [])


def test_scan_finds_cross_call_cache():
    source = ("import functools\nfrom functools import cache, lru_cache\n"
              "_TABLE = {'a': 1}\n_SEEN: dict = {}\n_MORE = dict()\n"
              "_LIST = []\n\n"
              "@functools.lru_cache(maxsize=8)\ndef a(x):\n    return x\n\n"
              "@cache\ndef b(x):\n    return x\n\n"
              "@lru_cache\ndef c(x):\n    return _TABLE[x]\n\n"
              "def d(x):\n    _SEEN[x] = 1\n    _MORE.setdefault(x, 2)\n"
              "    _LIST[0] = x\n    local = {}\n    local[x] = 1\n"
              "    return local\n")
    assert cross_call_caches(source) == ["_MORE", "_SEEN", "a", "b", "c"]


#: the one decomposition of a metric: metric._eigen runs the Jacobi
#: eigensolver and stores its result on the metric
_METRIC_DECOMPOSERS = {"metric.py": ["_eigen"]}


def metric_decompositions(source: str) -> list[str]:
    """The top-level definition around each call of ``_jacobi``, the
    package's eigensolver, in ``source`` (``<module>`` outside every one)."""
    found = [(n.lineno, getattr(top, "name", "<module>"))
             for top in ast.parse(source).body for n in ast.walk(top)
             if isinstance(n, ast.Call) and _name(n.func) == "_jacobi"]
    return [f"line {line}: {name}" for line, name in sorted(found)]


@pytest.mark.parametrize("path", _PACKAGE, ids=lambda p: p.name)
def test_metrics_are_decomposed_once(path):
    found = [f.partition(": ")[2] for f in metric_decompositions(path.read_text())]
    assert found == _METRIC_DECOMPOSERS.get(path.name, [])


def test_scan_finds_metric_decomposition():
    source = ("def _eigen(h):\n"
              "    return _derived(h, 'eigen', lambda: _jacobi(h._entries))\n\n"
              "class Frame:\n    def build(self, h):\n"
              "        return metric._jacobi(h._entries), eigh(h.entries)\n\n"
              "W = _jacobi(((1.0, 0.0, 0.0),) * 3)\n")
    assert metric_decompositions(source) == [
        "line 2: _eigen", "line 6: Frame", "line 8: <module>"]


#: the engine modules, below the atlas and the CLI.  A CLI subcommand runs
#: only the modules it calls, so none of these imports the atlas or the
#: CLI in any form (the package does not enter ``cli`` lazily, so binding
#: it runs it), and the reducer binds the curvature engine, and curvature
#: the classifier, without running it: the package runs each on its
#: first use
_ENGINE_MODULES = ("tolerance.py", "arrays.py", "algebra.py", "metric.py",
                   "oneill.py", "curvature.py", "registry.py", "canonical.py")
_UPPER_LAYERS = {"atlas", "cli"}
_BOUND_ONLY = {"canonical.py": {"curvature"}, "curvature.py": {"oneill"}}


def _type_checking_only(node: ast.AST) -> bool:
    """An ``if TYPE_CHECKING:`` block, which never runs."""
    return (isinstance(node, ast.If) and isinstance(node.test, ast.Name)
            and node.test.id == "TYPE_CHECKING")


def _package_modules(node: ast.AST) -> list[tuple[str, str]]:
    """The lorcurv modules an import statement names, relative or
    absolute, each with what the statement does to it: ``from . import x``
    and ``from lorcurv import x`` bind x, which the package runs on first
    use; ``import lorcurv.x`` and ``from .x import y`` read x's spec and
    so run it."""
    found = []      # (what, dotted name below the package)
    if isinstance(node, ast.Import):
        found = [("runs", a.name.partition(".")[2]) for a in node.names
                 if a.name.partition(".")[0] == "lorcurv"]
    elif isinstance(node, ast.ImportFrom):
        root, _, below = (node.module or "").partition(".")
        if node.level == 0 and root == "lorcurv":      # from lorcurv[.x]
            found = ([("runs", below)] if below
                     else [("binds", a.name) for a in node.names])
        elif node.level == 1:                           # from .[x]
            found = ([("runs", node.module)] if node.module
                     else [("binds", a.name) for a in node.names])
    return [(what, name.partition(".")[0]) for what, name in found if name]


def module_scope_package_imports(source: str) -> list[str]:
    """The lorcurv modules that ``source`` binds or runs outside every
    function body and every ``if TYPE_CHECKING:`` block, as
    ``line <n>: binds <module>`` or ``line <n>: runs <module>``."""
    found = []

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
                    or _type_checking_only(child)):
                continue
            found.extend(f"line {child.lineno}: {what} {module}"
                         for what, module in _package_modules(child))
            visit(child)
    visit(ast.parse(source))
    return found


def upper_layer_imports(name: str, source: str) -> list[str]:
    """The module-scope imports of engine module ``name`` that break the
    layering: an upper layer in any form, or a module it may only bind
    that it runs."""
    found = []
    for line in module_scope_package_imports(source):
        what, _, module = line.partition(": ")[2].partition(" ")
        if module in _UPPER_LAYERS or (what == "runs" and module in _BOUND_ONLY.get(name, ())):
            found.append(line)
    return found


@pytest.mark.parametrize("name", _ENGINE_MODULES)
def test_engine_modules_import_no_upper_layer(name):
    assert upper_layer_imports(name, (_ROOT / "src/lorcurv" / name).read_text()) == []


def test_scan_finds_module_scope_package_import():
    source = ("from __future__ import annotations\n"
              "from typing import TYPE_CHECKING\n"
              "from .atlas import emit_tables\nfrom . import cli, registry\n"
              "import lorcurv.oneill\nfrom lorcurv.canonical import x\n"
              "from lorcurv import metric\nimport lorcurvx\nfrom ..atlas import y\n\n"
              "if TYPE_CHECKING:\n    from .oneill import ONeillType\n\n"
              "try:\n    from .atlas.sub import z\nexcept ImportError:\n    pass\n\n"
              "class K:\n    from .cli import main\n\n"
              "def f():\n    from .oneill import classify_self_adjoint\n"
              "    return classify_self_adjoint\n\n"
              "from . import curvature\nfrom lorcurv import oneill as o\n"
              "from .curvature import riemann\nfrom lorcurv.oneill import ONeillType\n"
              "import lorcurv.oneill.sub as s\nimport lorcurv\n")
    assert module_scope_package_imports(source) == [
        "line 3: runs atlas", "line 4: binds cli", "line 4: binds registry",
        "line 5: runs oneill", "line 6: runs canonical", "line 7: binds metric",
        "line 15: runs atlas", "line 20: runs cli",
        "line 26: binds curvature", "line 27: binds oneill", "line 28: runs curvature",
        "line 29: runs oneill", "line 30: runs oneill"]


def test_scan_finds_upper_layer_import():
    """The reducer may bind the curvature engine but not run it; binding
    the atlas or the CLI breaks the layering of every engine module."""
    source = ("from . import curvature, oneill\nfrom . import atlas\n"
              "from lorcurv import cli\nfrom .curvature import riemann\n"
              "import lorcurv.oneill\n")
    assert upper_layer_imports("canonical.py", source) == [
        "line 2: binds atlas", "line 3: binds cli", "line 4: runs curvature"]
    assert upper_layer_imports("curvature.py", source) == [
        "line 2: binds atlas", "line 3: binds cli", "line 5: runs oneill"]
    assert upper_layer_imports("metric.py", source) == [
        "line 2: binds atlas", "line 3: binds cli"]


def function_package_imports(source: str) -> list[str]:
    """The lorcurv modules that an import statement inside a function
    body of ``source`` names, bound or run: the package decides when a
    module runs, so a module binds the modules it calls at module scope.
    ``import numpy`` names no package module."""
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.update((node.lineno, module) for node in ast.walk(fn)
                         for _, module in _package_modules(node))
    return [f"line {line}: {module}" for line, module in sorted(found)]


@pytest.mark.parametrize("path", _PACKAGE, ids=lambda p: p.name)
def test_no_function_imports_a_package_module(path):
    assert function_package_imports(path.read_text()) == []


def test_scan_finds_function_package_import():
    source = ("from . import curvature\n\n"
              "def array(x):\n    import numpy as np\n    return np.asarray(x)\n\n"
              "def f():\n    from . import oneill\n    import lorcurv.atlas\n"
              "    def g():\n        from .curvature import riemann\n"
              "        return riemann\n"
              "    return oneill, lorcurv, g\n\n"
              "class K:\n    from .registry import PARAM_NAMES\n\n"
              "    def m(self):\n        from lorcurv import cli\n        return cli\n")
    assert function_package_imports(source) == [
        "line 8: oneill", "line 9: atlas", "line 11: curvature", "line 19: cli"]
