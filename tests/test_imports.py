"""How the package loads: ``import lorcurv`` executes no engine module,
each public name resolves to its binding in its home module, and a CLI
process executes only the modules its subcommand runs.

The engine modules are run by ``importlib.util.LazyLoader`` on first
use, outside any import statement, so ``-X importtime`` does not list
them: the child processes here read ``sys.modules`` instead, where a
module that was entered but never run is still a lazy module."""

import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import lorcurv

_ROOT = Path(__file__).resolve().parents[1]
_SRC = str(_ROOT / "src")
#: the canonical Gc_gt1.2 metric with mu = 4, tau = 0, for c = 2: in
#: canonical form, so that ``curvature --frame paper`` answers too
_DOC = {"family": {"Gc": 2}, "metric": [[1, 1, 0], [1, 0, 0], [0, 0, 4]]}

#: public names that are not classes or functions, by home module
_CONSTANTS = {"DEFAULT_TOL": "lorcurv.tolerance", "J21": "lorcurv.metric"}


def test_public_names_are_their_home_modules():
    """Every name in __all__ is the object its home module binds: a class
    or function is at home where it is defined."""
    for name in lorcurv.__all__:
        obj = getattr(lorcurv, name)
        home = (obj.__module__ if isinstance(obj, (type, types.FunctionType))
                else _CONSTANTS[name])
        assert obj is getattr(importlib.import_module(home), name), name
    assert sorted(dir(lorcurv)) == sorted(lorcurv.__all__)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        lorcurv.no_such_name  # noqa: B018


def _child(code: str, *args: str) -> subprocess.CompletedProcess:
    """``code`` in a fresh interpreter with warnings as errors, lorcurv
    imported from this checkout."""
    return subprocess.run([sys.executable, "-W", "error", "-c", code, *args],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=_SRC))


#: a line of JSON on stderr: the lorcurv modules the child has run, which
#: are entered and no longer lazy, and ``code``
_REPORT = ("sys.stderr.write(json.dumps([sorted(\n"
           "    name for name, module in sys.modules.items()\n"
           "    if name.partition('.')[0] == 'lorcurv'\n"
           "    and type(module) is types.ModuleType), code]))\n")


def test_bare_import_executes_no_submodule():
    """After ``import lorcurv`` only the package has run; each submodule
    and each public name is there on first use."""
    proc = _child(
        "import json, sys, types\n"
        "import lorcurv\n"
        "code = 0\n" + _REPORT +
        "assert lorcurv.canonical.riemann is lorcurv.curvature.riemann\n"
        "assert lorcurv.registry.get_form_spec is lorcurv.get_form_spec\n"
        "assert not hasattr(lorcurv.atlas, 'get_form_spec')\n"
        "assert lorcurv.cli.main is sys.modules['lorcurv.cli'].main\n"
        "assert lorcurv.riemann is lorcurv.curvature.riemann\n")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stderr) == [["lorcurv"], 0]


_CORE = ["lorcurv", "lorcurv.algebra", "lorcurv.arrays", "lorcurv.metric",
         "lorcurv.tolerance"]
_REDUCER = ["lorcurv.canonical", "lorcurv.registry"]

#: the lorcurv modules each subcommand runs, besides lorcurv.cli itself
_BUDGETS = {
    "validate": (["validate", "{0}"], _CORE),
    "classify": (["classify", "{0}"], _CORE + _REDUCER),
    "equiv": (["equiv", "{0}", "{0}"], _CORE + _REDUCER),
    "constcurv": (["constcurv", "{0}"], _CORE + _REDUCER + ["lorcurv.curvature"]),
    "curvature": (["curvature", "{0}"], _CORE + ["lorcurv.curvature", "lorcurv.oneill"]),
    "curvature-paper": (["curvature", "--frame", "paper", "{0}"],
                        _CORE + _REDUCER + ["lorcurv.curvature", "lorcurv.oneill"]),
    "atlas": (["atlas", "--family", "Gc", "--c", "2", "--grid", "mu=1;tau=0.5;nu=1.5"],
              _CORE + ["lorcurv.atlas", "lorcurv.curvature", "lorcurv.oneill",
                       "lorcurv.registry"]),
}


@pytest.mark.parametrize("command", sorted(_BUDGETS))
def test_subcommand_runs_only_its_modules(tmp_path, command):
    """The CLI run as ``python -m lorcurv.cli`` runs it, through runpy,
    which warns if lorcurv.cli is already entered; a classify or equiv
    process runs no curvature engine, classifier or atlas, curvature in its
    own frame runs no reducer, constcurv no classifier and atlas no
    reducer."""
    argv, expected = _BUDGETS[command]
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(_DOC))
    proc = _child(
        "import json, runpy, sys, types\n"
        "sys.argv = ['lorcurv', *sys.argv[1:]]\n"
        "try:\n"
        "    runpy.run_module('lorcurv.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n" + _REPORT,
        *(a.format(doc) for a in argv))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    assert json.loads(proc.stderr) == [sorted(expected), 0]
