"""Curvature and canonical forms of left-invariant Lorentzian metrics on
three-dimensional non-unimodular Lie groups.

``import lorcurv`` executes none of the package's modules, so that a
process compiles only the modules it runs.  The engine modules are
entered in ``sys.modules`` through ``importlib.util.LazyLoader``, and
this is the one place that decides when a module runs: it runs when a
name is first read from it, and binding it with ``from . import x``
runs nothing.  A public name resolves on attribute access (PEP 562)
until its home module has run; from then on it is bound here, as the
module's own binding when it ran, so that a read costs no ``__getattr__``
call.
"""

import importlib
import importlib.util
import sys

__version__ = "0.1.0"

#: the engine modules, in dependency order; ``cli`` is left out, because
#: ``python -m lorcurv.cli`` must find it not yet imported
_ENGINE = ("tolerance", "arrays", "algebra", "metric", "oneill", "curvature",
           "registry", "canonical", "atlas")

#: each engine module -> the public names it defines
_EXPORTS = {f"{__name__}.{module}": names for module, names in (
    ("algebra", ("BasisLabel", "FamilyTag", "LieAlgebra3", "adapted_automorphism",
                 "adapted_basis_vectors", "adapted_transition",
                 "automorphism_matrix", "change_basis", "classification_basis",
                 "is_automorphism", "make_family_algebra")),
    ("registry", ("FormSpec", "canonical_matrix", "form_specs", "get_form_spec",
                  "paper_frame")),
    ("atlas", ("AtlasEntry", "ClosedFormCurvature", "atlas_entries",
               "closed_form_report", "cross_check", "emit_tables")),
    ("canonical", ("CanonicalForm", "ConstantCurvatureClass",
                   "DegenerateMetricError", "canonical_form",
                   "constant_curvature_class", "equivalent", "from_adapted_basis",
                   "to_adapted_basis")),
    ("curvature", ("Connection", "CurvatureReport", "cross", "curvature_report",
                   "levi_civita", "milnor_sectional", "ricci_operator",
                   "ricci_tensor", "riemann", "sectional")),
    ("metric", ("J21", "MetricTensor", "OrthonormalFrame", "SignatureDiagnostics",
                "frame_gram_residual", "orthonormal_frame", "pull_back_metric",
                "validate_metric")),
    ("oneill", ("ONeillClassification", "ONeillType", "classify_self_adjoint")),
    ("tolerance", ("DEFAULT_TOL", "ToleranceConfig")),
)}
#: each public name -> the module that defines it
_HOMES = {name: home for home, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOMES)


class _BindingLoader:
    """A module's own loader, which binds the module's public names in the
    package once the module has run.  The names are the functions and
    classes the module has just made, never a later rebinding of them;
    a name the module makes on first use (``J21``) stays with __getattr__."""

    def __init__(self, loader) -> None:
        self._loader = loader

    def __getattr__(self, name: str):
        return getattr(self._loader, name)

    def exec_module(self, module) -> None:
        self._loader.exec_module(module)
        made = vars(module)
        globals().update((name, made[name]) for name in _EXPORTS.get(module.__name__, ())
                         if name in made)


def _register_lazily(fullname: str) -> None:
    """Enter the module in sys.modules, to be run on its first attribute
    access; ``from .x import y`` and ``import lorcurv.x`` read its
    ``__spec__`` and so run it, ``from . import x`` only binds it."""
    if fullname in sys.modules:
        return
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(_BindingLoader(spec.loader))
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)


for _name in _ENGINE:
    _register_lazily(f"{__name__}.{_name}")
del _name


def _loaded(fullname: str):
    """The module, from sys.modules; imported only if it is not there."""
    module = sys.modules.get(fullname)
    return module if module is not None else importlib.import_module(fullname)


def __getattr__(name: str):
    """A public name whose home module has not run yet, read from it, which
    runs it; ``J21``, which metric makes on first use; a submodule."""
    home = _HOMES.get(name)
    if home is not None:
        return getattr(_loaded(home), name)
    if name in _ENGINE or name == "cli":
        return _loaded(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return list(__all__)
