"""The benchmark's layer tracer (bench/tracer.py) rebinds lorcurv
functions by name in every lorcurv namespace.  These checks keep the
names it traces in place, so a rename or a lost binding fails here and
not only in a benchmark run; they pin the calls one survey op makes, and
run the benchmark's own self-test."""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

import lorcurv.canonical
import lorcurv.curvature
from lorcurv import (
    FamilyTag,
    MetricTensor,
    ONeillType,
    canonical_matrix,
    classification_basis,
    make_family_algebra,
    orthonormal_frame,
)


def _load_tracer():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("name", tracer.NAMES)
def test_traced_function_exists(name):
    module_name, _, fn_name = name.partition(".")
    module = importlib.import_module(f"lorcurv.{module_name}")
    assert callable(getattr(module, fn_name, None)), name


def test_bench_selftest_passes():
    """The benchmark's own self-test (bench/selftest.py) exits 0, so a
    library change that breaks one of its checks, such as the riemann call
    count or the traced names, fails here and not only in a hand run."""
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, str(root / "bench" / "selftest.py")],
                          cwd=root, capture_output=True, text=True,
                          timeout=600, check=False)
    assert proc.returncode == 0, proc.stderr[-4000:]


def test_canonical_calls_engine_riemann():
    """The constant-curvature model check calls riemann through the name
    bound in lorcurv.canonical, which the tracer rebinds."""
    assert lorcurv.canonical.riemann is lorcurv.curvature.riemann


def test_tracer_installs_and_uninstalls():
    original = lorcurv.canonical.riemann
    t = tracer.Tracer()
    t.install()
    try:
        assert lorcurv.canonical.riemann is not original
    finally:
        t.uninstall()
    assert lorcurv.canonical.riemann is original


#: traced calls of one survey op (curvature_report, then
#: constant_curvature_class, on one fresh metric) besides riemann
_SURVEY_CALLS = {
    "metric.orthonormal_frame": 2, "algebra.make_family_algebra": 2,
    "curvature.ricci_tensor": 2, "curvature.levi_civita": 1,
    "curvature.sectional": 3, "curvature.curvature_report": 1,
    "oneill.classify_self_adjoint": 1, "canonical.canonical_form": 1,
    "canonical.constant_curvature_class": 1,
}


def test_traced_survey_calls_riemann_outside_ricci():
    """Every traced function's call count in one survey op, on the Einstein
    form GI.1, a {21} form and a {1zz} form, so that a faster op which
    drops a call or a check fails here.  bench/selftest.py expects more
    than 27 riemann calls for GI.1: the 27 of the Riemann-model check in
    constant_curvature_class, which runs on Einstein metrics only, and the
    3 of the frame sectional curvatures.  ricci_tensor reads the curvature
    tensor and calls no riemann."""
    forms = [(FamilyTag("GI"), "GI.1", {"mu": 1.0}, ONeillType.DIAGONAL, 30),
             (FamilyTag("Gc", 2.0), "Gc_gt1.1", {"mu": 1.0},
              ONeillType.DOUBLE, 3),
             (FamilyTag("Gc", 2.0), "Gc_gt1.2", {"mu": 1.0, "tau": 0.5},
              ONeillType.COMPLEX, 3)]
    for tag, form_id, params, otype, riemann_calls in forms:
        basis = classification_basis(tag)
        h = MetricTensor(canonical_matrix(tag, form_id, params),
                         basis_label=basis)
        t = tracer.Tracer()
        t.install()
        try:
            # through the package's names, as bench/ops.py calls them
            report = lorcurv.curvature_report(
                lorcurv.make_family_algebra(tag, basis), h)
            lorcurv.constant_curvature_class(tag, h)
            survey_calls = dict(t.calls)
            conn = lorcurv.curvature.levi_civita(make_family_algebra(tag, basis),
                                                 orthonormal_frame(h))
            lorcurv.curvature.ricci_tensor(conn)
            inside_ricci = t.calls["curvature.riemann"] - riemann_calls
        finally:
            t.uninstall()
        assert report.oneill.type_tag == otype, form_id
        expected = dict.fromkeys(tracer.NAMES, 0)
        expected.update(_SURVEY_CALLS)
        expected["curvature.riemann"] = riemann_calls
        assert survey_calls == expected, form_id
        assert inside_ricci == 0, form_id
