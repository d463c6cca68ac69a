"""The benchmark's layer tracer (bench/tracer.py) rebinds lorcurv
functions by name in every lorcurv namespace.  These checks keep the
names it traces in place, so a rename or a lost binding fails here and
not only in a benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import lorcurv.canonical
import lorcurv.curvature
from lorcurv import (
    FamilyTag,
    MetricTensor,
    canonical_matrix,
    constant_curvature_class,
    curvature_report,
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


def test_traced_survey_calls_riemann_outside_ricci():
    """bench/selftest.py expects more than 27 riemann calls for a survey op
    on the Einstein form GI.1: the 27 of the Riemann-model check in
    constant_curvature_class and the 3 of the frame sectional curvatures.
    ricci_tensor reads the curvature tensor and calls no riemann."""
    tag = FamilyTag("GI")
    alg = make_family_algebra(tag)
    h = MetricTensor(canonical_matrix(tag, "GI.1", {"mu": 1.0}))
    t = tracer.Tracer()
    t.install()
    try:
        curvature_report(alg, h)
        constant_curvature_class(tag, h)
        before = t.calls["curvature.riemann"]
        conn = lorcurv.curvature.levi_civita(alg, orthonormal_frame(h))
        lorcurv.curvature.ricci_tensor(conn)
        inside_ricci = t.calls["curvature.riemann"] - before
    finally:
        t.uninstall()
    assert t.calls["curvature.riemann"] > 27
    assert t.calls["curvature.ricci_tensor"] == 3
    assert inside_ricci == 0
