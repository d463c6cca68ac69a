"""The benchmark's layer tracer (bench/tracer.py) rebinds lorcurv
functions by name in every lorcurv namespace.  These checks keep the
names it traces in place, so a rename or a lost binding fails here and
not only in a benchmark run; they pin the calls one survey op makes, and
run the benchmark's own self-test."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lorcurv
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
    """The constant-curvature model check calls the engine's riemann, read
    from lorcurv.curvature when it runs, which the tracer rebinds; the
    name lorcurv.canonical.riemann resolves to it."""
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


def test_name_read_while_traced_is_not_kept():
    """In a fresh process, after a bare ``import lorcurv``: the package
    binds a name when its home module runs (here, inside
    ``Tracer.install``), never when the name is read, so a name first
    read while the tracer is installed gives the wrapper then and the
    original once the tracer is uninstalled."""
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c",
         "import sys\n"
         f"sys.path.insert(0, {str(root / 'bench')!r})\n"
         "import lorcurv\n"
         "from tracer import Tracer\n"
         "t = Tracer()\n"
         "t.install()\n"
         "assert hasattr(lorcurv.riemann, '__wrapped__')\n"
         "t.uninstall()\n"
         "assert lorcurv.riemann is lorcurv.curvature.riemann\n"
         "assert not hasattr(lorcurv.riemann, '__wrapped__')\n"],
        capture_output=True, text=True, timeout=120, check=False,
        env=dict(os.environ, PYTHONPATH=str(root / "src")))
    assert proc.returncode == 0, proc.stderr


def test_traced_cli_child_counts_classify(tmp_path):
    """``bench/child.py cli`` installs the tracer in a CLI process, where
    the modules classify does not run (the atlas, the classifier) are
    entered but not yet run; it finds all six traced modules, exits 0
    and counts the one canonical_form call."""
    root = Path(__file__).resolve().parents[1]
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({"family": {"Gc": 2},
                               "metric": [[-1, -1, 0], [-1, 0, 0], [0, 0, 4]]}))
    trace = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(root / "bench" / "child.py"), "cli",
         str(trace), "classify", str(doc)],
        capture_output=True, text=True, timeout=120, check=False,
        env=dict(os.environ, PYTHONPATH=str(root / "src")))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["form_id"] == "Gc_gt1.2"
    calls = json.loads(trace.read_text())["calls"]
    assert calls["canonical.canonical_form"] == 1
    assert set(calls) == set(tracer.NAMES)


#: traced calls of one survey op (curvature_report, then
#: constant_curvature_class, on one fresh metric) besides riemann; the
#: Ricci matrix is stored on the metric with its connection, so it is
#: computed once
_SURVEY_CALLS = {
    "metric.orthonormal_frame": 2, "algebra.make_family_algebra": 2,
    "curvature.ricci_tensor": 1, "curvature.levi_civita": 1,
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
