import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lorcurv.canonical
import lorcurv.curvature
from lorcurv import (canonical_matrix, classification_basis, cli, form_specs,
                     pull_back_metric, MetricTensor)
from lorcurv.atlas import _param_grid
from lorcurv.cli import main
from tests.conftest import ALL_TAGS, SWEEP_GRID, rand_automorphism


def _doc(tmp_path, name, family, metric, basis="natural", tolerance=None):
    payload = {"family": family, "basis": basis, "metric": metric}
    if tolerance is not None:
        payload["tolerance"] = tolerance
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_version_is_the_package_version(capsys):
    """--version prints lorcurv.__version__, which is pyproject.toml's."""
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"lorcurv {lorcurv.__version__}\n"
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert re.search(r'^version = "(.*)"$', pyproject, re.M)[1] == lorcurv.__version__


def test_validate_ok(tmp_path, capsys):
    f = _doc(tmp_path, "m.json", "GI", [[1, 0, 0], [0, 1, 0], [0, 0, -1]])
    code, out = _run(capsys, "validate", f)
    assert code == 0
    payload = json.loads(out)
    assert payload["accepted"] and payload["signature"] == [2, 0, 1]


def test_validate_riemannian_exit1(tmp_path, capsys):
    f = _doc(tmp_path, "m.json", "GI", [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    code, out = _run(capsys, "validate", f)
    assert code == 1
    assert not json.loads(out)["accepted"]


def test_malformed_json_exit2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    assert main(["validate", str(path)]) == 2


def test_missing_file_exit2():
    assert main(["validate", "/nonexistent/file.json"]) == 2


def test_bad_family_exit2(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"family": "GX", "basis": "natural",
                                "metric": [[1, 0, 0], [0, 1, 0], [0, 0, -1]]}))
    assert main(["classify", str(path)]) == 2


def test_basis_family_mismatch_exit1(tmp_path):
    f = _doc(tmp_path, "m.json", "GI",
             [[1, 0, 0], [0, 1, 0], [0, 0, -1]], basis="Q_adapted")
    assert main(["classify", f]) == 1


def test_validate_adapted_basis_without_family(tmp_path, capsys):
    """validate takes no family, so it checks no basis against one: an
    adapted-basis metric is validated as it stands."""
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"basis": "Q_adapted",
                                "metric": [[1, 0, 0], [0, 1, 0], [0, 0, -1]]}))
    code, out = _run(capsys, "validate", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["basis"] == "Q_adapted" and payload["family"] is None


def test_classify_gi(tmp_path, capsys):
    f = _doc(tmp_path, "m.json", "GI", [[1, 0, 0], [0, -1, 0], [0, 0, 5]])
    code, out = _run(capsys, "classify", f)
    assert code == 0
    payload = json.loads(out)
    assert payload["form_id"] == "GI.1"
    assert payload["mu"] == pytest.approx(5.0)


def test_classify_mixed_sign_case(tmp_path, capsys):
    f = _doc(tmp_path, "m.json", {"Gc": 2},
             [[-1, -1, 0], [-1, 0, 0], [0, 0, 4]])
    code, out = _run(capsys, "classify", f)
    assert code == 0
    payload = json.loads(out)
    assert payload["form_id"] == "Gc_gt1.2"
    assert payload["mu"] == pytest.approx(4.0)
    assert payload["tau"] == pytest.approx(0.0)


def test_curvature_auto(tmp_path, capsys):
    f = _doc(tmp_path, "m.json", "GI", [[1, 0, 0], [0, -1, 0], [0, 0, 1]])
    code, out = _run(capsys, "curvature", f)
    assert code == 0
    payload = json.loads(out)
    assert payload["scalar"] == pytest.approx(-6.0)


def test_curvature_paper_frame(tmp_path, capsys):
    f = _doc(tmp_path, "m.json", "GI", [[1, 0, 0], [0, -1, 0], [0, 0, 2]])
    code, out = _run(capsys, "curvature", f, "--frame", "paper")
    assert code == 0
    assert json.loads(out)["scalar"] == pytest.approx(-3.0)


def test_curvature_paper_frame_rejects_non_canonical(tmp_path, capsys):
    # equivalent to GI.1 but not literally canonical
    f = _doc(tmp_path, "m.json", "GI", [[2, 0, 0], [0, -1, 0], [0, 0, 1]])
    assert main(["curvature", f, "--frame", "paper"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("rejected: metric is not in canonical form; "
                          "canonicalize first (form GI.1, residual ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("mu,t", [(1e6, 90.0), (1e4, 0.09)])
def test_curvature_paper_frame_rejects_large_translated_metric(
        tmp_path, capsys, mu, t):
    """GI.1 pulled back by e3 -> e3 - t e1.  The paper frame is off from
    h-orthonormal by t/sqrt(mu), far outside the Gram band
    classification_tol, however large max|h| is."""
    metric = [[1, 0, t], [0, -1, 0], [t, 0, mu + t * t]]
    f = _doc(tmp_path, "m.json", "GI", metric)
    assert main(["curvature", f, "--frame", "paper"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("rejected: metric is not in canonical form")


def test_curvature_paper_frame_gram_residual_is_a_rejection(tmp_path, capsys):
    """GI.1 with mu = 1e-4 and a (x2, x3) entry of 1.5e-7: the paper frame
    is 1.5e-5 off in its Gram residual, so the metric is not canonical, a
    rejection and not a traceback."""
    f = _doc(tmp_path, "m.json", "GI",
             [[1, 0, 0], [0, -1, 1.5e-7], [0, 1.5e-7, 1e-4]])
    assert main(["curvature", f, "--frame", "paper"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("rejected: metric is not in canonical form; "
                          "canonicalize first (form GI.1, residual ")


def test_constcurv_near_c1(tmp_path, capsys):
    """A c = 1.01 metric whose canonical representative is nearly singular
    (a frame built on it failed): the verdict comes from the input."""
    f = _doc(tmp_path, "m.json", {"Gc": 1.01},
             [[1.5814, -0.7739, 0.2963], [-0.7739, 0.5365, 1.4887],
              [0.2963, 1.4887, 1.1192]])
    assert main(["constcurv", f]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["class"] == "non_constant"
    assert captured.err == ""


def test_equiv_exit_codes(tmp_path, capsys):
    h = [[1, 1, 0], [1, 0, 0], [0, 0, 4]]
    f1 = _doc(tmp_path, "a.json", {"Gc": 2}, [[-1, -1, 0], [-1, 0, 0], [0, 0, 4]])
    f2 = _doc(tmp_path, "b.json", {"Gc": 2}, h)
    code, out = _run(capsys, "equiv", f1, f2)
    assert code == 0
    payload = json.loads(out)
    assert payload["equivalent"]
    W = np.asarray(payload["witness"], dtype=float)
    h1 = np.array([[-1.0, -1, 0], [-1, 0, 0], [0, 0, 4]])
    assert np.max(np.abs(W.T @ h1 @ W - np.asarray(h, float))) < 1e-7


def test_equiv_not_equivalent_exit3(tmp_path, capsys):
    f1 = _doc(tmp_path, "a.json", "GI", [[1, 0, 0], [0, -1, 0], [0, 0, 2]])
    f2 = _doc(tmp_path, "b.json", "GI", [[1, 0, 0], [0, -1, 0], [0, 0, 3]])
    code, out = _run(capsys, "equiv", f1, f2)
    assert code == 3
    assert not json.loads(out)["equivalent"]


def test_equiv_cross_family_exit2(tmp_path, capsys):
    f1 = _doc(tmp_path, "a.json", "GI", [[1, 0, 0], [0, -1, 0], [0, 0, 2]])
    f2 = _doc(tmp_path, "b.json", {"Gc": 2}, [[1, 0, 0], [0, -1, 0], [0, 0, 2]])
    assert main(["equiv", f1, f2]) == 2


@pytest.mark.parametrize("order", [(0, 1), (1, 0)], ids=["tight-first", "loose-first"])
def test_equiv_different_tolerances_exit2(tmp_path, capsys, order):
    """Two documents that set different tolerances are a parse error in
    either order, so that the verdict cannot depend on the order: the
    metric and its 1e-6 perturbation are inequivalent within 1e-9 and
    equivalent within 1e-3."""
    files = [_doc(tmp_path, "a.json", {"Gc": 2}, [[1, 1, 0], [1, 0, 0], [0, 0, 4]],
                  tolerance={"classification_tol": 1e-9}),
             _doc(tmp_path, "b.json", {"Gc": 2}, [[1, 1, 0], [1, 0, 0], [0, 0, 4.000001]],
                  tolerance={"classification_tol": 1e-3})]
    assert main(["equiv", *(files[i] for i in order)]) == cli.EXIT_PARSE
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: tolerance: the two documents set different tolerances\n"


def test_constcurv(tmp_path, capsys):
    f = _doc(tmp_path, "m.json", "GI", [[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    code, out = _run(capsys, "constcurv", f)
    assert code == 0
    assert json.loads(out)["class"] == "flat"


def test_atlas_csv(tmp_path, capsys):
    code, out = _run(capsys, "atlas", "--family", "GI",
                     "--grid", "mu=1,2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("family,")
    assert len(lines) == 1 + 2 + 2 + 1


def test_atlas_out_file(tmp_path, capsys):
    out_path = tmp_path / "atlas.json"
    code, _ = _run(capsys, "atlas", "--family", "Gc", "--c", "2",
                   "--grid", "mu=1;tau=0;nu=1.5", "--format", "json",
                   "--out", str(out_path))
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert len(payload) == 3


def test_atlas_unwritable_out_exit2(tmp_path, capsys):
    out_path = tmp_path / "missing" / "atlas.csv"
    assert main(["atlas", "--family", "GI", "--grid", "mu=1",
                 "--out", str(out_path)]) == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out_path) in err
    assert err.count("\n") == 1


def test_atlas_family_rule_comes_from_the_tag(capsys):
    """atlas builds every family's tag through FamilyTag, so --c on GI is
    refused with the tag's own message, as --c missing on Gc is."""
    assert main(["atlas", "--family", "GI", "--c", "2", "--grid", "mu=1"]) == 2
    assert capsys.readouterr().err == "error: --c: family GI takes no parameter\n"


def test_atlas_rejection_names_its_cell(capsys):
    """A grid cell that the classifier cannot decide (G1.2 at mu = 1e-8:
    its spacelike eigenvector sinks into the band) exits 1, and the one
    stderr line names the form and its parameters."""
    assert main(["atlas", "--family", "Gc", "--c", "1",
                 "--grid", "mu=1e-8,1"]) == cli.EXIT_DOMAIN
    err = capsys.readouterr().err
    assert err.startswith("rejected: G1.2 at {'mu': 1e-08}: O'Neill classification: ")
    assert err.count("\n") == 1


def test_atlas_bad_grid_exit2():
    assert main(["atlas", "--family", "GI", "--grid", "mu=banana"]) == 2
    assert main(["atlas", "--family", "GI", "--grid", ""]) == 2
    assert main(["atlas", "--family", "Gc", "--grid", "mu=1"]) == 2  # no --c


def test_deterministic_output(tmp_path, capsys):
    f = _doc(tmp_path, "m.json", {"Gc": 0.75},
             [[1, 0, 0], [0, 1, 0], [0, 0, -2]], basis="P_adapted")
    _, out1 = _run(capsys, "curvature", f)
    _, out2 = _run(capsys, "curvature", f)
    assert out1 == out2


def test_explicit_tolerance_field(tmp_path, capsys):
    # nearly degenerate input: rejected at the default classification_tol,
    # accepted with a tighter explicit one
    metric = [[1, 0, 0], [0, 1e-8, 0], [0, 0, -1]]
    strict = _doc(tmp_path, "strict.json", "GI", metric)
    assert main(["validate", strict]) == 1
    f = _doc(tmp_path, "m.json", "GI", metric,
             tolerance={"classification_tol": 1e-9})
    assert main(["validate", f]) == 0
    bad = _doc(tmp_path, "bad.json", "GI",
               [[1, 0, 0], [0, 1, 0], [0, 0, -1]],
               tolerance={"classification_tol": -1})
    assert main(["validate", bad]) == 2


_LORENTZIAN = "[[1, 0, 0], [0, 1, 0], [0, 0, -1]]"


@pytest.mark.parametrize("argv,doc,path", [
    (["classify"], '{"family": {"Gc": true}, "metric": %s}' % _LORENTZIAN,
     "family.Gc"),
    (["classify"], '{"family": {"Gc": 1e400}, "metric": %s}' % _LORENTZIAN,
     "family.Gc"),
    # abs_tol is no longer a field: a parse error whatever its value
    (["classify"], '{"family": "GI", "metric": %s, "tolerance": {"abs_tol": NaN}}'
     % _LORENTZIAN, "tolerance.abs_tol"),
    (["curvature"], '{"family": {"Gc": 2}, "metric": [[-1, -1, 0], [-1, 0, 0], '
     '[0, 0, 4]], "tolerance": {"classification_tol": 1e-20}}',
     "tolerance.classification_tol"),
    (["classify"], '{"family": "GI", "metric": %s, "tolerance": {"rel_tol": 1e-9}}'
     % _LORENTZIAN, "tolerance.rel_tol"),
    (["classify"], '{"family": "GI", "metric": [[1, 0, 0], [0, "a", 0], [0, 0, -1]]}',
     "metric[1][1]"),
    (["classify"], '{"family": "GI", "metric": [[1, 0, 0], [0, 1], [0, 0, -1]]}',
     "metric"),
    (["atlas", "--family", "Gc", "--c", "nan", "--grid", "mu=1"], None, "--c"),
    (["atlas", "--family", "GI", "--grid", "mu=inf"], None, "--grid"),
    (["classify"], '{"family": "GI", "metric": %s, "tolerance": {"abs_tol": true}}'
     % _LORENTZIAN, "tolerance.abs_tol"),
    (["classify"], '{"family": {"Gc": "2"}, "metric": %s}' % _LORENTZIAN,
     "family.Gc"),
    (["atlas", "--family", "Gc", "--grid", "mu=1"], None, "--c"),
    (["classify"], '{"family": "GI", "metric": %s, "tolerence": {"abs_tol": 1e-6}}'
     % _LORENTZIAN, "tolerence"),
    (["atlas", "--family", "GI", "--grid", "muu=1"], None, "--grid"),
    (["atlas", "--family", "GI", "--grid", "mu=1;mu=2"], None, "--grid"),
    (["atlas", "--family", "GI", "--c", "2", "--grid", "mu=1"], None, "--c"),
    (["classify"], '{"family": "GI", "metric": %s, "tolerance": '
     '{"classification_tol": NaN}}' % _LORENTZIAN, "tolerance.classification_tol"),
    (["classify"], '{"family": "GI", "metric": %s, "tolerance": '
     '{"classification_tol": true}}' % _LORENTZIAN, "tolerance.classification_tol"),
    (["classify"], '{"family": "GI", "metric": %s, "tolerance": {"abs_tol": 1e-9}}'
     % _LORENTZIAN, "tolerance.abs_tol"),
], ids=["bool-c", "infinite-c", "nan-abs-tol", "tiny-classification-tol",
        "unknown-rel-tol", "non-numeric-metric",
        "ragged-metric", "atlas-nan-c", "atlas-infinite-grid", "bool-abs-tol",
        "string-c", "atlas-missing-c", "unknown-document-field",
        "atlas-unknown-grid-name", "atlas-repeated-grid-name",
        "atlas-gi-with-c", "nan-classification-tol", "bool-classification-tol",
        "retired-abs-tol"])
def test_malformed_input_exit2(tmp_path, capsys, argv, doc, path):
    if doc is not None:
        f = tmp_path / "m.json"
        f.write_text(doc)
        argv = argv + [str(f)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


@pytest.mark.parametrize("metric", [[[-1, -1, 0], [-1, 0, 0], [0, 0, 4]],
                                    [[1, 0, 0], [0, 1, 0], [0, 0, 1]]],
                         ids=["lorentzian", "riemannian"])
def test_integer_and_float_c_print_the_same(tmp_path, capsys, metric):
    """FamilyTag holds c as a float, so {"Gc": 2} and {"Gc": 2.0} give the
    same bytes on both streams, whether the metric is accepted or not."""
    outputs = []
    for c in (2, 2.0):
        code = main(["classify", _doc(tmp_path, f"{c!r}.json", {"Gc": c}, metric)])
        outputs.append((code, *capsys.readouterr()))
    assert outputs[0] == outputs[1]


def test_atlas_full_sweep_grid_keeps_family_rows(capsys):
    """Grid names are checked against every family's forms, so GI takes
    the whole sweep grid and uses only its mu values."""
    grids = [";".join(f"{name}={','.join(map(repr, values))}"
                      for name, values in grid.items())
             for grid in (SWEEP_GRID, {"mu": SWEEP_GRID["mu"]})]
    assert main(["atlas", "--family", "GI", "--grid", grids[0]]) == 0
    full = capsys.readouterr().out
    assert main(["atlas", "--family", "GI", "--grid", grids[1]]) == 0
    assert full == capsys.readouterr().out
    assert len(full.splitlines()) == 1 + 2 * len(SWEEP_GRID["mu"]) + 1


#: a degenerate plane block whose (x1, x1) pivot vanishes beside a live
#: (x1, x2) entry of the same row
_G1_ZERO_PIVOT = [[0, 1e-5, 1], [1e-5, 1, 0], [1, 0, 0.5]]


@pytest.mark.parametrize("command", ["classify", "constcurv", "equiv"])
def test_vanishing_pivot_is_a_rejection(tmp_path, capsys, command):
    f = _doc(tmp_path, "m.json", {"Gc": 1}, _G1_ZERO_PIVOT, basis="Q_adapted")
    argv = [command, f] + ([f] if command == "equiv" else [])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("rejected: pivot vanishes")
    assert "Traceback" not in err


def test_paper_frame_near_gt1_form3_edge(tmp_path, capsys):
    f = _doc(tmp_path, "m.json", {"Gc": 2},
             [[1, 1, 0], [1, 2.00000001, 0], [0, 0, -1]])
    code, out = _run(capsys, "curvature", f, "--frame", "paper")
    assert code == 0
    payload = json.loads(out)
    assert payload["scalar"] == pytest.approx(6.0)
    assert payload["oneill"]["type"] == "{11,1}"


@pytest.mark.parametrize("frame,code", [([], 1), (["--frame", "paper"], 0)],
                         ids=["auto", "paper"])
def test_lt1_form3_near_c1_is_a_rejection(tmp_path, capsys, frame, code):
    """Canonical Gc_lt1.3 (mu = 1) at c = 1 - 1e-6: the answer is {21}, as
    the closed form says, or a rejection by name (exit 1), never a fault
    (exit 4).  In its own frame the block discriminant lies within its
    rounding error of the {21} band and is refused; the paper frame
    answers {21}."""
    f = _doc(tmp_path, "m.json", {"Gc": 1 - 1e-6},
             [[1, 1, 0], [1, 1, 1], [0, 1, 0]], basis="P_adapted")
    assert main(["curvature", f, *frame]) == code
    out, err = capsys.readouterr()
    if code == cli.EXIT_DOMAIN:
        assert out == ""
        assert err.startswith("rejected: O'Neill classification: ")
        assert err.count("\n") == 1
    else:
        assert json.loads(out)["oneill"]["type"] == "{21}"
        assert err == ""


#: the engine call of each subcommand, by the module the subcommand imports
#: it from when it runs; equiv calls the verdict behind equivalent, whose
#: witness is float rows
_ENGINE_CALLS = {"classify": ("canonical", "canonical_form"),
                 "curvature": ("curvature", "curvature_report"),
                 "constcurv": ("canonical", "constant_curvature_class"),
                 "equiv": ("canonical", "_equivalence")}


def _patch_engine(monkeypatch, command, replacement):
    module, name = _ENGINE_CALLS[command]
    monkeypatch.setattr(getattr(lorcurv, module), name, replacement)


@pytest.mark.parametrize("command", sorted(_ENGINE_CALLS))
def test_internal_fault_exit4(tmp_path, capsys, monkeypatch, command):
    """An ArithmeticError from the engine is an internal fault: exit 4 and
    one line naming the subcommand, not a traceback and not exit 1."""
    def fault(*args, **kwargs):
        raise ArithmeticError("transition is not in O(2,1) (residual 1)")

    _patch_engine(monkeypatch, command, fault)
    f = _doc(tmp_path, "m.json", {"Gc": 2}, [[-1, -1, 0], [-1, 0, 0], [0, 0, 4]])
    argv = [command, f] + ([f] if command == "equiv" else [])
    assert main(argv) == cli.EXIT_FAULT == 4
    err = capsys.readouterr().err
    assert err == (f"fault: {command}: "
                   "transition is not in O(2,1) (residual 1)\n")


@pytest.mark.parametrize("command", sorted(_ENGINE_CALLS))
def test_engine_value_error_exit1(tmp_path, capsys, monkeypatch, command):
    """Any ValueError of the engine is a rejection: exit 1 and one line,
    whichever subcommand raised it."""
    def reject(*args, **kwargs):
        raise ValueError("boom")

    _patch_engine(monkeypatch, command, reject)
    f = _doc(tmp_path, "m.json", {"Gc": 2}, [[-1, -1, 0], [-1, 0, 0], [0, 0, 4]])
    argv = [command, f] + ([f] if command == "equiv" else [])
    assert main(argv) == cli.EXIT_DOMAIN == 1
    assert capsys.readouterr().err == "rejected: boom\n"


@pytest.mark.parametrize("value", [math.nan, -math.inf])
def test_answer_that_is_not_json_is_a_fault(tmp_path, capsys, monkeypatch, value):
    """The CLI writes strict JSON: an answer holding NaN or an infinity is
    refused before anything is written, as an internal fault (exit 4)."""
    real = lorcurv.canonical.canonical_form

    def broken(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), params={"mu": value})

    monkeypatch.setattr(lorcurv.canonical, "canonical_form", broken)
    f = _doc(tmp_path, "m.json", {"Gc": 2}, [[-1, -1, 0], [-1, 0, 0], [0, 0, 4]])
    assert main(["classify", f]) == cli.EXIT_FAULT
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("fault: classify: answer is not JSON: "
                   f"Out of range float values are not JSON compliant: {value}\n")


def test_validate_reports_an_overflowing_det_as_null(tmp_path, capsys):
    """The product of the eigenvalues of diag(1e200, 1e200, -1e200) is not
    a float: det is null, and the rest of the diagnostics are finite."""
    f = _doc(tmp_path, "m.json", "GI", [[1e200, 0, 0], [0, 1e200, 0], [0, 0, -1e200]])
    code, out = _run(capsys, "validate", f)
    assert code == 0
    payload = _strict_json(out)
    assert payload["det"] is None
    assert payload["eigenvalues"] == [-1e200, 1e200, 1e200]
    f = _doc(tmp_path, "m.json", "GI", [[2, 0, 0], [0, 1, 0], [0, 0, -1]])
    assert _strict_json(_run(capsys, "validate", f)[1])["det"] == -2.0


_DOCUMENT_COMMANDS = ["validate", "classify", "curvature", "constcurv", "equiv"]


@pytest.mark.parametrize("command", _DOCUMENT_COMMANDS)
def test_non_utf8_document_exit2(tmp_path, capsys, command):
    f = tmp_path / "m.json"
    f.write_bytes(b"\xff\xfe{}")
    argv = [command, str(f)] + ([str(f)] if command == "equiv" else [])
    assert main(argv) == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {f}: 'utf-8' codec can't decode")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", _DOCUMENT_COMMANDS)
def test_custom_basis_exit2(tmp_path, capsys, command):
    """"custom" names a basis the library builds internally; a document
    can only use the three bases of the paper."""
    f = _doc(tmp_path, "m.json", {"Gc": 2}, [[-1, -1, 0], [-1, 0, 0], [0, 0, 4]],
             basis="custom")
    argv = [command, f] + ([f] if command == "equiv" else [])
    assert main(argv) == cli.EXIT_PARSE
    assert capsys.readouterr().err == (
        'error: basis: expected "natural", "Q_adapted" or "P_adapted"\n')


# --------------------------------------------------------------------------
# whole CLI processes

_SRC = str(Path(__file__).resolve().parents[1] / "src")
_README_DOC = {"family": {"Gc": 2}, "metric": [[-1, -1, 0], [-1, 0, 0], [0, 0, 4]]}


def _process(tmp_path, argv, docs=(), importtime=False):
    """``python -m lorcurv.cli argv`` in a fresh interpreter, with the
    documents written to files that {0}, {1} in argv stand for."""
    paths = []
    for i, doc in enumerate(docs):
        paths.append(tmp_path / f"doc{i}.json")
        paths[-1].write_text(json.dumps(doc))
    flags = ["-X", "importtime"] if importtime else []
    return subprocess.run([sys.executable, *flags, "-m", "lorcurv.cli",
                           *(a.format(*paths) for a in argv)],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=_SRC))


def _family_images():
    """The README metric, and an automorphism image of the first sweep cell
    of each family, in its classification basis."""
    yield _README_DOC
    rng = np.random.default_rng(5)
    for tag in ALL_TAGS:
        spec = form_specs(tag)[0]
        params = next(_param_grid(spec, tag, SWEEP_GRID))
        basis = classification_basis(tag)
        h = MetricTensor(canonical_matrix(tag, spec.form_id, params), basis_label=basis)
        image = pull_back_metric(h, rand_automorphism(tag, rng), basis)
        yield {"family": "GI" if tag.c is None else {"Gc": tag.c},
               "basis": basis.value, "metric": image.entries.tolist()}


def test_metric_subcommands_do_not_import_numpy(tmp_path):
    """validate, classify, curvature (own frame), constcurv and equiv compute
    on floats and write JSON from them: numpy is never imported."""
    for doc in _family_images():
        for argv in (["validate", "{0}"], ["classify", "{0}"], ["curvature", "{0}"],
                     ["constcurv", "{0}"], ["equiv", "{0}", "{0}"]):
            proc = _process(tmp_path, argv, [doc], importtime=True)
            assert proc.returncode == 0, (argv, doc, proc.stderr[-2000:])
            json.loads(proc.stdout)
            assert _numpy_free(proc.stderr), argv


def _numpy_free(importtime: str) -> bool:
    """Whether ``-X importtime`` output lists the package lorcurv and no
    numpy module.  The engine modules are run by the package's LazyLoader,
    outside the import statement that ``-X importtime`` times, so the
    package stands for them."""
    imported = {line.rpartition("|")[2].strip()
                for line in importtime.splitlines() if line.startswith("import time:")}
    return ("lorcurv" in imported
            and not [m for m in imported if m.partition(".")[0] == "numpy"])


def test_atlas_answers_without_numpy(tmp_path):
    """atlas's closed-form tables and cross-checks are rows of floats too."""
    proc = _process(tmp_path, ["atlas", "--family", "GI", "--grid", "mu=1,2"],
                    importtime=True)
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()
    assert len(rows) == 6 and rows[1].startswith("GI,,GI.1,mu=1,")
    assert _numpy_free(proc.stderr)


@pytest.mark.parametrize("argv,docs", [
    (["curvature", "{0}"], [{"family": {"Gc": 1e308}, "metric": [[1, 0, 0], [0, 1, 0],
                                                                 [0, 0, -1]]}]),
    (["atlas", "--family", "Gc", "--c", "1", "--grid", "mu=1e-320"], []),
], ids=["Gc-1e308", "atlas-mu-1e-320"])
def test_overflow_is_rejected_by_name(tmp_path, argv, docs):
    """Both algebras are non-unimodular; their curvature overflows the float
    range, and the frame brackets or the Ricci matrix are rejected as such,
    with one line and no warning, before the unimodular test."""
    proc = _process(tmp_path, argv, docs)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("rejected: "), proc.stderr
    assert "overflow" in proc.stderr


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"not JSON: {constant}")
    return json.loads(text, parse_constant=refuse)


_GI1_IMAGE = [[2.0, 1.0, 0.5], [1.0, -0.5, 0.25], [0.5, 0.25, 1.5]]


@pytest.mark.parametrize("family,metric", [({"Gc": 2}, _README_DOC["metric"]),
                                           ("GI", _GI1_IMAGE)], ids=["README", "GI.1"])
@pytest.mark.parametrize("command", ["classify", "curvature", "constcurv"])
def test_exact_scalings_answer_or_reject(tmp_path, capsys, family, metric, command):
    """lambda h for lambda = 2^+-520: every number printed is finite JSON,
    and the form and class are those of lambda = 1.  The reduction decides
    on entries in units and solves on exactly rescaled blocks, so classify
    and constcurv answer; curvature gives lambda = 1's type or, where s^2
    leaves the float range, rejects the input by name (exit 1, one line)."""
    def answer(lam):
        f = _doc(tmp_path, "m.json", family, [[lam * x for x in row] for row in metric])
        code = main([command, f])
        out, err = capsys.readouterr()
        if code == cli.EXIT_DOMAIN:
            assert out == "" and err.startswith("rejected: ") and err.count("\n") == 1
            return None
        assert code == 0 and err == ""
        payload = _strict_json(out)
        return payload.get("form_id"), payload.get("class"), payload.get("oneill", {}).get("type")

    want = answer(1.0)
    assert want is not None
    for lam in (2.0 ** 520, 2.0 ** -520):
        assert answer(lam) in ((want, None) if command == "curvature" else (want,)), lam


def test_tiny_metric_is_classified(tmp_path, capsys):
    """A GI metric with entries near 1e-300: the translation is solved on
    the plane block and column scaled by one power of two, so no product
    underflows to a zero divisor."""
    f = _doc(tmp_path, "m.json", "GI", [[1e-300, 1e-301, 0], [1e-301, 2e-300, 3e-301],
                                        [0, 3e-301, -1e-300]])
    assert main(["classify", f]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert _strict_json(out)["form_id"] == "GI.2"


@pytest.mark.parametrize("lam", [1e-160, 1e-300])
def test_small_metric_reports_a_finite_discriminant(tmp_path, capsys, lam):
    """On GI, lambda J has Ric = -(2 / lambda) h: an Einstein metric, D = 0,
    however large s^2 is."""
    f = _doc(tmp_path, "m.json", "GI", [[lam, 0, 0], [0, lam, 0], [0, 0, -lam]])
    assert main(["curvature", f]) == 0
    payload = _strict_json(capsys.readouterr().out)
    assert payload["oneill"]["discriminant"] == 0.0
    assert payload["scalar"] == pytest.approx(6.0 / lam)
