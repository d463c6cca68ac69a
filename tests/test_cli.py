import json

import numpy as np
import pytest

from lorcurv import cli
from lorcurv.cli import main
from tests.conftest import SWEEP_GRID


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


def test_tolerance_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LORCURV_TOL", "1e-6")
    f = _doc(tmp_path, "m.json", "GI", [[1, 0, 0], [0, 1, 0], [0, 0, -1]])
    assert main(["validate", f]) == 0
    monkeypatch.setenv("LORCURV_TOL", "not-a-number")
    assert main(["validate", f]) == 2
    monkeypatch.setenv("LORCURV_TOL", "nan")
    assert main(["validate", f]) == 2
    capsys.readouterr()
    monkeypatch.setenv("LORCURV_TOL", "1e-20")
    assert main(["validate", f]) == 2
    assert capsys.readouterr().err.startswith("error: $LORCURV_TOL: ")


def test_explicit_tolerance_field(tmp_path, capsys):
    # slightly asymmetric input: rejected at the default abs_tol, accepted
    # with a looser explicit tolerance
    metric = [[1, 1e-8, 0], [0, 1, 0], [0, 0, -1]]
    strict = _doc(tmp_path, "strict.json", "GI", metric)
    assert main(["validate", strict]) == 1
    f = _doc(tmp_path, "m.json", "GI", metric, tolerance={"abs_tol": 1e-6})
    assert main(["validate", f]) == 0
    bad = _doc(tmp_path, "bad.json", "GI",
               [[1, 0, 0], [0, 1, 0], [0, 0, -1]],
               tolerance={"abs_tol": -1})
    assert main(["validate", bad]) == 2


_LORENTZIAN = "[[1, 0, 0], [0, 1, 0], [0, 0, -1]]"


@pytest.mark.parametrize("argv,doc,path", [
    (["classify"], '{"family": {"Gc": true}, "metric": %s}' % _LORENTZIAN,
     "family.Gc"),
    (["classify"], '{"family": {"Gc": 1e400}, "metric": %s}' % _LORENTZIAN,
     "family.Gc"),
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
], ids=["bool-c", "infinite-c", "nan-abs-tol", "tiny-classification-tol",
        "unknown-rel-tol", "non-numeric-metric",
        "ragged-metric", "atlas-nan-c", "atlas-infinite-grid", "bool-abs-tol",
        "string-c", "atlas-missing-c", "unknown-document-field",
        "atlas-unknown-grid-name", "atlas-repeated-grid-name",
        "atlas-gi-with-c"])
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


#: the engine call of each subcommand, as lorcurv.cli binds it
_ENGINE_CALLS = {"classify": "canonical_form", "curvature": "curvature_report",
                 "constcurv": "constant_curvature_class", "equiv": "equivalent"}


@pytest.mark.parametrize("command", sorted(_ENGINE_CALLS))
def test_internal_fault_exit4(tmp_path, capsys, monkeypatch, command):
    """An ArithmeticError from the engine is an internal fault: exit 4 and
    one line naming the subcommand, not a traceback and not exit 1."""
    def fault(*args, **kwargs):
        raise ArithmeticError("transition is not in O(2,1) (residual 1)")

    monkeypatch.setattr(cli, _ENGINE_CALLS[command], fault)
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

    monkeypatch.setattr(cli, _ENGINE_CALLS[command], reject)
    f = _doc(tmp_path, "m.json", {"Gc": 2}, [[-1, -1, 0], [-1, 0, 0], [0, 0, 4]])
    argv = [command, f] + ([f] if command == "equiv" else [])
    assert main(argv) == cli.EXIT_DOMAIN == 1
    assert capsys.readouterr().err == "rejected: boom\n"


@pytest.mark.parametrize("command", sorted(_ENGINE_CALLS))
def test_linalg_error_is_a_fault(tmp_path, capsys, monkeypatch, command):
    """numpy's LinAlgError is a ValueError, but a failed factorisation is
    the engine's fault, not a verdict on the input."""
    def fault(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(cli, _ENGINE_CALLS[command], fault)
    f = _doc(tmp_path, "m.json", {"Gc": 2}, [[-1, -1, 0], [-1, 0, 0], [0, 0, 4]])
    argv = [command, f] + ([f] if command == "equiv" else [])
    assert main(argv) == cli.EXIT_FAULT
    assert capsys.readouterr().err == f"fault: {command}: Singular matrix\n"


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
