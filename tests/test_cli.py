import json

import numpy as np
import pytest

from lorcurv.cli import main


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
    code, _ = _run(capsys, "curvature", f, "--frame", "paper")
    assert code == 1


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
    (["classify"], '{"family": "GI", "metric": [[1, 0, 0], [0, "a", 0], [0, 0, -1]]}',
     "metric[1][1]"),
    (["classify"], '{"family": "GI", "metric": [[1, 0, 0], [0, 1], [0, 0, -1]]}',
     "metric"),
    (["atlas", "--family", "Gc", "--c", "nan", "--grid", "mu=1"], None, "--c"),
    (["atlas", "--family", "GI", "--grid", "mu=inf"], None, "--grid"),
], ids=["bool-c", "infinite-c", "nan-abs-tol", "non-numeric-metric",
        "ragged-metric", "atlas-nan-c", "atlas-infinite-grid"])
def test_malformed_input_exit2(tmp_path, capsys, argv, doc, path):
    if doc is not None:
        f = tmp_path / "m.json"
        f.write_text(doc)
        argv = argv + [str(f)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: ")
