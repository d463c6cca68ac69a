"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single PASS/FAIL
line (visible with ``pytest -s`` or in captured output on failure).
"""

import numpy as np

from lorcurv import (
    ConstantCurvatureClass,
    FamilyTag,
    MetricTensor,
    ONeillType,
    atlas_entries,
    canonical_form,
    canonical_matrix,
    classification_basis,
    classify_self_adjoint,
    constant_curvature_class,
    cross_check,
    curvature_report,
    equivalent,
    form_specs,
    is_automorphism,
    make_family_algebra,
    milnor_sectional,
    paper_frame,
    sectional,
)
from lorcurv.atlas import _param_grid
from tests.conftest import ALL_TAGS, SWEEP_GRID, rand_automorphism, rand_o21
from tests.test_oneill import REPS


def _verdict(n, desc, fn):
    try:
        fn()
    except BaseException:
        print(f"FAIL criterion {n}: {desc}")
        raise
    print(f"PASS criterion {n}: {desc}")


def _engine(tag, form_id, params):
    basis = classification_basis(tag)
    alg = make_family_algebra(tag, basis)
    h = MetricTensor(canonical_matrix(tag, form_id, params), basis_label=basis)
    return curvature_report(alg, h, frame=paper_frame(tag, form_id, params))


def _close(a, b, tol=1e-9):
    a, b = np.asarray(a, float), np.asarray(b, float)
    assert np.max(np.abs(a - b)) <= tol * (1.0 + np.max(np.abs(b))), (a, b)


# --------------------------------------------------------------------------

def test_criterion_1_first_family_table():
    def run():
        tag = FamilyTag("GI")
        for mu in (0.5, 1.0, 2.0, 5.0):
            rep = _engine(tag, "GI.1", {"mu": mu})
            _close(rep.ricci_op, -(2 / mu) * np.eye(3))
            _close(rep.scalar, -6 / mu)
            _close(rep.sectional, [-1 / mu] * 3)
            rep = _engine(tag, "GI.2", {"mu": mu})
            _close(rep.ricci_op, (2 / mu) * np.eye(3))
            _close(rep.scalar, 6 / mu)
            _close(rep.sectional, [1 / mu] * 3)
        rep = _engine(tag, "GI.3", {})
        _close(rep.ricci_op, np.zeros((3, 3)))
        _close(rep.scalar, 0.0)
        _close(rep.sectional, np.zeros(3))
    _verdict(1, "first-family closed forms reproduced", run)


def test_criterion_2_gt1_table():
    def run():
        for c in (2.0, 5.0):
            tag = FamilyTag("Gc", c)
            for mu in (1.0, 3.0):
                rep = _engine(tag, "Gc_gt1.1", {"mu": mu})
                _close(rep.scalar, c * c * mu / 2)
                _close(rep.sectional[1], 3 * c * c * mu / 4)
                for tau in (-2.0, 0.0, 0.5):
                    e = cross_check(tag, "Gc_gt1.2", {"mu": mu, "tau": tau})
                    assert not e.flags and e.max_residual < 1e-9
                    disc = (c + tau) ** 2 - 4 * c
                    expected = ONeillType.DIAGONAL if disc > 0 \
                        else ONeillType.COMPLEX
                    assert e.engine_type == expected
                    # catalogued typo cell: the printed kappa31 (missing
                    # the /4) must disagree with the engine
                    printed = -(tau * tau + 2 * (c - 4) * tau
                                - (3 * c * c - 4 * c - 4)) / ((1 - tau) * mu)
                    assert abs(e.engine_kappas[2] - printed / 4) < 1e-9
                    if abs(printed) > 1e-6:   # cell vanishes at c=2, tau=0
                        assert abs(e.engine_kappas[2] - printed) > 1e-3
                nus = (1.5, 2.0) if c == 2 else (1.5, 2.0, 5.0)
                for nu in nus:
                    e = cross_check(tag, "Gc_gt1.3", {"mu": mu, "nu": nu})
                    assert not e.flags and e.max_residual < 1e-9
                    assert e.engine_type == ONeillType.DIAGONAL
    _verdict(2, "c>1 closed forms, trichotomy and typo cell", run)


def test_criterion_3_c1_table():
    def run():
        tag = FamilyTag("Gc", 1.0)
        grid = {"mu": [0.5, 1.0, 2.0], "nu": [0.5, 1.0, 2.0]}
        for e in atlas_entries(tag, grid):
            assert not e.flags and e.max_residual < 1e-9, \
                (e.form_id, e.params)
        rep = _engine(tag, "G1.1", {"mu": 1.0})
        _close(rep.ricci_op, np.zeros((3, 3)))
        rep = _engine(tag, "G1.2", {"mu": 2.0})
        _close(rep.ricci_op, np.array([[-1.0, 1, -1], [1, 1, 0], [1, 0, 1]]))
        # trichotomy on 1 - 4 nu for forms 3 and 5, both sides and boundary
        for form_id in ("G1.3", "G1.5"):
            for nu, expected in [(0.125, ONeillType.DIAGONAL),
                                 (0.25, ONeillType.DOUBLE),
                                 (0.5, ONeillType.COMPLEX),
                                 (2.0, ONeillType.COMPLEX)]:
                rep = _engine(tag, form_id, {"mu": 1.0, "nu": nu})
                assert rep.oneill.type_tag == expected, (form_id, nu)
    _verdict(3, "c=1 closed forms and sign(1-4nu) trichotomy", run)


def test_criterion_4_lt1_tables():
    def run():
        grid = {"mu": [0.5, 1.0, 2.0, 5.0],
                "nu": [0.5, 1.0, 2.0, 5.0, -0.5, -1.0, -2.0],
                "tau": [-2.0, 0.0, 0.5, 1.5, 2.0, 3.0],
                "eta": [-1.0, 0.0, 0.5]}
        for c in (-3.0, 0.0, 0.75):
            tag = FamilyTag("Gc", c)
            w = tag.w
            for e in atlas_entries(tag, grid):
                assert not e.flags and e.max_residual < 1e-9, \
                    (c, e.form_id, e.params)
                if e.form_id == "Gc_lt1.10-1":
                    disc = e.params["tau"] * (e.params["tau"] - 1 + w * w)
                elif e.form_id == "Gc_lt1.11":
                    disc = e.params["eta"] * (e.params["eta"] - 1 + w * w)
                else:
                    continue
                if abs(disc) > 1e-7:
                    expected = ONeillType.DIAGONAL if disc > 0 \
                        else ONeillType.COMPLEX
                    assert e.engine_type == expected, (c, e.form_id, e.params)
        # type switch at w = 1 (c = 0), exact, for forms 1, 3, 8, 9
        switching = [("Gc_lt1.1", {}), ("Gc_lt1.3", {"mu": 1.0}),
                     ("Gc_lt1.8", {"mu": 1.0}), ("Gc_lt1.9", {"mu": 1.0})]
        for form_id, params in switching:
            assert _engine(FamilyTag("Gc", 0.0), form_id,
                           params).oneill.type_tag == ONeillType.DIAGONAL
            for c in (-3.0, 0.75):
                assert _engine(FamilyTag("Gc", c), form_id,
                               params).oneill.type_tag == ONeillType.DOUBLE
    _verdict(4, "c<1 closed forms, trichotomies and w=1 type switches", run)


def test_criterion_5_milnor_identity():
    def run():
        rng = np.random.default_rng(5)
        point = {"mu": 2.0, "nu": 1.5, "tau": 0.5, "eta": 0.5}
        point_10_2 = {"nu": -1.0, "tau": 2.0}
        for tag in ALL_TAGS:
            for spec in form_specs(tag):
                params = point_10_2 if spec.form_id == "Gc_lt1.10-2" \
                    else {k: point[k] for k in spec.param_names}
                rep = _engine(tag, spec.form_id, params)
                hits = 0
                while hits < 1000:
                    u = rng.normal(size=3)
                    v = rng.normal(size=3)
                    try:
                        direct = sectional(rep.connection, u, v)
                        from_ric = milnor_sectional(rep.ric_matrix,
                                                    rep.scalar, u, v)
                    except ValueError:
                        continue
                    assert abs(direct - from_ric) < 1e-8 * (1 + abs(direct)), \
                        (tag.c, spec.form_id)
                    hits += 1
    _verdict(5, "Ricci-only sectional identity on 1000 pairs per form", run)


def test_criterion_6_scalar_consistency():
    def run():
        rng = np.random.default_rng(6)
        point = {"mu": 2.0, "nu": 1.5, "tau": 0.5, "eta": 0.5}
        point_10_2 = {"nu": -1.0, "tau": 2.0}
        for tag in ALL_TAGS:
            for spec in form_specs(tag):
                params = point_10_2 if spec.form_id == "Gc_lt1.10-2" \
                    else {k: point[k] for k in spec.param_names}
                rep = _engine(tag, spec.form_id, params)
                assert abs(rep.scalar - 2 * sum(rep.sectional)) \
                    <= 1e-9 * (1 + abs(rep.scalar))
            # and on arbitrary (non-canonical) metrics of the family
            alg = make_family_algebra(tag)
            for _ in range(10):
                S = rng.normal(size=(3, 3)) + 2 * np.eye(3)
                h = MetricTensor(S.T @ np.diag([1.0, 1, -1]) @ S)
                rep = curvature_report(alg, h)
                assert abs(rep.scalar - 2 * sum(rep.sectional)) \
                    <= 1e-9 * (1 + abs(rep.scalar))
    _verdict(6, "trace[Ric] = 2(k12+k23+k31) on every report", run)


def test_criterion_7_classification_round_trip():
    def run():
        rng = np.random.default_rng(7)
        point = {"mu": 2.0, "nu": 1.5, "tau": 0.5, "eta": 0.5}
        point_10_2 = {"nu": -1.0, "tau": 2.0}
        for tag in ALL_TAGS:
            basis = classification_basis(tag)
            alg = make_family_algebra(tag, basis)
            for spec in form_specs(tag):
                params = point_10_2 if spec.form_id == "Gc_lt1.10-2" \
                    else {k: point[k] for k in spec.param_names}
                h0 = canonical_matrix(tag, spec.form_id, params)
                for _ in range(100):
                    A = rand_automorphism(tag, rng)
                    h = MetricTensor(A.T @ h0 @ A, basis_label=basis)
                    cf = canonical_form(tag, h)
                    assert cf.form_id == spec.form_id, \
                        (tag.c, spec.form_id, cf.form_id)
                    for k, v in params.items():
                        assert abs(cf.params[k] - v) <= 1e-6 * (1 + abs(v))
                    W = cf.witness
                    res = np.max(np.abs(W.T @ h.entries @ W
                                        - cf.canonical_matrix))
                    assert res < 1e-7 * (1 + np.abs(cf.canonical_matrix).max())
                    assert is_automorphism(alg, W)
    _verdict(7, "100 automorphism round-trips per form", run)


def test_criterion_8_oneill_conjugation_invariance():
    def run():
        rng = np.random.default_rng(8)
        for ttype, T0 in REPS.items():
            for _ in range(125):
                A = rand_o21(rng)
                T = A @ T0 @ np.linalg.inv(A)
                assert classify_self_adjoint(T).type_tag == ttype
    _verdict(8, "500 O(2,1) conjugations preserve the operator type", run)


def test_criterion_9_constant_curvature_list():
    def run():
        expected = {
            ("GI", "GI.3"): ConstantCurvatureClass.FLAT,
            ("GI", "GI.2"): ConstantCurvatureClass.POSITIVE,
            ("GI", "GI.1"): ConstantCurvatureClass.NEGATIVE,
            ("G1", "G1.1"): ConstantCurvatureClass.FLAT,
            ("Gc_lt1", "Gc_lt1.7"): ConstantCurvatureClass.NEGATIVE,
        }
        seen = set()
        for tag in ALL_TAGS:
            basis = classification_basis(tag)
            for spec in form_specs(tag):
                for params in _param_grid(spec, tag, SWEEP_GRID):
                    if spec.form_id == "Gc_gt1.3" and params["nu"] == tag.c:
                        # Einstein edge case, positive constant curvature;
                        # covered by its own test, outside the stated list
                        continue
                    if tag.c == 0 and spec.form_id in ("Gc_lt1.8",
                                                       "Gc_lt1.9"):
                        # Einstein at w = 1 (negative constant curvature);
                        # covered by its own test, outside the stated list
                        continue
                    h = MetricTensor(
                        canonical_matrix(tag, spec.form_id, params),
                        basis_label=basis)
                    cls, _ = constant_curvature_class(tag, h)
                    key = (tag.family_key(), spec.form_id)
                    if key == ("Gc_lt1", "Gc_lt1.1") and tag.c == 0:
                        assert cls == ConstantCurvatureClass.FLAT
                        seen.add(("Gc0", "Gc_lt1.1"))
                    elif key in expected:
                        assert cls == expected[key], (key, params)
                        seen.add(key)
                    else:
                        assert cls == ConstantCurvatureClass.NON_CONSTANT, \
                            (key, tag.c, params, cls)
        assert seen == set(expected) | {("Gc0", "Gc_lt1.1")}
    _verdict(9, "constant-curvature list recovered exactly", run)


def test_criterion_10_equivalence_relations():
    def run():
        tag = FamilyTag("Gc", 2.0)
        # parameter relation nu -> 1 + (c-1)^2/(nu-1): 3 -> 3/2 at c = 2
        h = MetricTensor(np.array([[1.0, 1, 0], [1, 3, 0], [0, 0, -1]]))
        cf = canonical_form(tag, h)
        assert cf.form_id == "Gc_gt1.3"
        assert abs(cf.params["nu"] - 1.5) < 1e-9
        # mixed-sign equivalence with explicit witness
        h1 = MetricTensor(np.array([[-1.0, -1, 0], [-1, 0, 0], [0, 0, 4]]))
        h2 = MetricTensor(np.array([[1.0, 1, 0], [1, 0, 0], [0, 0, 4]]))
        flag, W = equivalent(tag, h1, h2)
        assert flag
        assert np.max(np.abs(W.T @ h1.entries @ W - h2.entries)) < 1e-7
        alg = make_family_algebra(tag)
        assert is_automorphism(alg, W)
        # the three first-family forms are pairwise inequivalent
        tagI = FamilyTag("GI")
        mats = [canonical_matrix(tagI, f, {} if f == "GI.3" else {"mu": 1.0})
                for f in ("GI.1", "GI.2", "GI.3")]
        for i in range(3):
            for j in range(i + 1, 3):
                flag, _ = equivalent(tagI, MetricTensor(mats[i]),
                                     MetricTensor(mats[j]))
                assert not flag
        # {21} exactly on the classification boundary (c+tau)^2 = 4c
        tag4 = FamilyTag("Gc", 4.0)
        rep = _engine(tag4, "Gc_gt1.2", {"mu": 1.0, "tau": 0.0})
        assert rep.oneill.type_tag == ONeillType.DOUBLE
    _verdict(10, "equivalence relations and boundary classification", run)
