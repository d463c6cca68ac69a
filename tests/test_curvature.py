from fractions import Fraction

import numpy as np
import pytest

from lorcurv import (
    ConstantCurvatureClass,
    FamilyTag,
    LieAlgebra3,
    MetricTensor,
    ONeillType,
    OrthonormalFrame,
    adapted_automorphism,
    classification_basis,
    canonical_form,
    canonical_matrix,
    closed_form_report,
    constant_curvature_class,
    cross,
    curvature_report,
    form_specs,
    levi_civita,
    make_family_algebra,
    milnor_sectional,
    orthonormal_frame,
    paper_frame,
    pull_back_metric,
    ricci_tensor,
    riemann,
    sectional,
)
from lorcurv.atlas import _param_grid
from lorcurv.curvature import frame_inner
from lorcurv.oneill import boost
from tests.conftest import ALL_TAGS, SWEEP_GRID, jacobi_calls, rand_automorphism


def _report(tag, form_id, params):
    basis = classification_basis(tag)
    alg = make_family_algebra(tag, basis)
    h = MetricTensor(canonical_matrix(tag, form_id, params), basis_label=basis)
    return curvature_report(alg, h)


def test_connection_is_metric_compatible():
    """h(nabla_a b, c) + h(b, nabla_a c) = 0 for frame vectors (orthonormal
    frame, constant inner products)."""
    tag = FamilyTag("Gc", 2.0)
    alg = make_family_algebra(tag)
    h = MetricTensor(canonical_matrix(tag, "Gc_gt1.2", {"mu": 1.0, "tau": 0.0}))
    frame = orthonormal_frame(h)
    conn = levi_civita(alg, frame)
    e = np.eye(3)
    for a in range(3):
        for b in range(3):
            for c in range(3):
                lhs = frame_inner(conn.gamma[a, b], e[c]) \
                    + frame_inner(e[b], conn.gamma[a, c])
                assert abs(lhs) < 1e-10


def test_connection_is_torsion_free():
    tag = FamilyTag("Gc", 0.5)
    basis = classification_basis(tag)
    alg = make_family_algebra(tag, basis)
    h = MetricTensor(canonical_matrix(tag, "Gc_lt1.4", {"mu": 2.0}),
                     basis_label=basis)
    frame = orthonormal_frame(h)
    conn = levi_civita(alg, frame)
    for a in range(3):
        for b in range(3):
            lhs = conn.gamma[a, b] - conn.gamma[b, a] - conn.brackets[a, b]
            assert np.max(np.abs(lhs)) < 1e-10


def test_riemann_antisymmetry(rng):
    tag = FamilyTag("Gc", 1.0)
    basis = classification_basis(tag)
    alg = make_family_algebra(tag, basis)
    h = MetricTensor(canonical_matrix(tag, "G1.3", {"mu": 1.0, "nu": 2.0}),
                     basis_label=basis)
    conn = levi_civita(alg, orthonormal_frame(h))
    for _ in range(20):
        u, v, w = rng.normal(size=(3, 3))
        assert np.allclose(riemann(conn, u, v, w), -np.array(riemann(conn, v, u, w)))
        # pair symmetry: h(R_uv w, x) = h(R_wx u, v)
        x = rng.normal(size=3)
        assert frame_inner(riemann(conn, u, v, w), x) == pytest.approx(
            frame_inner(riemann(conn, w, x, u), v), abs=1e-9)


def test_flat_form_zero_report():
    rep = _report(FamilyTag("GI"), "GI.3", {})
    assert np.max(np.abs(rep.ricci_op)) < 1e-9
    assert abs(rep.scalar) < 1e-9
    assert max(abs(k) for k in rep.sectional) < 1e-9


def test_constant_curvature_model():
    """GI form 2 is the round model: R_uv w = k(h(u,w)v - h(v,w)u)."""
    rep = _report(FamilyTag("GI"), "GI.2", {"mu": 2.0})
    k = rep.scalar / 6.0
    e = np.eye(3)
    for i in range(3):
        for j in range(3):
            for m in range(3):
                rv = riemann(rep.connection, e[i], e[j], e[m])
                model = k * (frame_inner(e[i], e[m]) * e[j]
                             - frame_inner(e[j], e[m]) * e[i])
                assert np.max(np.abs(rv - model)) < 1e-10


def test_sectional_rejects_degenerate_plane():
    """The band on h(u,u) h(v,v) - h(u,v)^2 is relative to |u|^2 |v|^2, so
    a null plane is rejected at every scale of u and v, and so is a plane
    null to within 1e-12; a spacelike and a Lorentzian plane are accepted
    at every scale."""
    rep = _report(FamilyTag("GI"), "GI.1", {"mu": 1.0})
    u = np.array([1.0, 0.0, 0.0])
    v = np.array([0.0, 1.0, 1.0])   # null, orthogonal to u
    near = np.array([0.0, 1.0, 1.0 + 1e-12])
    for lam in (1.0, 1e-4, 1e4):
        for w in (v, near):
            with pytest.raises(ValueError, match="degenerate plane"):
                sectional(rep.connection, lam * u, lam * w)
        for w in (np.array([0.0, 1.0, 0.0]), np.array([0.0, 1.0, 2.0])):
            assert np.isfinite(sectional(rep.connection, lam * u, lam * w))


def test_cross_products():
    e = np.eye(3)
    assert np.allclose(cross(e[0], e[1]), -e[2])
    assert np.allclose(cross(e[1], e[2]), e[0])
    assert np.allclose(cross(e[2], e[0]), e[1])


def test_milnor_identity_random_pairs(rng):
    rep = _report(FamilyTag("Gc", 0.75), "Gc_lt1.10-1",
                  {"nu": 2.0, "tau": 0.5})
    hits = 0
    while hits < 200:
        u, v = rng.normal(size=(3, 3))[:2]
        try:
            direct = sectional(rep.connection, u, v)
            from_ric = milnor_sectional(rep.ric_matrix, rep.scalar, u, v)
        except ValueError:
            continue
        assert abs(direct - from_ric) < 1e-8 * (1 + abs(direct))
        hits += 1


def test_scalar_equals_twice_kappa_sum():
    rep = _report(FamilyTag("Gc", 5.0), "Gc_gt1.2", {"mu": 3.0, "tau": -2.0})
    assert rep.scalar == pytest.approx(2 * sum(rep.sectional), abs=1e-9)


def test_report_covariance(rng):
    """Scalar curvature, principal Ricci values and type are frame/basis
    independent: recompute after an arbitrary change of basis."""
    tag = FamilyTag("Gc", 2.0)
    alg = make_family_algebra(tag)
    h = MetricTensor(canonical_matrix(tag, "Gc_gt1.1", {"mu": 2.0}))
    rep1 = curvature_report(alg, h)
    for _ in range(5):
        S = rng.normal(size=(3, 3)) + 2 * np.eye(3)
        from lorcurv import change_basis
        alg2 = change_basis(alg, S)
        h2 = pull_back_metric(h, S)
        rep2 = curvature_report(alg2, h2)
        assert rep2.scalar == pytest.approx(rep1.scalar, abs=1e-8)
        assert rep2.oneill.type_tag == rep1.oneill.type_tag
        p1 = np.array(rep1.principal_ricci)
        p2 = np.array(rep2.principal_ricci)
        assert np.max(np.abs(p1 - p2)) < 1e-7


@pytest.mark.parametrize("mu,nu", [(1.33e-4, 2 - 3.44e-7), (1.5e-4, 2 - 5e-7)])
def test_gt1_3_near_einstein_edge_is_diagonal(mu, nu):
    """Near nu = c with small mu the Ricci block is close to the {21}
    boundary; the discriminant still reads {11,1}, as the closed form."""
    tag, params = FamilyTag("Gc", 2.0), {"mu": mu, "nu": nu}
    rep = _report(tag, "Gc_gt1.3", params)
    closed = closed_form_report(tag, "Gc_gt1.3", params)
    assert rep.oneill.type_tag == closed.oneill_type == ONeillType.DIAGONAL


def test_report_scale_covariance(rng):
    """h -> lam h keeps the operator type and scales rho by 1/lam, on one
    automorphism image of every sweep cell."""
    for tag in ALL_TAGS:
        basis = classification_basis(tag)
        alg = make_family_algebra(tag, basis)
        for spec in form_specs(tag):
            for params in _param_grid(spec, tag, SWEEP_GRID):
                A = rand_automorphism(tag, rng)
                h = A.T @ canonical_matrix(tag, spec.form_id, params) @ A
                base = curvature_report(alg, MetricTensor(h, basis_label=basis))
                for lam in (1e-4, 1e4):
                    rep = curvature_report(
                        alg, MetricTensor(lam * h, basis_label=basis))
                    where = (tag.c, spec.form_id, params, lam)
                    assert rep.oneill.type_tag == base.oneill.type_tag, where
                    assert rep.scalar * lam == pytest.approx(
                        base.scalar, rel=1e-8, abs=1e-12), where


def test_report_rejects_bad_frame():
    tag = FamilyTag("GI")
    alg = make_family_algebra(tag)
    h = MetricTensor(np.diag([1.0, 1.0, -1.0]))
    from lorcurv import OrthonormalFrame
    with pytest.raises(ValueError):
        curvature_report(alg, h, frame=OrthonormalFrame(2 * np.eye(3)))


def test_to_dict_serializes():
    import json
    rep = _report(FamilyTag("Gc", 1.0), "G1.6", {"mu": 1.0})
    payload = json.dumps(rep.to_dict())
    assert "{21}" in payload


# --------------------------------------------------------------------------
# frozen loop oracle: the scalar-loop forms the tensor core replaced

_LOOP_SIGNS = np.array([1.0, 1.0, -1.0])


def _loop_change_basis(c, S):
    S = np.asarray(S, dtype=float)
    S_inv = np.linalg.inv(S)
    consts = np.zeros((3, 3, 3))
    for i in range(3):
        for j in range(i + 1, 3):
            vec = S_inv @ np.einsum("i,j,ijk->k", S[:, i], S[:, j], c)
            consts[i, j] = vec
            consts[j, i] = -vec
    return consts


def _loop_levi_civita(c):
    gamma = np.zeros((3, 3, 3))
    for i in range(3):
        for j in range(3):
            for k in range(3):
                gamma[i, j, k] = 0.5 * _LOOP_SIGNS[k] * (
                    _LOOP_SIGNS[k] * c[i, j, k]
                    + _LOOP_SIGNS[j] * c[k, i, j]
                    + _LOOP_SIGNS[i] * c[k, j, i])
    return gamma


def _loop_riemann(gamma, c, u, v, w):
    def nabla(a, b):
        return np.einsum("i,j,ijk->k", a, b, gamma)

    bracket = np.einsum("i,j,ijk->k", u, v, c)
    return nabla(bracket, w) - nabla(u, nabla(v, w)) + nabla(v, nabla(u, w))


def _loop_ricci_tensor(gamma, c):
    e = np.eye(3)
    ric = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            ric[i, j] = sum(_loop_riemann(gamma, c, e[i], e[a], e[j])[a]
                            for a in range(3))
    return 0.5 * (ric + ric.T)


def _sweep_cells(rng):
    """(tag, form id, params, algebra, image): one automorphism image of
    every ALL_TAGS x SWEEP_GRID cell."""
    for tag in ALL_TAGS:
        basis = classification_basis(tag)
        alg = make_family_algebra(tag, basis)
        for spec in form_specs(tag):
            for params in _param_grid(spec, tag, SWEEP_GRID):
                h = MetricTensor(canonical_matrix(tag, spec.form_id, params),
                                 basis_label=basis)
                yield (tag, spec.form_id, params, alg,
                       pull_back_metric(h, rand_automorphism(tag, rng), basis))


def _sweep_images(rng):
    """One automorphism image of every ALL_TAGS x SWEEP_GRID cell."""
    for *_, alg, h in _sweep_cells(rng):
        yield alg, h


def _fuzz_metrics(c, count=300, seed=0):
    """Q diag(+, +, -) Q^T, Q orthogonal, |eigenvalues| in [0.1, 3], rng
    seed 0: the fuzz set of the robustness baseline, natural basis."""
    tag = FamilyTag("GI") if c is None else FamilyTag("Gc", c)
    alg = make_family_algebra(tag)
    rng = np.random.default_rng(seed)
    for _ in range(count):
        Q, R = np.linalg.qr(rng.normal(size=(3, 3)))
        Q = Q * np.sign(np.diag(R))
        d = rng.uniform(0.1, 3.0, size=3) * _LOOP_SIGNS
        H = Q @ np.diag(d) @ Q.T
        yield alg, MetricTensor(0.5 * (H + H.T))


#: the c of the near-c = 1 fuzz scan, GI as None, and the fuzz sets' c
_SCAN_C = [None, 2.0, 0.75, -3.0, 50.0, 1e4, 1.0, 1 - 1e-5, 1 - 1e-6, 1 - 1e-7,
           1 + 1e-6, 1 + 1e-5, 1 + 1e-4]


@pytest.mark.parametrize("c", _SCAN_C)
def test_trace_form_dual_is_an_eigenvector_on_fuzz_metrics(c):
    """The eigenvector the classifier is given, n = J tau with tau_i the
    trace of ad_{y_i} in the report's frame, satisfies Ric n = lam n to
    1e-12 of the bracket unit s on every fuzz metric."""
    for alg, h in _fuzz_metrics(c):
        rep = curvature_report(alg, h)
        n = rep.connection.brackets.trace(axis1=1, axis2=2) * _LOOP_SIGNS
        n /= np.linalg.norm(n)
        Tn = rep.ricci_op @ n
        s = float(np.abs(rep.connection.brackets).max()) ** 2
        assert np.abs(Tn - (n @ Tn) * n).max() <= 1e-12 * s, (c, Tn, n)


#: swaps y1 and y2, so that B -> P B P turns a boost along y2 into one along y1
_SWAP12 = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


@pytest.mark.xfail(strict=True, reason="ROADMAP item 13: the classifier decides in the "
                   "passed frame's unit s, and its r and D bands are not boost-invariant")
def test_boosted_frames_give_the_own_frame_type():
    """curvature_report in the frame F B, with F the metric's own frame and
    B a boost along y1 or y2 by theta = 2, 4, 6, gives the own-frame type or
    a rejection by name, on the first 20 fuzz metrics at c = 2.  12 of them
    flip; metric 0 turns {1zz} into {11,1} at theta = 6."""
    wrong = []
    for i, (alg, h) in enumerate(_fuzz_metrics(2.0, count=20)):
        own = curvature_report(alg, h).oneill.type_tag
        F = orthonormal_frame(h).columns
        for theta in (2.0, 4.0, 6.0):
            B = boost(theta)
            for axis, frame in (("y1", F @ _SWAP12 @ B @ _SWAP12), ("y2", F @ B)):
                try:
                    rep = curvature_report(alg, h, frame=OrthonormalFrame(frame))
                except ValueError:
                    continue
                if rep.oneill.type_tag != own:
                    wrong.append((i, axis, theta, own.value, rep.oneill.type_tag.value))
    assert wrong == []


def test_unimodular_algebra_is_rejected():
    """The classifier's eigenvector comes from tr ad, which vanishes on a
    unimodular algebra: the Heisenberg algebra, [e1, e2] = e3, is refused
    by name."""
    c = np.zeros((3, 3, 3))
    c[0, 1, 2], c[1, 0, 2] = 1.0, -1.0
    h = MetricTensor(np.diag([1.0, 1.0, -1.0]))
    with pytest.raises(ValueError, match="unimodular"):
        curvature_report(LieAlgebra3(c), h)


def _assert_rel(new, old, scale, what):
    err = float(np.max(np.abs(np.asarray(new) - old)))
    assert err <= 1e-12 * scale, (what, err, scale)


def _check_against_loop_oracle(alg, h):
    """Gamma and brackets are linear in the frame constants, R and Ric
    quadratic, so each is compared relative to that power of max|C|."""
    frame = orthonormal_frame(h)
    conn = levi_civita(alg, frame)
    c = _loop_change_basis(alg.structure_constants, frame.columns)
    gamma = _loop_levi_civita(c)
    e = np.eye(3)
    curv = np.array([[[_loop_riemann(gamma, c, e[i], e[j], e[k])
                       for k in range(3)] for j in range(3)]
                     for i in range(3)])
    s1 = float(np.max(np.abs(c)))
    s2 = s1 * s1
    _assert_rel(conn.brackets, c, s1, "brackets")
    _assert_rel(conn.gamma, gamma, s1, "gamma")
    _assert_rel(conn.curvature, curv, s2, "R")
    _assert_rel(ricci_tensor(conn), _loop_ricci_tensor(gamma, c), s2, "Ric")
    R = conn.curvature
    _assert_rel(R, -np.einsum("jikl->ijkl", R), s2, "R antisymmetry")
    bianchi = R + np.einsum("jkil->ijkl", R) + np.einsum("kijl->ijkl", R)
    _assert_rel(bianchi, 0.0, s2, "first Bianchi identity")
    u, v, w = np.cos(np.arange(9.0)).reshape(3, 3)
    _assert_rel(riemann(conn, u, v, w), _loop_riemann(gamma, c, u, v, w),
                s2 * 27, "riemann")


def test_tensor_core_matches_loop_oracle_on_sweep_images(rng):
    count = 0
    for alg, h in _sweep_images(rng):
        _check_against_loop_oracle(alg, h)
        count += 1
    assert count == 335


@pytest.mark.parametrize("c", [None, 2.0, 0.75, -3.0])
def test_tensor_core_matches_loop_oracle_on_fuzz_metrics(c):
    for alg, h in _fuzz_metrics(c):
        _check_against_loop_oracle(alg, h)


# --------------------------------------------------------------------------
# the reused decompositions of curvature_report

def test_curvature_report_lapack_budget(monkeypatch):
    """One report makes the frame's one decomposition, by the package's
    eigensolver, and no LAPACK call: the bracket rewrite takes the frame's
    cofactors, the classifier splits off the eigenvector that the trace
    form gives, and the principal Ricci values are read from its normal
    form.  A scalar Ricci operator (Einstein GI.1) has the same budget."""
    tag = FamilyTag("Gc", 2.0)
    alg = make_family_algebra(tag)
    h = MetricTensor(np.array([[-1.0, -1, 0], [-1, 0, 0], [0, 0, 4]]))
    rep, calls = jacobi_calls(monkeypatch, lambda: curvature_report(alg, h))
    assert rep.oneill.type_tag == ONeillType.COMPLEX
    assert calls == {"jacobi": 1}

    tag = FamilyTag("GI")
    alg = make_family_algebra(tag)
    h = MetricTensor(canonical_matrix(tag, "GI.1", {"mu": 1.0}))
    rep, calls = jacobi_calls(monkeypatch, lambda: curvature_report(alg, h))
    assert np.abs(rep.ricci_op - rep.scalar / 3 * np.eye(3)).max() < 1e-12
    assert calls == {"jacobi": 1}


def test_principal_ricci_matches_eigvals_on_sweep_images(rng):
    """principal_ricci is read from the classifier's normal form, scaled
    back.  On one automorphism image of every sweep cell it must match
    np.linalg.eigvals(ricci_op), and the transition must conjugate
    ricci_op to the normal form, both relative to max|Ric|.  The
    characteristic polynomial is compared to 1e-12 everywhere, and each
    eigenvalue to 1e-12 where all three are simple.  A {21} double
    eigenvalue is defective: rounding of order eps moves it by about
    sqrt(eps), so there the eigenvalues are compared at 20 sqrt(eps).  On
    the 6 flat cells max|Ric| is at most 1e-12 of the bracket unit s and
    Ric is pure rounding, so there the unit is s."""
    eps = float(np.finfo(float).eps)
    count = flat = 0
    for alg, h in _sweep_images(rng):
        rep = curvature_report(alg, h)
        op = rep.ricci_op
        s = float(np.abs(op).max())
        unit = float(np.abs(rep.connection.brackets).max()) ** 2
        if s <= 1e-12 * unit:
            s = unit
            flat += 1
        got = np.array(rep.principal_ricci)
        want = np.array(sorted(np.linalg.eigvals(op).tolist(),
                               key=lambda z: (round(z.real, 12), z.imag)))
        where = (rep.oneill.type_tag.value, got, want)
        for k, (a, b) in enumerate(zip(np.poly(got), np.poly(want))):
            assert abs(a - b) <= 1e-12 * s ** k, where
        tol = 20 * eps ** 0.5 if rep.oneill.type_tag == ONeillType.DOUBLE \
            else 1e-12
        assert np.abs(got - want).max() <= tol * s, where
        C = rep.oneill.transition
        assert np.abs(np.linalg.inv(C) @ op @ C
                      - rep.oneill.normal_form).max() <= 1e-12 * s, where
        count += 1
    assert (count, flat) == (335, 6)


def test_principal_ricci_double_root_is_real_and_repeated(rng):
    """A {21} Ricci operator has a real double eigenvalue m.  eigvals
    splits it by about sqrt(eps), often into a complex pair; principal_ricci
    reads m from the normal form instead (the mean of the diagonal of its
    Jordan block), so on every {21} sweep image the values are real and m is
    repeated exactly.  The mean of the two eigvals roots nearest m agrees
    with it to 1e-7 max|Ric| (4.8e-8 measured)."""
    count = 0
    for alg, h in _sweep_images(rng):
        rep = curvature_report(alg, h)
        if rep.oneill.type_tag != ONeillType.DOUBLE:
            continue
        got = rep.principal_ricci
        n = rep.oneill.normal_form
        m = complex(0.5 * (n[1, 1] + n[2, 2]))
        assert all(z.imag == 0.0 for z in got), got
        assert got.count(m) >= 2, (got, m)
        roots = sorted(np.linalg.eigvals(rep.ricci_op), key=lambda z: abs(z - m))
        s = float(np.abs(rep.ricci_op).max())
        assert abs(0.5 * (roots[0] + roots[1]) - m) <= 1e-7 * s, (got, roots)
        count += 1
    assert count == 76


def _closed_class(tag, form_id, params):
    """The constant-curvature class from the closed-form Ricci operator:
    in dimension three Einstein, Ric = (rho / 3) I, is constant curvature
    k = rho / 6."""
    closed = closed_form_report(tag, form_id, params)
    ric, rho = closed.ricci_op, closed.rho
    s = 1.0 + float(np.abs(ric).max())
    if float(np.abs(ric - rho / 3.0 * np.eye(3)).max()) > 1e-9 * s:
        return ConstantCurvatureClass.NON_CONSTANT, closed
    if abs(rho) <= 1e-9 * s:
        return ConstantCurvatureClass.FLAT, closed
    return (ConstantCurvatureClass.POSITIVE if rho > 0
            else ConstantCurvatureClass.NEGATIVE), closed


def test_answers_unchanged_on_sweep_images(rng):
    """On an automorphism image of every sweep cell the form id, the
    O'Neill type, the constant-curvature class and rho are those of the
    cell itself, the Einstein cells, whose Ricci operator is scalar,
    included."""
    count = einstein = 0
    for tag, form_id, params, alg, h in _sweep_cells(rng):
        where = (tag.c, form_id, params)
        cls, closed = _closed_class(tag, form_id, params)
        rep = curvature_report(alg, h)
        assert canonical_form(tag, h).form_id == form_id, where
        assert rep.oneill.type_tag == closed.oneill_type, where
        assert constant_curvature_class(tag, h)[0] == cls, where
        assert abs(rep.scalar - closed.rho) <= 1e-9 * (1.0 + abs(closed.rho)), where
        count += 1
        einstein += cls != ConstantCurvatureClass.NON_CONSTANT
    assert (count, einstein) == (335, 42)


def test_lt1_form3_near_c1_paper_frame_type():
    """Canonical Gc_lt1.3 (mu = 1) at c = 1 - 1e-6, read in its paper
    frame: the Ricci operator is {21}, as the closed form says."""
    tag = FamilyTag("Gc", 1.0 - 1e-6)
    params = {"mu": 1.0}
    basis = classification_basis(tag)
    h = MetricTensor(canonical_matrix(tag, "Gc_lt1.3", params), basis_label=basis)
    rep = curvature_report(make_family_algebra(tag, basis), h,
                           frame=paper_frame(tag, "Gc_lt1.3", params))
    assert rep.oneill.type_tag == ONeillType.DOUBLE


def _lt1_form3_near_c1_outcomes(k):
    """Outcomes of curvature_report near c = 1 on the degenerate-plane form
    Gc_lt1.3 (mu = 1) at c = 1 - 10^-k: the canonical metric in its paper
    frame and in its own, then 100 rand_automorphism images (rng seed 0)
    in their own frames.  Each outcome is an O'Neill type or the
    ValueError; an ArithmeticError propagates."""
    tag = FamilyTag("Gc", 1.0 - 10.0 ** -k)
    params = {"mu": 1.0}
    basis = classification_basis(tag)
    alg = make_family_algebra(tag, basis)
    C = canonical_matrix(tag, "Gc_lt1.3", params)
    rng = np.random.default_rng(0)
    runs = [(C, paper_frame(tag, "Gc_lt1.3", params)), (C, None)]
    runs += [(A.T @ C @ A, None)
             for A in (rand_automorphism(tag, rng) for _ in range(100))]
    outcomes = []
    for H, frame in runs:
        try:
            rep = curvature_report(alg, MetricTensor(H, basis_label=basis), frame=frame)
        except ValueError as exc:
            outcomes.append(exc)
        else:
            outcomes.append(rep.oneill.type_tag)
    return outcomes


@pytest.mark.parametrize("k", range(3, 10))
def test_lt1_form3_near_c1_is_no_fault(k):
    """No fault on Gc_lt1.3 near c = 1: where rounding hides the spacelike
    eigenvector or the type, the classifier rejects the input by name and
    raises no ArithmeticError."""
    for out in _lt1_form3_near_c1_outcomes(k):
        if isinstance(out, ValueError):
            assert str(out).startswith("O'Neill classification: "), out


def test_lt1_form3_near_c1_is_double_or_rejected():
    """ROADMAP item 3's criterion on the same points: every answer is
    {21}, as the closed form says, or a named rejection."""
    for k in range(3, 10):
        wrong = [out for out in _lt1_form3_near_c1_outcomes(k)
                 if not isinstance(out, ValueError) and out != ONeillType.DOUBLE]
        assert not wrong, (k, wrong)


def _dyadic_lt1_form3_images(k, count=100, seed=0):
    """Exact images of canonical Gc_lt1.3 (mu = 1) at c = 1 - 4^-k, where
    w = 2^-k and the P-adapted constants 1 +- w are exact: adapted
    automorphisms with gamma, delta and t in (1/8)Z, each image checked
    against its product in fractions.Fraction."""
    tag = FamilyTag("Gc", 1.0 - 4.0 ** -k)
    assert tag.w == 2.0 ** -k
    C = canonical_matrix(tag, "Gc_lt1.3", {"mu": 1.0})
    rng = np.random.default_rng(seed)
    for _ in range(count):
        gamma, delta = 0, 0
        while not (gamma and delta):
            gamma, delta = rng.integers(-16, 17, size=2) / 8
        A = adapted_automorphism(tag, gamma, delta, tuple(rng.integers(-16, 17, size=2) / 8))
        H = A.T @ C @ A
        a, c = (list(map(Fraction, m.ravel().tolist())) for m in (A, C))
        exact = [sum(a[3 * p + i] * c[3 * p + q] * a[3 * q + j]
                     for p in range(3) for q in range(3))
                 for i in range(3) for j in range(3)]
        assert list(map(Fraction, H.ravel().tolist())) == exact
        yield tag, H


@pytest.mark.parametrize("k", range(4, 15))
def test_exact_lt1_form3_near_c1_is_double_or_rejected(k):
    """ROADMAP item 11's scan: every exact image is exactly {21}, so every
    answer is {21} or a rejection by name, and all are {21} up to k = 8."""
    outcomes = []
    for tag, H in _dyadic_lt1_form3_images(k):
        basis = classification_basis(tag)
        try:
            rep = curvature_report(make_family_algebra(tag, basis),
                                   MetricTensor(H, basis_label=basis))
        except ValueError as exc:
            assert str(exc).startswith("O'Neill classification: "), exc
            outcomes.append(exc)
        else:
            outcomes.append(rep.oneill.type_tag)
    assert all(out == ONeillType.DOUBLE or isinstance(out, ValueError)
               for out in outcomes), (k, outcomes)
    if k <= 8:
        assert outcomes == [ONeillType.DOUBLE] * 100, (k, outcomes)
