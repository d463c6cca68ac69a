"""Oracles for the float core: the Jacobi eigensolver against LAPACK's
eigh and a 40-digit reference, and the curvature and O'Neill arithmetic
against the numpy formulas the package used before it computed on Python
floats, kept here as references."""

import math

import mpmath
import numpy as np
import pytest

import lorcurv.metric
from lorcurv import (
    DEFAULT_TOL,
    FamilyTag,
    LieAlgebra3,
    MetricTensor,
    classify_self_adjoint,
    cross,
    frame_gram_residual,
    levi_civita,
    make_family_algebra,
    orthonormal_frame,
    ricci_operator,
    ricci_tensor,
    riemann,
)
from lorcurv.metric import OrthonormalFrame, _signature
from lorcurv.oneill import _conjugate
from tests.test_curvature import _SCAN_C, _fuzz_metrics, _sweep_images

EPS = np.finfo(float).eps
_SIGNS = np.array([1.0, 1.0, -1.0])
_J = np.diag(_SIGNS)


# --------------------------------------------------------------------------
# the eigensolver

def _rotation(rng):
    Q, R = np.linalg.qr(rng.normal(size=(3, 3)))
    return Q * np.sign(np.diag(R))


def _eigen_cases():
    """Symmetric matrices: the fuzz sets; near-degenerate and repeated
    eigenvalues; 2^k scalings of both; and signed zeros and subnormals."""
    rng = np.random.default_rng(7)
    cases = [h.entries for c in (None, 2.0, 1.0) for _, h in _fuzz_metrics(c, count=100)]
    for gap in (0.0, 1e-15, 1e-12, 1e-8):
        for _ in range(40):
            d = rng.uniform(0.1, 3.0, size=3) * rng.choice([-1.0, 1.0], size=3)
            d[1] = d[0] * (1.0 + gap)
            Q = _rotation(rng)
            H = Q @ np.diag(d) @ Q.T
            cases.append(0.5 * (H + H.T))
    cases += [2.0 ** k * h for k in (-1000, -520, -100, 100, 520, 1000) for h in cases[:40:4]]
    cases += [np.diag([1.0, -0.0, -1.0]), np.diag([-0.0, 0.0, 2.0]), np.zeros((3, 3)),
              np.array([[1.0, 5e-324, 0.0], [5e-324, -1.0, -5e-324], [0.0, -5e-324, 2.0]]),
              np.array([[2e-310, 1e-310, 0.0], [1e-310, -3e-310, 0.0], [0.0, 0.0, 1e-309]]),
              np.array([[-0.0, 1.0, 0.0], [1.0, -0.0, 0.0], [0.0, 0.0, 1.0]])]
    return cases


_CASES = _eigen_cases()


def _reference(H):
    """The eigenvalues of H, ascending, to 40 digits."""
    scale = float(np.abs(H).max()) or 1.0
    with mpmath.workdps(40):
        ev = mpmath.eigsy(mpmath.matrix((H / scale).tolist()))[0]
    return np.array(sorted(float(x) * scale for x in ev))


def test_eigenvalues_match_the_reference_and_eigh():
    """The eigenvalues lie within 4 eps max|lambda| of a 40-digit
    reference.  LAPACK's eigh lies up to about 5 eps from it on these
    sets, so the two agree within 8 eps max|lambda|."""
    worst_ref = worst_eigh = 0.0
    for H in _CASES:
        ev, _ = lorcurv.metric._jacobi(tuple(map(tuple, H.tolist())))
        ref = _reference(H)
        top = float(np.abs(ref).max()) or 1.0
        worst_ref = max(worst_ref, float(np.abs(np.array(ev) - ref).max()) / top)
        worst_eigh = max(worst_eigh, float(np.abs(np.array(ev) - np.linalg.eigh(H)[0]).max())
                         / top)
    assert worst_ref <= 4 * EPS, worst_ref / EPS
    assert worst_eigh <= 8 * EPS, worst_eigh / EPS


def test_eigenvectors_are_orthonormal_and_scale_free():
    """V^T V = I within 4 eps, H V = V Lambda within 8 eps max|H|, and
    2^k H has exactly 2^k times the eigenvalues and the same eigenvectors."""
    for H in _CASES:
        ev, vecs = lorcurv.metric._jacobi(tuple(map(tuple, H.tolist())))
        V = np.array(vecs).T
        assert np.abs(V.T @ V - np.eye(3)).max() <= 4 * EPS
        top = float(np.abs(H).max())
        if top > 1e-300 and top < 1e300:
            assert np.abs(H @ V - V * np.array(ev)).max() <= 8 * EPS * top
        for k in (-60, 60):
            if 1e-290 < top * 2.0 ** k < 1e300:
                scaled = tuple(map(tuple, (2.0 ** k * H).tolist()))
                ev2, vecs2 = lorcurv.metric._jacobi(scaled)
                assert ev2 == tuple(2.0 ** k * x for x in ev)
                assert vecs2 == vecs


def test_signature_decisions_match_eigh():
    """The signature from the eigenvalues is eigh's."""
    for H in _CASES:
        ev, _ = lorcurv.metric._jacobi(tuple(map(tuple, H.tolist())))
        assert _signature(ev, DEFAULT_TOL) == _signature(np.linalg.eigh(H)[0].tolist(),
                                                         DEFAULT_TOL), H


def _eigh_frame(h):
    """The frame the package built from np.linalg.eigh, as its reference."""
    ev, vecs = np.linalg.eigh(h.entries)
    cols = vecs / np.sqrt(np.abs(ev))
    cols *= np.sign(cols[np.abs(cols).argmax(axis=0), range(3)])
    return lorcurv.OrthonormalFrame(cols[:, [1, 2, 0]])


def test_frame_gram_residual_stays_in_band():
    """On the fuzz sets the frame's Gram residual stays within 1e-14, and
    within 4 times that of the eigh-built frame, plus 4 eps."""
    for c in _SCAN_C[:4]:
        for _, h in _fuzz_metrics(c):
            res = frame_gram_residual(orthonormal_frame(h), h)
            want = frame_gram_residual(_eigh_frame(h), h)
            assert res <= 1e-14 and res <= 4 * want + 4 * EPS, (res, want)


# --------------------------------------------------------------------------
# the numpy formulas the float core replaced, as references

def _numpy_bracket_constants(c, S):
    """c'[i, j, k] = sum S[a, i] S[b, j] c[a, b, m] inv(S)[k, m]."""
    SS = (S[:, None, :, None] * S[None, :, None, :]).reshape(9, 9)
    consts = SS.T.dot(c.reshape(9, 3)).dot(np.linalg.inv(S).T).reshape(3, 3, 3)
    return 0.5 * (consts - consts.transpose(1, 0, 2))


def _numpy_connection(c):
    """Koszul gamma and the 4-index R of frame brackets c, and the Ricci
    matrix as the symmetrised trace of R."""
    d = _SIGNS * c
    gamma = 0.5 * _SIGNS * (d + d.transpose(1, 2, 0) + d.transpose(2, 1, 0))
    P = gamma.reshape(9, 3).dot(gamma.transpose(1, 0, 2).reshape(3, 9)).reshape(3, 3, 3, 3)
    R = (c.reshape(9, 3).dot(gamma.reshape(3, 9)).reshape(3, 3, 3, 3)
         - P.transpose(2, 0, 1, 3) + P.transpose(0, 2, 1, 3))
    ric = R.trace(axis1=1, axis2=3)
    return gamma, R, 0.5 * (ric + ric.T)


def _metrics():
    yield from _sweep_images(np.random.default_rng(20260823))
    for c in _SCAN_C:
        yield from _fuzz_metrics(c)


def test_curvature_matches_the_numpy_formulas():
    """On the 335 sweep images and the fuzz sets: brackets within 4e-15
    max|c|, gamma within 4e-15 max|c|, Ric within 4e-15 s and the tensor
    riemann builds within 1e-14 s of the numpy forms, s = max|c|^2."""
    count = 0
    for alg, h in _metrics():
        frame = orthonormal_frame(h)
        conn = levi_civita(alg, frame)
        c = _numpy_bracket_constants(alg.structure_constants, frame.columns)
        gamma, R, ric = _numpy_connection(c)
        top = float(np.abs(c).max())
        s = top * top
        assert np.abs(conn.brackets - c).max() <= 4e-15 * top
        assert np.abs(conn.gamma - gamma).max() <= 4e-15 * top
        assert np.abs(np.array(ricci_tensor(conn)) - ric).max() <= 4e-15 * s
        assert np.abs(conn.curvature - R).max() <= 1e-14 * s
        count += 1
    assert count == 335 + 300 * len(_SCAN_C)


def test_riemann_is_linear_in_each_vector():
    """riemann on general vectors is the 4-index tensor contracted with
    them, as the numpy form contracted it."""
    rng = np.random.default_rng(3)
    for alg, h in list(_metrics())[::25]:
        conn = levi_civita(alg, orthonormal_frame(h))
        _, R, _ = _numpy_connection(np.asarray(conn.brackets))
        u, v, w = rng.normal(size=(3, 3))
        want = np.einsum("i,j,k,ijkl->l", u, v, w, R)
        s = float(np.abs(conn.brackets).max()) ** 2
        assert np.abs(np.array(riemann(conn, u, v, w)) - want).max() <= 1e-13 * s


def test_oneill_conjugation_matches_numpy(rng):
    """inv(C) T C = J C^T J T C, on floats, against the numpy products."""
    from tests.conftest import rand_o21
    for _ in range(200):
        C = rand_o21(rng)
        T = rng.normal(size=(3, 3))
        want = _J.dot(C.T).dot(_J).dot(T).dot(C)
        got = np.array(_conjugate(tuple(map(tuple, C)), tuple(map(tuple, T))))
        assert np.abs(got - want).max() <= 16 * EPS * np.abs(C).max() ** 2 * np.abs(T).max()


def test_classifier_accepts_arrays_and_rows():
    """classify_self_adjoint takes an ndarray or rows alike."""
    T = np.array([[2.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, -1.0, 1.0]])
    a = classify_self_adjoint(T, (1.0, 0.0, 0.0))
    b = classify_self_adjoint(tuple(map(tuple, T.tolist())), (1.0, 0.0, 0.0))
    assert a.type_tag == b.type_tag
    assert np.array_equal(a.normal_form, b.normal_form)
    assert not a.normal_form.flags.writeable


def test_fields_read_as_read_only_arrays():
    """The public fields are ndarrays built on first read; dataclasses'
    replace and the constructors take arrays."""
    import dataclasses
    tag = FamilyTag("Gc", 2.0)
    h = MetricTensor(np.array([[-1.0, -1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 4.0]]))
    cf = lorcurv.canonical_form(tag, h)
    moved = dataclasses.replace(cf, witness=cf.witness * 2.0)
    assert isinstance(moved.witness, np.ndarray) and not moved.witness.flags.writeable
    assert np.array_equal(moved.witness, 2.0 * cf.witness)
    rep = lorcurv.curvature_report(make_family_algebra(tag), h)
    for array in (rep.ric_matrix, rep.ricci_op, rep.connection.gamma,
                  rep.connection.brackets, rep.connection.curvature,
                  rep.oneill.normal_form, rep.oneill.transition, rep.frame.columns,
                  make_family_algebra(tag).structure_constants, lorcurv.J21):
        assert isinstance(array, np.ndarray) and not array.flags.writeable
    assert math.isclose(float(np.trace(rep.ricci_op)), rep.scalar)


def test_constructors_check_tuples_by_name():
    """A tuple from a caller is checked and converted like any other value:
    a wrong shape is refused by name, and rows given as lists are copied
    into float tuples, so editing the lists later changes nothing."""
    with pytest.raises(ValueError, match="frame must be a 3x3 column matrix"):
        OrthonormalFrame(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)))
    with pytest.raises(ValueError, match=r"structure constants must have shape \(3, 3, 3\)"):
        LieAlgebra3(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)))
    with pytest.raises(ValueError, match="metric matrix must be 3x3"):
        MetricTensor(((1.0, 0.0), (0.0, 1.0)))
    c = np.zeros((3, 3, 3))
    c[2, 0, 0], c[0, 2, 0] = 1.0, -1.0
    rows = tuple(c[i].tolist() for i in range(3))      # a tuple of lists
    alg = LieAlgebra3(rows)
    rows[2][0][0] = 5.0
    assert alg.structure_constants[2, 0, 0] == 1.0
    assert alg._structure_constants[2][0] == (1.0, 0.0, 0.0)
    assert lorcurv.change_basis(alg, np.eye(3))._structure_constants[2][0][0] == 1.0


def test_public_matrix_functions_return_arrays():
    """ricci_operator and cross hand out ndarrays, so arithmetic on them is
    arithmetic; riemann and ricci_tensor, which every report calls, hand
    out tuples of floats."""
    ric = np.diag([1.0, 2.0, 3.0])
    op = ricci_operator(ric)
    assert isinstance(op, np.ndarray) and np.array_equal(2 * op, np.diag([2.0, 4.0, -6.0]))
    assert isinstance(cross((1, 0, 0), (0, 1, 0)), np.ndarray)
    assert np.array_equal(-cross((1, 0, 0), (0, 1, 0)), [0.0, 0.0, 1.0])
    tag = FamilyTag("Gc", 2.0)
    h = MetricTensor(np.array([[-1.0, -1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 4.0]]))
    conn = levi_civita(make_family_algebra(tag), orthonormal_frame(h))
    assert type(riemann(conn, (1, 0, 0), (0, 1, 0), (1, 0, 0))) is tuple
    assert type(ricci_tensor(conn)) is tuple
