import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorcurv import J21, ONeillType, classify_self_adjoint
from lorcurv.oneill import _split_complement, boost
from tests.conftest import rand_o21

# J-self-adjoint representatives of the four types
REP_DIAGONAL = np.diag([1.0, 2.0, 3.0])
REP_COMPLEX = np.array([[2.0, 0, 0], [0, 1, 3], [0, -3, 1]])
REP_DOUBLE = np.array([[0.0, 0, 0], [0, 2, 1], [0, -1, 0]])
REP_TRIPLE = np.array([[1.0, 1, -1], [1, 1, 0], [1, 0, 1]])

REPS = {
    ONeillType.DIAGONAL: REP_DIAGONAL,
    ONeillType.COMPLEX: REP_COMPLEX,
    ONeillType.DOUBLE: REP_DOUBLE,
    ONeillType.TRIPLE: REP_TRIPLE,
}


def _assert_conjugation(T, cls):
    """normal = inv(C) T C with C in O(2,1)."""
    C = cls.transition
    assert np.max(np.abs(C.T @ J21 @ C - J21)) < 1e-8
    assert np.max(np.abs(np.linalg.inv(C) @ T @ C - cls.normal_form)) < 1e-7


@pytest.mark.parametrize("expected,T", list(REPS.items()),
                         ids=[t.name for t in REPS])
def test_representatives(expected, T):
    cls = classify_self_adjoint(T)
    assert cls.type_tag == expected
    _assert_conjugation(T, cls)


def test_rejects_non_self_adjoint():
    with pytest.raises(ValueError):
        classify_self_adjoint(np.array([[0.0, 1, 0], [0, 0, 0], [0, 0, 0]]))


def test_diagonal_normal_form_is_diagonal():
    cls = classify_self_adjoint(REP_DIAGONAL)
    off = cls.normal_form - np.diag(np.diag(cls.normal_form))
    assert np.max(np.abs(off)) < 1e-9


def test_complex_eigenvalues_reported():
    cls = classify_self_adjoint(REP_COMPLEX)
    eigvals = np.linalg.eigvals(REP_COMPLEX)
    assert np.max(np.abs(eigvals.imag)) > 1
    assert cls.type_tag == ONeillType.COMPLEX


def test_double_block_pattern():
    cls = classify_self_adjoint(REP_DOUBLE)
    n = cls.normal_form
    # block [[m+1, 1], [-1, m-1]] (or its mirror) in the (2,3)-plane
    assert abs(abs(n[1, 2]) - 1) < 1e-8
    assert abs(n[1, 2] + n[2, 1]) < 1e-8
    assert abs(abs(n[1, 1] - n[2, 2]) - 2) < 1e-7


def test_triple_normal_form_pattern():
    cls = classify_self_adjoint(REP_TRIPLE)
    n = cls.normal_form
    a = n[0, 0]
    expect = np.array([[a, 1, -1], [1, a, 0], [1, 0, a]])
    assert np.max(np.abs(n - expect)) < 1e-7


def test_boost_is_in_o21():
    B = boost(0.7)
    assert np.allclose(B.T @ J21 @ B, J21)


#: a {21} block perturbed far inside the discriminant band: D = 8e-12
REP_DOUBLE_NEAR = REP_DOUBLE + np.diag([0.0, 1e-12, -1e-12])

CONJUGATED = list(REPS.items()) + [(ONeillType.DOUBLE, REP_DOUBLE_NEAR)]


@pytest.mark.parametrize("ttype,T0", CONJUGATED,
                         ids=[t.name for t in REPS] + ["DOUBLE_NEAR"])
def test_conjugation_invariance(ttype, T0, rng):
    for _ in range(125):
        A = rand_o21(rng)
        T = A @ T0 @ np.linalg.inv(A)
        cls = classify_self_adjoint(T)
        assert cls.type_tag == ttype
        _assert_conjugation(T, cls)


def test_boundary_band_reports_double():
    """A perturbation far below classification_tol of a {21} block must
    still classify {21}, with the boundary warning raised."""
    cls = classify_self_adjoint(REP_DOUBLE_NEAR)
    assert cls.type_tag == ONeillType.DOUBLE
    assert cls.boundary_warning


def test_near_boundary_sides():
    # (b-d)^2 - 4 r^2 slightly positive / negative, outside the band
    for eps, expected in [(1e-3, ONeillType.DIAGONAL),
                          (-1e-3, ONeillType.COMPLEX)]:
        T = np.array([[0.0, 0, 0], [0, 2 + eps, 1], [0, -1, 0]])
        cls = classify_self_adjoint(T)
        assert cls.type_tag == expected, eps


@settings(max_examples=300, deadline=None)
@given(theta=st.floats(-8.0, 8.0), phi=st.floats(0.0, 2 * np.pi))
def test_split_complement_is_j_orthonormal(theta, phi):
    """(v, p, q) from the closed-form complement is a J-orthonormal basis,
    p spacelike and q timelike, for h-unit spacelike v = boost rotation e1
    at any rapidity up to 8 (|v|^2 up to about 4e6)."""
    v = boost(theta) @ np.array([np.cos(phi), np.sin(phi), 0.0])
    p, q = _split_complement(v)
    C = np.column_stack([v, p, q])
    assert np.abs(C.T @ J21 @ C - J21).max() <= 1e-12 * (1.0 + v @ v)
