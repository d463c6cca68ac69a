import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorcurv import DEFAULT_TOL, J21, ONeillType, classify_self_adjoint
from lorcurv.oneill import _split_complement, boost
from tests.conftest import lapack_calls, rand_o21

# J-self-adjoint representatives of the four types; {3} has no spacelike
# eigenvector, is no Ricci operator on these groups, and is rejected.  The
# classifier takes one eigenvector: e1 for the first three, and the null
# (0, 1, 1) for {3}
REP_DIAGONAL = np.diag([1.0, 2.0, 3.0])
REP_COMPLEX = np.array([[2.0, 0, 0], [0, 1, 3], [0, -3, 1]])
REP_DOUBLE = np.array([[0.0, 0, 0], [0, 2, 1], [0, -1, 0]])
REP_TRIPLE = np.array([[1.0, 1, -1], [1, 1, 0], [1, 0, 1]])

REPS = {
    ONeillType.DIAGONAL: REP_DIAGONAL,
    ONeillType.COMPLEX: REP_COMPLEX,
    ONeillType.DOUBLE: REP_DOUBLE,
}

#: every representative, the rejected {3} one included
ALL_REPS = list(REPS.items()) + [(ONeillType.TRIPLE, REP_TRIPLE)]

E1 = np.array([1.0, 0.0, 0.0])
#: the eigenvector passed with each representative
EIGENVECTOR = {t: E1 for t in REPS} | {ONeillType.TRIPLE: np.array([0.0, 1.0, 1.0])}

#: the classifier refuses a {3} operator: it has no spacelike eigenvector
TRIPLE_REJECTION = "^O'Neill classification: no eigenvector is spacelike"


def _assert_conjugation(T, cls):
    """normal = inv(C) T C with C in O(2,1)."""
    C = cls.transition
    assert np.max(np.abs(C.T @ J21 @ C - J21)) < 1e-8
    assert np.max(np.abs(np.linalg.inv(C) @ T @ C - cls.normal_form)) < 1e-7


@pytest.mark.parametrize("expected,T", ALL_REPS,
                         ids=[t.name for t, _ in ALL_REPS])
def test_representatives(expected, T):
    n = EIGENVECTOR[expected]
    if expected == ONeillType.TRIPLE:
        with pytest.raises(ValueError, match=TRIPLE_REJECTION):
            classify_self_adjoint(T, n)
        return
    cls = classify_self_adjoint(T, n)
    assert cls.type_tag == expected
    _assert_conjugation(T, cls)


def test_rejects_non_self_adjoint():
    with pytest.raises(ValueError):
        classify_self_adjoint(np.array([[0.0, 1, 0], [0, 0, 0], [0, 0, 0]]), E1)


def test_diagonal_normal_form_is_diagonal():
    cls = classify_self_adjoint(REP_DIAGONAL, E1)
    off = cls.normal_form - np.diag(np.diag(cls.normal_form))
    assert np.max(np.abs(off)) < 1e-9


def test_complex_eigenvalues_reported():
    cls = classify_self_adjoint(REP_COMPLEX, E1)
    eigvals = np.linalg.eigvals(REP_COMPLEX)
    assert np.max(np.abs(eigvals.imag)) > 1
    assert cls.type_tag == ONeillType.COMPLEX


def test_double_block_pattern():
    cls = classify_self_adjoint(REP_DOUBLE, E1)
    n = cls.normal_form
    # block [[m+1, 1], [-1, m-1]] (or its mirror) in the (2,3)-plane
    assert abs(abs(n[1, 2]) - 1) < 1e-8
    assert abs(n[1, 2] + n[2, 1]) < 1e-8
    assert abs(abs(n[1, 1] - n[2, 2]) - 2) < 1e-7


def test_triple_normal_form_pattern():
    """REP_TRIPLE is a {3} operator: one eigenvalue a with T - aI nilpotent
    of rank 2, so its only eigenvectors span the null line ker(T - aI),
    the line of (0, 1, 1).  With no spacelike eigenvector to split off it
    is rejected by name."""
    a = np.trace(REP_TRIPLE) / 3.0
    N = REP_TRIPLE - a * np.eye(3)
    assert np.linalg.matrix_rank(N) == 2
    assert np.max(np.abs(N @ N)) > 0.5
    assert np.max(np.abs(N @ N @ N)) == 0.0
    v = np.linalg.svd(N)[2][-1]
    assert np.max(np.abs(N @ v)) < 1e-12
    assert abs(v @ J21 @ v) < 1e-12
    n = EIGENVECTOR[ONeillType.TRIPLE]
    assert np.max(np.abs(np.cross(v, n))) < 1e-12
    with pytest.raises(ValueError, match=TRIPLE_REJECTION):
        classify_self_adjoint(REP_TRIPLE, n)


def test_boost_is_in_o21():
    B = boost(0.7)
    assert np.allclose(B.T @ J21 @ B, J21)


#: a {21} block perturbed far inside the discriminant band: D = 8e-12
REP_DOUBLE_NEAR = REP_DOUBLE + np.diag([0.0, 1e-12, -1e-12])

CONJUGATED = ALL_REPS + [(ONeillType.DOUBLE, REP_DOUBLE_NEAR)]


@pytest.mark.parametrize("ttype,T0", CONJUGATED,
                         ids=[t.name for t, _ in ALL_REPS] + ["DOUBLE_NEAR"])
def test_conjugation_invariance(ttype, T0, rng):
    for _ in range(125):
        A = rand_o21(rng)
        T = A @ T0 @ np.linalg.inv(A)
        n = A @ EIGENVECTOR[ttype]
        if ttype == ONeillType.TRIPLE:
            with pytest.raises(ValueError, match=TRIPLE_REJECTION):
                classify_self_adjoint(T, n)
            continue
        cls = classify_self_adjoint(T, n)
        assert cls.type_tag == ttype
        _assert_conjugation(T, cls)


#: (type, operator, eigenvector) with a timelike or null eigenvector: the
#: plane n^perp is spacelike, or contains n
OTHER_EIGENVECTORS = [
    (ONeillType.DIAGONAL, REP_DIAGONAL, np.array([0.0, 0.0, 1.0])),
    (ONeillType.DIAGONAL, np.diag([1.0, 2.0, 2.0]), np.array([0.0, 1.0, 1.0])),
    (ONeillType.DOUBLE, REP_DOUBLE, np.array([0.0, 1.0, -1.0])),
]


@pytest.mark.parametrize("ttype,T0,n0", OTHER_EIGENVECTORS,
                         ids=["timelike", "null-diagonal", "null-double"])
def test_timelike_and_null_eigenvectors(ttype, T0, n0, rng):
    """The same types from a timelike or a null eigenvector, alone and
    under 125 O(2,1) conjugations."""
    for k in range(126):
        A = np.eye(3) if k == 0 else rand_o21(rng)
        T = A @ T0 @ np.linalg.inv(A)
        cls = classify_self_adjoint(T, A @ n0)
        assert cls.type_tag == ttype
        _assert_conjugation(T, cls)


def test_vector_that_is_no_eigenvector_is_rejected():
    with pytest.raises(ValueError, match="not an eigenvector"):
        classify_self_adjoint(REP_DIAGONAL, np.array([1.0, 1.0, 0.0]))
    with pytest.raises(ValueError, match="nonzero"):
        classify_self_adjoint(REP_DIAGONAL, np.zeros(3))


def test_boundary_band_reports_double():
    """A perturbation far below classification_tol of a {21} block must
    still classify {21}, with the boundary warning raised."""
    cls = classify_self_adjoint(REP_DOUBLE_NEAR, E1)
    assert cls.type_tag == ONeillType.DOUBLE
    assert cls.boundary_warning


def test_near_boundary_sides():
    # (b-d)^2 - 4 r^2 slightly positive / negative, outside the band
    for eps, expected in [(1e-3, ONeillType.DIAGONAL),
                          (-1e-3, ONeillType.COMPLEX)]:
        T = np.array([[0.0, 0, 0], [0, 2 + eps, 1], [0, -1, 0]])
        cls = classify_self_adjoint(T, E1)
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


@pytest.mark.parametrize("k", [-3.0, 0.0, 0.5, 2.0])
def test_near_scalar_operator_makes_no_lapack_call(k, rng, monkeypatch):
    """kI + E, with E J-self-adjoint and below a tenth of the band, alone
    and under O(2,1) conjugation (E rescaled after conjugating, so that
    the operator classified stays that close to kI): every vector is an
    eigenvector within the band, so y1 and its image A y1 are both taken,
    and the classification is {11,1} with a normal form within the band
    of kI and a transition in O(2,1), with no LAPACK call."""
    band = DEFAULT_TOL.classification_tol * (1.0 + abs(k))
    for conjugate in (False, True):
        for _ in range(25):
            S = rng.normal(size=(3, 3))
            E = J21 @ (S + S.T)
            n = E1
            if conjugate:
                A = rand_o21(rng)
                E = A @ E @ np.linalg.inv(A)
                n = A @ E1
            E *= rng.uniform(0.0, 0.1) * band / np.abs(E).max()
            T = k * np.eye(3) + E
            cls, calls = lapack_calls(monkeypatch, lambda: classify_self_adjoint(T, n))
            assert calls == {}
            assert cls.type_tag == ONeillType.DIAGONAL
            assert np.abs(cls.normal_form - k * np.eye(3)).max() <= band
            C = cls.transition
            assert np.abs(C.T @ J21 @ C - J21).max() <= 1e-14
