import re

import numpy as np
import pytest

from lorcurv import (
    BasisLabel,
    FamilyTag,
    LieAlgebra3,
    adapted_automorphism,
    adapted_basis_vectors,
    adapted_transition,
    automorphism_matrix,
    change_basis,
    classification_basis,
    is_automorphism,
    make_family_algebra,
)
from tests.conftest import ALL_TAGS, rand_automorphism


def _pair_constants(upper, lower):
    """Constants with [e_2, e_0] = upper and [e_0, e_2] = lower."""
    c = np.zeros((3, 3, 3))
    c[2, 0], c[0, 2] = upper, lower
    return c


def test_structure_constants_must_be_antisymmetric():
    with pytest.raises(ValueError, match="antisymmetric"):
        LieAlgebra3(_pair_constants([1.0, 0.0, 0.0], [1.0, 0.0, 0.0]))


def test_structure_constants_accept_relative_1e5_asymmetry():
    """The check is relative, |c_ij + c_ji| <= 1e-5 |c_ji|, with no
    absolute floor."""
    LieAlgebra3(_pair_constants([1.0 + 9e-6, 0.0, 0.0], [-1.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="antisymmetric"):
        LieAlgebra3(_pair_constants([1.0 + 2e-5, 0.0, 0.0], [-1.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="antisymmetric"):
        LieAlgebra3(_pair_constants([1e-300, 0.0, 0.0], [0.0, 0.0, 0.0]))


def test_structure_constants_reject_nan():
    with pytest.raises(ValueError, match="antisymmetric"):
        LieAlgebra3(_pair_constants([np.nan, 0.0, 0.0], [np.nan, 0.0, 0.0]))


def test_family_keys():
    assert FamilyTag("GI").family_key() == "GI"
    assert FamilyTag("Gc", 2.0).family_key() == "Gc_gt1"
    assert FamilyTag("Gc", 1.0).family_key() == "G1"
    assert FamilyTag("Gc", 0.5).family_key() == "Gc_lt1"


@pytest.mark.parametrize("c", [np.nan, np.inf, -np.inf, True, False],
                         ids=["nan", "inf", "-inf", "True", "False"])
def test_gc_requires_finite_real_c(c):
    """The rule the CLI parser applies.  Without it, c = inf fails inside
    canonical_form with a LinAlgError, and c = nan rejects a finite
    metric as not finite."""
    with pytest.raises(ValueError, match="^family Gc requires a finite real c$"):
        FamilyTag("Gc", c)


def test_w_and_z_param():
    assert FamilyTag("Gc", 0.0).w == pytest.approx(1.0)
    assert FamilyTag("Gc", -3.0).w == pytest.approx(2.0)
    assert FamilyTag("Gc", 0.75).w == pytest.approx(0.5)


@pytest.mark.parametrize("c", [2, np.float64(2.0), np.int64(2)],
                         ids=["int", "float64", "int64"])
def test_gc_parameter_is_stored_as_float(c):
    """Callers may pass any real c; the tag, which messages and tables
    print, holds the same float whichever type came in."""
    tag = FamilyTag("Gc", c)
    assert type(tag.c) is float and tag.c == 2.0
    assert repr(tag) == repr(FamilyTag("Gc", 2.0))


def test_gi_brackets():
    alg = make_family_algebra(FamilyTag("GI"))
    x, y, z = np.eye(3)
    # [z, x] = x, [z, y] = y, [x, y] = 0
    assert np.allclose(alg.bracket(z, x), x)
    assert np.allclose(alg.bracket(z, y), y)
    assert np.allclose(alg.bracket(x, y), 0)


def test_gc_brackets():
    c = 3.0
    alg = make_family_algebra(FamilyTag("Gc", c))
    x, y, z = np.eye(3)
    assert np.allclose(alg.bracket(z, x), y)
    assert np.allclose(alg.bracket(z, y), -c * x + 2 * y)
    assert np.allclose(alg.bracket(x, y), 0)


@pytest.mark.parametrize("tag", ALL_TAGS, ids=lambda t: f"{t.kind}-{t.c}")
def test_jacobi(tag):
    for basis in (BasisLabel.NATURAL,):
        alg = make_family_algebra(tag, basis)
        assert alg.jacobi_residual() < 1e-12


def test_q_adapted_brackets():
    tag = FamilyTag("Gc", 1.0)
    alg = make_family_algebra(tag, BasisLabel.Q_ADAPTED)
    x1, x2, x3 = np.eye(3)
    assert np.allclose(alg.bracket(x3, x1), x1)
    assert np.allclose(alg.bracket(x3, x2), x1 + x2)


def test_p_adapted_brackets():
    tag = FamilyTag("Gc", 0.75)   # w = 1/2
    w = tag.w
    alg = make_family_algebra(tag, BasisLabel.P_ADAPTED)
    x1, x2, x3 = np.eye(3)
    assert np.allclose(alg.bracket(x3, x1), (1 + w) * x1)
    assert np.allclose(alg.bracket(x3, x2), (1 - w) * x2)


@pytest.mark.parametrize("c", [1.0, 0.0, -3.0, 0.75])
def test_adapted_transition_consistency(c):
    """Changing the natural algebra to the adapted basis vectors must give
    exactly the adapted structure constants."""
    tag = FamilyTag("Gc", c)
    nat = make_family_algebra(tag)
    U = adapted_basis_vectors(tag)
    assert np.allclose(U @ adapted_transition(tag), np.eye(3))
    moved = change_basis(nat, U)
    target = make_family_algebra(
        tag, BasisLabel.Q_ADAPTED if c == 1 else BasisLabel.P_ADAPTED)
    assert np.allclose(moved.structure_constants,
                       target.structure_constants, atol=1e-12)


@pytest.mark.parametrize("c", [1.0, 0.75, 0.0, -3.0])
def test_adapted_basis_vectors_invert_transition(c):
    """adapted_basis_vectors is the closed-form inverse of
    adapted_transition: exact for these c, whose w are dyadic."""
    tag = FamilyTag("Gc", c)
    U, T = adapted_basis_vectors(tag), adapted_transition(tag)
    assert np.array_equal(U @ T, np.eye(3))
    assert np.array_equal(T @ U, np.eye(3))


def test_adapted_basis_vectors_match_inverse(rng):
    for c in rng.uniform(-50.0, 1.0, size=50):
        tag = FamilyTag("Gc", float(c))
        assert np.allclose(adapted_basis_vectors(tag),
                           np.linalg.inv(adapted_transition(tag)),
                           rtol=1e-12, atol=1e-12)
    with pytest.raises(ValueError, match="adapted bases exist only"):
        adapted_basis_vectors(FamilyTag("Gc", 2.0))


def test_family_algebra_is_built_once_and_read_only():
    """Equal (tag, basis) give the same algebra object, whose constants
    cannot be written: a caller cannot change it for the next one."""
    for tag in ALL_TAGS:
        basis = classification_basis(tag)
        alg = make_family_algebra(tag, basis)
        assert make_family_algebra(FamilyTag(tag.kind, tag.c), basis) is alg
        with pytest.raises(ValueError, match="read-only"):
            alg.structure_constants[2, 0, 0] = 5.0
    assert make_family_algebra(FamilyTag("Gc", 2)) is \
        make_family_algebra(FamilyTag("Gc", 2.0))


@pytest.mark.parametrize("tag", ALL_TAGS, ids=lambda t: f"{t.kind}-{t.c}")
def test_random_automorphisms_are_automorphisms(tag, rng):
    from lorcurv import classification_basis
    basis = classification_basis(tag)
    alg = make_family_algebra(tag, basis)
    for _ in range(25):
        A = rand_automorphism(tag, rng)
        assert is_automorphism(alg, A)


def test_non_automorphism_rejected():
    alg = make_family_algebra(FamilyTag("Gc", 2.0))
    A = np.diag([1.0, 2.0, 3.0])   # scales z, breaks [z, x] = y
    assert not is_automorphism(alg, A)


def test_change_basis_round_trip(rng):
    alg = make_family_algebra(FamilyTag("Gc", 0.5))
    S = rng.normal(size=(3, 3)) + 3 * np.eye(3)
    back = change_basis(change_basis(alg, S), np.linalg.inv(S))
    assert np.allclose(back.structure_constants,
                       alg.structure_constants, atol=1e-9)


def _loop_is_automorphism(alg, A, tol):
    """The pairwise loop that is_automorphism replaced, kept as its oracle."""
    if abs(np.linalg.det(A)) <= tol.abs_tol:
        return False
    scale = 1.0 + float(np.max(np.abs(A))) ** 2 * float(
        np.max(np.abs(alg.structure_constants)) + 1.0)
    e = np.eye(3)
    for i in range(3):
        for j in range(i + 1, 3):
            lhs = A @ alg.bracket(e[i], e[j])
            rhs = alg.bracket(A[:, i], A[:, j])
            if np.max(np.abs(lhs - rhs)) > tol.abs_tol * scale + tol.abs_tol:
                return False
    return True


def _loop_jacobi_residual(alg):
    worst = 0.0
    e = np.eye(3)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                s = (alg.bracket(e[i], alg.bracket(e[j], e[k]))
                     + alg.bracket(e[j], alg.bracket(e[k], e[i]))
                     + alg.bracket(e[k], alg.bracket(e[i], e[j])))
                worst = max(worst, float(np.max(np.abs(s))))
    return worst


def test_tensor_forms_match_loop_oracles(rng):
    """is_automorphism and jacobi_residual against their loop forms: the
    same verdict on automorphisms, on perturbations of them across the
    band and on random matrices, for every family, a random basis, a
    non-Lie bracket and a bracket antisymmetric only to 1e-5; the same
    residual up to summation order."""
    from lorcurv import DEFAULT_TOL, classification_basis
    c = rng.normal(size=(3, 3, 3))
    # [z, x] off by 5e-6 from -[x, z]: the loop reads only [x, z], so the
    # automorphisms of the family still pass
    skew = make_family_algebra(ALL_TAGS[1]).structure_constants.copy()
    skew[2, 0] *= 1.0 + 5e-6
    algs = [(make_family_algebra(t, classification_basis(t)), t) for t in ALL_TAGS]
    algs += [(change_basis(make_family_algebra(ALL_TAGS[1]), rng.normal(size=(3, 3))),
              None), (LieAlgebra3(c - c.transpose(1, 0, 2)), None),
             (LieAlgebra3(skew), ALL_TAGS[1])]
    verdicts = set()
    for alg, tag in algs:
        want = _loop_jacobi_residual(alg)
        assert alg.jacobi_residual() == pytest.approx(want, rel=1e-12, abs=1e-15)
        for _ in range(60):
            A = rand_automorphism(tag, rng) if tag else rng.normal(size=(3, 3))
            for B in (A, A + 10.0 ** rng.uniform(-12, -4) * rng.normal(size=(3, 3))):
                verdict = is_automorphism(alg, B)
                assert verdict == _loop_is_automorphism(alg, B, DEFAULT_TOL)
                verdicts.add(verdict)
    assert verdicts == {True, False}


# --------------------------------------------------------------------------
# the automorphism builders

def _raises(message):
    return pytest.raises(ValueError, match=f"^{re.escape(message)}$")


def test_builder_errors():
    gi, c2, c1, lt1 = (FamilyTag("GI"), FamilyTag("Gc", 2.0), FamilyTag("Gc", 1.0),
                       FamilyTag("Gc", 0.75))
    with _raises("GI automorphisms require a 2x2 block"):
        automorphism_matrix(gi)
    with _raises("block must be 2x2"):
        automorphism_matrix(gi, block=np.eye(3))
    with _raises("block must be invertible"):
        automorphism_matrix(gi, block=[[1.0, 2.0], [2.0, 4.0]])
    # p s - q r is exactly 0.0 here, and so is its LU determinant
    with _raises("block must be invertible"):
        automorphism_matrix(gi, block=[[1.0, 2.0], [0.5, 1.0]])
    with _raises("Gc automorphisms require alpha and beta"):
        automorphism_matrix(c2, alpha=1.0)
    with _raises("Gc automorphisms require alpha and beta"):
        automorphism_matrix(c2, beta=1.0)
    with _raises("degenerate (alpha, beta) pair"):
        automorphism_matrix(c2, alpha=0.0, beta=0.0)
    with _raises("degenerate (alpha, beta) pair"):       # beta^2 = alpha^2 / 4
        automorphism_matrix(lt1, alpha=2.0, beta=-1.0)
    with _raises("gamma must be nonzero"):
        adapted_automorphism(c1, 0.0, 1.0)
    with _raises("gamma and delta must be nonzero"):
        adapted_automorphism(lt1, 1.0, 0.0)
    with _raises("gamma and delta must be nonzero"):
        adapted_automorphism(lt1, 0.0, 1.0)
    for tag in (gi, c2):
        with _raises("adapted automorphisms exist only for Gc with c <= 1"):
            adapted_automorphism(tag, 1.0, 1.0)


def _eye_assembled(block, translation):
    """A builder's matrix as it was assembled before, item by item into
    np.eye; their oracle."""
    A = np.eye(3)
    A[:2, :2] = block
    A[0, 2], A[1, 2] = translation
    return A


@pytest.mark.parametrize("tag", ALL_TAGS, ids=lambda t: f"{t.kind}-{t.c}")
def test_builders_match_eye_assembly(tag, rng):
    """Random outputs of both builders equal the matrices assembled into
    np.eye exactly, and are automorphisms of their basis's algebra."""
    basis = classification_basis(tag)
    for _ in range(40):
        p, q, r, s, *t = rng.normal(size=6).tolist()
        if tag.kind == "GI":
            A = automorphism_matrix(tag, block=[[p, q], [r, s]], translation=t)
            block = [[p, q], [r, s]]
        else:
            A = automorphism_matrix(tag, alpha=p, beta=q, translation=t)
            block = [[q - p, -tag.c * p], [p, q + p]]
        assert np.array_equal(A, _eye_assembled(block, t))
        assert is_automorphism(make_family_algebra(tag), A)
        if basis == BasisLabel.NATURAL:
            continue
        A = adapted_automorphism(tag, p, q, translation=t)
        block = [[p, q], [0.0, p]] if tag.c == 1 else [[p, 0.0], [0.0, q]]
        assert np.array_equal(A, _eye_assembled(block, t))
        assert is_automorphism(make_family_algebra(tag, basis), A)
