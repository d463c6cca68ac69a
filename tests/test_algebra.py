import numpy as np
import pytest

from lorcurv import (
    BasisLabel,
    FamilyTag,
    LieAlgebra3,
    adapted_basis_vectors,
    adapted_transition,
    change_basis,
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


def test_w_and_z_param():
    assert FamilyTag("Gc", 0.0).w == pytest.approx(1.0)
    assert FamilyTag("Gc", -3.0).w == pytest.approx(2.0)
    assert FamilyTag("Gc", 0.75).w == pytest.approx(0.5)
    assert FamilyTag("Gc", 5.0).z_param == pytest.approx(2.0)


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
