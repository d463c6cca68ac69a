import numpy as np
import pytest

from lorcurv import (
    ConstantCurvatureClass,
    DegenerateMetricError,
    FamilyTag,
    MetricTensor,
    canonical_form,
    canonical_matrix,
    classification_basis,
    constant_curvature_class,
    equivalent,
    from_adapted_basis,
    is_automorphism,
    make_family_algebra,
    to_adapted_basis,
)
from lorcurv.atlas import form_specs, _ctx, _param_grid
from tests.conftest import ALL_TAGS, SWEEP_GRID, rand_automorphism


def _canonical_metrics(tag):
    basis = classification_basis(tag)
    ctx = _ctx(tag)
    for spec in form_specs(tag):
        for params in _param_grid(spec, ctx, SWEEP_GRID):
            h = MetricTensor(canonical_matrix(tag, spec.form_id, params),
                             basis_label=basis)
            yield spec.form_id, params, h


def test_rejects_non_lorentzian():
    with pytest.raises(DegenerateMetricError):
        canonical_form(FamilyTag("GI"), MetricTensor(np.eye(3)))


@pytest.mark.parametrize("tag", ALL_TAGS, ids=lambda t: f"{t.kind}-{t.c}")
def test_canonical_metrics_are_fixed_points(tag):
    """Canonical matrices classify to themselves with the same parameters."""
    for form_id, params, h in _canonical_metrics(tag):
        cf = canonical_form(tag, h)
        assert cf.form_id == form_id, (form_id, params, cf.form_id, cf.params)
        for k, v in params.items():
            assert cf.params[k] == pytest.approx(v, rel=1e-9, abs=1e-9)
        assert np.max(np.abs(cf.canonical_matrix - h.entries)) < 1e-9


@pytest.mark.parametrize("tag", ALL_TAGS, ids=lambda t: f"{t.kind}-{t.c}")
def test_round_trip_random_automorphisms(tag, rng):
    basis = classification_basis(tag)
    alg = make_family_algebra(tag, basis)
    for form_id, params, h0 in _canonical_metrics(tag):
        for _ in range(3):
            A = rand_automorphism(tag, rng)
            h = MetricTensor(A.T @ h0.entries @ A, basis_label=basis)
            cf = canonical_form(tag, h)
            assert cf.form_id == form_id, (form_id, params, cf.form_id)
            for k, v in params.items():
                assert cf.params[k] == pytest.approx(v, rel=1e-6, abs=1e-6)
            # witness is a genuine congruence back to the canonical matrix
            W = cf.witness
            res = np.max(np.abs(W.T @ h.entries @ W - cf.canonical_matrix))
            assert res < 1e-7 * (1 + np.abs(cf.canonical_matrix).max())
            assert is_automorphism(alg, W)


def test_natural_basis_input_for_adapted_families():
    """c <= 1 metrics given in the natural basis are converted internally."""
    tag = FamilyTag("Gc", 0.75)
    basis = classification_basis(tag)
    h_ad = MetricTensor(canonical_matrix(tag, "Gc_lt1.4", {"mu": 2.0}),
                        basis_label=basis)
    h_nat = from_adapted_basis(tag, h_ad)
    cf = canonical_form(tag, h_nat)
    assert cf.form_id == "Gc_lt1.4"
    assert cf.params["mu"] == pytest.approx(2.0)
    back = to_adapted_basis(tag, h_nat)
    assert np.allclose(back.entries, h_ad.entries)


def test_equivalent_true_with_witness(rng):
    tag = FamilyTag("Gc", 5.0)
    h1 = MetricTensor(canonical_matrix(tag, "Gc_gt1.2", {"mu": 1.0, "tau": 0.5}))
    A = rand_automorphism(tag, rng)
    h2 = MetricTensor(A.T @ h1.entries @ A)
    flag, W = equivalent(tag, h1, h2)
    assert flag
    assert np.max(np.abs(W.T @ h1.entries @ W - h2.entries)) < 1e-6


def test_equivalent_false_across_forms():
    tag = FamilyTag("GI")
    h1 = MetricTensor(canonical_matrix(tag, "GI.1", {"mu": 1.0}))
    h2 = MetricTensor(canonical_matrix(tag, "GI.2", {"mu": 1.0}))
    flag, W = equivalent(tag, h1, h2)
    assert not flag and W is None


def test_equivalent_false_across_parameters():
    """Distinct canonical parameters are genuinely inequivalent moduli."""
    tag = FamilyTag("GI")
    h1 = MetricTensor(canonical_matrix(tag, "GI.1", {"mu": 2.0}))
    h2 = MetricTensor(canonical_matrix(tag, "GI.1", {"mu": 3.0}))
    flag, _ = equivalent(tag, h1, h2)
    assert not flag


def test_case2_parameter_relation():
    """For c = 2 the nu = 3 metric reduces to the fundamental domain value
    nu' = 1 + (c-1)^2/(nu-1) = 3/2."""
    tag = FamilyTag("Gc", 2.0)
    h = MetricTensor(np.array([[1.0, 1, 0], [1, 3, 0], [0, 0, -1]]))
    cf = canonical_form(tag, h)
    assert cf.form_id == "Gc_gt1.3"
    assert cf.params["nu"] == pytest.approx(1.5)
    h2 = MetricTensor(canonical_matrix(tag, "Gc_gt1.3",
                                       {"mu": 1.0, "nu": 1.5}))
    flag, W = equivalent(tag, h, h2)
    assert flag


def test_mixed_sign_equivalence():
    tag = FamilyTag("Gc", 2.0)
    h1 = MetricTensor(np.array([[-1.0, -1, 0], [-1, 0, 0], [0, 0, 4]]))
    h2 = MetricTensor(np.array([[1.0, 1, 0], [1, 0, 0], [0, 0, 4]]))
    flag, W = equivalent(tag, h1, h2)
    assert flag
    assert np.max(np.abs(W.T @ h1.entries @ W - h2.entries)) < 1e-7


#: inputs near the Einstein points at c = 0 (forms 1, 8, 9 of c < 1) and
#: nu = c (form 3 of c > 1): the verdict must come back without raising,
#: and within the decision band of nu = c either class is right
_NEAR_EINSTEIN = [
    (FamilyTag("Gc", c), form_id, params, expected)
    for c in (1e-12, -1e-12, 1e-9, -1e-9)
    for form_id, params, expected in (
        ("Gc_lt1.1", {}, ConstantCurvatureClass.FLAT),
        ("Gc_lt1.8", {"mu": 2.0}, ConstantCurvatureClass.NEGATIVE),
        ("Gc_lt1.9", {"mu": 2.0}, ConstantCurvatureClass.NEGATIVE))
] + [
    (FamilyTag("Gc", c), "Gc_gt1.3", {"mu": 1.0, "nu": c - d},
     (ConstantCurvatureClass.POSITIVE, ConstantCurvatureClass.NON_CONSTANT))
    for c, d in ((2.0, 3e-7), (5.0, 5e-7))
]


@pytest.mark.parametrize("tag,form_id,params,expected", [
    (FamilyTag("GI"), "GI.3", {}, ConstantCurvatureClass.FLAT),
    (FamilyTag("GI"), "GI.2", {"mu": 2.0}, ConstantCurvatureClass.POSITIVE),
    (FamilyTag("GI"), "GI.1", {"mu": 0.5}, ConstantCurvatureClass.NEGATIVE),
    (FamilyTag("Gc", 1.0), "G1.1", {"mu": 3.0}, ConstantCurvatureClass.FLAT),
    (FamilyTag("Gc", 0.0), "Gc_lt1.1", {}, ConstantCurvatureClass.FLAT),
    (FamilyTag("Gc", 0.5), "Gc_lt1.7", {"mu": 1.0},
     ConstantCurvatureClass.NEGATIVE),
    (FamilyTag("Gc", 0.5), "Gc_lt1.1", {}, ConstantCurvatureClass.NON_CONSTANT),
    (FamilyTag("Gc", 2.0), "Gc_gt1.2", {"mu": 1.0, "tau": 0.0},
     ConstantCurvatureClass.NON_CONSTANT),
] + _NEAR_EINSTEIN, ids=lambda x: str(getattr(x, "value", x)))
def test_constant_curvature_classification(tag, form_id, params, expected):
    basis = classification_basis(tag)
    h = MetricTensor(canonical_matrix(tag, form_id, params), basis_label=basis)
    cls, cf = constant_curvature_class(tag, h)
    if isinstance(expected, tuple):
        assert cls in expected
    else:
        assert cls == expected
    assert cf.form_id == form_id


def test_gt1_form3_einstein_edge():
    """At nu = c the c > 1 form 3 metric is Einstein (Ric = (2/mu) I, all
    sectional curvatures 1/mu), so it has positive constant curvature."""
    tag = FamilyTag("Gc", 2.0)
    h = MetricTensor(canonical_matrix(tag, "Gc_gt1.3", {"mu": 2.0, "nu": 2.0}))
    cls, cf = constant_curvature_class(tag, h)
    assert cls == ConstantCurvatureClass.POSITIVE
    assert cf.form_id == "Gc_gt1.3"


def test_lt1_forms_8_9_einstein_at_w1():
    """At c = 0 (w = 1) the off-diagonal Ricci entries of forms 8 and 9
    vanish and both are Ric = -(2/mu) I: negative constant curvature."""
    tag = FamilyTag("Gc", 0.0)
    basis = classification_basis(tag)
    for form_id in ("Gc_lt1.8", "Gc_lt1.9"):
        h = MetricTensor(canonical_matrix(tag, form_id, {"mu": 2.0}),
                         basis_label=basis)
        cls, cf = constant_curvature_class(tag, h)
        assert cls == ConstantCurvatureClass.NEGATIVE
        assert cf.form_id == form_id


@pytest.mark.parametrize("tag", ALL_TAGS, ids=lambda t: f"{t.kind}-{t.c}")
def test_no_unexpected_constant_forms(tag):
    constant = {"GI.1", "GI.2", "GI.3", "G1.1", "Gc_lt1.7"}
    for form_id, params, h in _canonical_metrics(tag):
        cls, _ = constant_curvature_class(tag, h)
        if form_id == "Gc_lt1.1":
            expected_constant = tag.c == 0
        elif form_id == "Gc_gt1.3":
            # Einstein exactly at the nu = c edge of the fundamental domain
            expected_constant = params["nu"] == tag.c
        elif form_id in ("Gc_lt1.8", "Gc_lt1.9"):
            # Einstein exactly at w = 1, where the off-diagonal entries die
            expected_constant = tag.c == 0
        else:
            expected_constant = form_id in constant
        assert (cls != ConstantCurvatureClass.NON_CONSTANT) == \
            expected_constant, (form_id, params, cls)
