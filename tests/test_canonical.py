import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lorcurv.canonical
import lorcurv.curvature
from lorcurv import (
    DEFAULT_TOL,
    BasisLabel,
    ConstantCurvatureClass,
    DegenerateMetricError,
    FamilyTag,
    LieAlgebra3,
    MetricTensor,
    ToleranceConfig,
    adapted_basis_vectors,
    automorphism_matrix,
    canonical_form,
    canonical_matrix,
    classification_basis,
    closed_form_report,
    constant_curvature_class,
    curvature_report,
    equivalent,
    from_adapted_basis,
    is_automorphism,
    make_family_algebra,
    orthonormal_frame,
    to_adapted_basis,
    validate_metric,
)
from lorcurv.algebra import automorphism_step, step_matrix
from lorcurv.atlas import form_specs, _param_grid
from tests.conftest import ALL_TAGS, SWEEP_GRID, lapack_calls, rand_automorphism
from tests.test_curvature import _fuzz_metrics, _sweep_cells


def _canonical_metrics(tag):
    basis = classification_basis(tag)
    for spec in form_specs(tag):
        for params in _param_grid(spec, tag, SWEEP_GRID):
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
] + [
    # small mu: the O'Neill classifier's shape path and eigenvalue analysis
    # disagree here, which the verdict must not depend on
    (FamilyTag("Gc", 2.0), "Gc_gt1.3", {"mu": mu, "nu": 2.0 - d},
     (ConstantCurvatureClass.POSITIVE, ConstantCurvatureClass.NON_CONSTANT))
    for mu, d in ((1.33e-4, 3.44e-7), (1.5e-4, 5e-7))
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


def test_g1_degenerate_branch_rejects_vanishing_pivot():
    """G1.6 (mu = 0.5) moved by the adapted automorphism with gamma = 0.006
    has a degenerate plane block with (x1, x1) exactly zero, and reduces
    back to G1.6.  A pivot that vanishes next to a live (x1, x2) entry of
    the same row is a rejection."""
    tag, basis = FamilyTag("Gc", 1.0), BasisLabel.Q_ADAPTED
    h = MetricTensor(np.array([[0.0, 3.6e-5, 0.0], [3.6e-5, 0.0, 0.0],
                               [0.0, 0.0, 0.5]]), basis_label=basis)
    cf = canonical_form(tag, h)
    assert (cf.form_id, cf.params) == ("G1.6", {"mu": pytest.approx(0.5)})
    g16 = MetricTensor(canonical_matrix(tag, "G1.6", {"mu": 0.5}), basis_label=basis)
    assert equivalent(tag, h, g16)[0]
    h = MetricTensor(np.array([[0.0, 1e-5, 1.0], [1e-5, 1.0, 0.0],
                               [1.0, 0.0, 0.5]]), basis_label=basis)
    with pytest.raises(DegenerateMetricError,
                       match="pivot vanishes in degenerate branch"):
        canonical_form(tag, h)


def test_gt1_form3_nu_within_band_of_c_is_clamped():
    """nu a rounding step above c is within the band of c, so its fold
    root is the one kept, and nu comes back as c, the edge of the form's
    domain 1 < nu <= c."""
    tag = FamilyTag("Gc", 2.0)
    h = MetricTensor(np.array([[1.0, 1.0, 0.0], [1.0, 2.00000001, 0.0],
                               [0.0, 0.0, -1.0]]))
    cf = canonical_form(tag, h)
    assert cf.form_id == "Gc_gt1.3"
    assert cf.params == {"mu": 1.0, "nu": 2.0}


@pytest.mark.parametrize("c", [2.0, 5.0])
def test_gt1_form3_nu_band_below_c(c):
    """nu within tol c of c is c from below as from above; nu 1e-6 c below
    c is kept exactly; and automorphism images of each canonical input
    reduce to its nu within 1e-12 c, where the fold and a second rescaling
    step used to leave up to 4e-8 c."""
    tag = FamilyTag("Gc", c)
    rng = np.random.default_rng(7)
    for nu, expected in ((c * (1.0 - 1e-8), c), (c * (1.0 - 1e-6), c * (1.0 - 1e-6))):
        C = canonical_matrix(tag, "Gc_gt1.3", {"mu": 1.0, "nu": nu})
        cf = canonical_form(tag, MetricTensor(C))
        assert cf.form_id == "Gc_gt1.3"
        assert cf.params == {"mu": 1.0, "nu": expected}
        for _ in range(20):
            A = rand_automorphism(tag, rng)
            image = canonical_form(tag, MetricTensor(A.T @ C @ A))
            assert image.form_id == "Gc_gt1.3"
            assert abs(image.params["nu"] - expected) <= 1e-12 * c


@pytest.mark.parametrize("c", [1.0 + 1e-5, 1.0 + 1e-6])
def test_gt1_near_c1_reduces_within_residual(c):
    """Just above c = 1 every fuzz metric reduces: one fold automorphism,
    chosen in the canonical domain, leaves A^T h A within the residual band
    of its form, where a fold followed by a rescaling, each of plane-block
    determinant about c - 1, missed it on 88 of 300 at c = 1 + 1e-6."""
    tag = FamilyTag("Gc", c)
    for _, h in _fuzz_metrics(c):
        try:
            canonical_form(tag, h)
        except DegenerateMetricError as exc:
            assert "reduction residual" not in str(exc), exc


@pytest.mark.parametrize("c", [1.0 + 1e-5, 1.0 + 1e-6])
def test_gt1_near_c1_images_are_equivalent(c):
    """Each fuzz metric is equivalent to an automorphism image of itself
    just above c = 1 (at c = 1 + 1e-5 the reducer used to call 64 of
    these 300 pairs inequivalent and reject 21)."""
    tag = FamilyTag("Gc", c)
    rng = np.random.default_rng(3)
    for _, h in _fuzz_metrics(c):
        A = rand_automorphism(tag, rng)
        assert equivalent(tag, h, MetricTensor(A.T @ h.entries @ A))[0]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: is_automorphism's det band "
                   "refuses exact witnesses near c = 1")
def test_gt1_near_c1_witnesses_are_automorphisms():
    """Every reduction witness is a product of automorphism steps, so
    is_automorphism must accept it.  Just above c = 1 it refuses 8 of the
    300 fuzz witnesses: their plane block beta I + alpha K has det about
    beta^2 + (c - 1) alpha^2 with |alpha| >> |beta|, under its det band
    classification_tol times the product of the column maxima."""
    c = 1.0 + 1e-6
    tag = FamilyTag("Gc", c)
    alg = make_family_algebra(tag)
    for _, h in _fuzz_metrics(c):
        assert is_automorphism(alg, canonical_form(tag, h).witness)


@pytest.mark.parametrize("c", [1e5, 1e6])
def test_gt1_fold_at_large_c(c):
    """At large c the small fold root cancels in (-b +- sqrt(disc)) / 2a,
    and the folded entries h11, h12 then differ by more than their band:
    the textbook formula failed to fold 7 of these 100 fuzz metrics at
    c = 1e5 and 89 at c = 1e6.  Taken without cancellation, every one
    reduces, by an automorphism."""
    tag = FamilyTag("Gc", c)
    for alg, h in _fuzz_metrics(c, count=100, seed=1):
        cf = canonical_form(tag, h)
        assert cf.form_id.startswith("Gc_gt1."), cf.form_id
        assert is_automorphism(alg, cf.witness)


@pytest.mark.parametrize("c", [1.0 - 1e-6, 1.0 - 1e-7])
def test_lt1_near_c1_signature_is_read_in_the_given_basis(c):
    """Just below c = 1 the P-adapted basis has condition about 1 / w,
    w = sqrt(1 - c).  The signature is decided on the metric as given, so
    a metric validate_metric accepts is never refused as a degenerate
    form: deciding it on the adapted copy refused 23 of these 300 at
    c = 1 - 1e-6 and 228 at c = 1 - 1e-7.  Every other refusal is a
    DegenerateMetricError, and every form returned agrees with
    curvature_report on the closed-form type and rho."""
    tag = FamilyTag("Gc", c)
    for alg, h in _fuzz_metrics(c):
        assert validate_metric(h).accepted
        try:
            cf = canonical_form(tag, h)
        except DegenerateMetricError as exc:
            assert not str(exc).startswith("degenerate form"), exc
            continue
        rep = curvature_report(alg, h)
        closed = closed_form_report(tag, cf.form_id, cf.params)
        assert rep.oneill.type_tag == closed.oneill_type, cf.form_id
        assert abs(rep.scalar - closed.rho) <= 1e-6 * abs(closed.rho), cf.form_id


def test_constant_curvature_checks_its_frame():
    """At classification_tol = 1e-16 the README metric's frame misses its
    Gram band by rounding (residual 1.7e-16).  constant_curvature_class
    builds its frame where curvature_report does, so both reject it,
    where the class used to be decided on the unchecked frame."""
    tag = FamilyTag("Gc", 2.0)
    h = MetricTensor(np.array([[-1.0, -1.0, 0.0], [-1.0, 0.0, 0.0],
                               [0.0, 0.0, 4.0]]))
    tight = ToleranceConfig(classification_tol=1e-16)
    for decide in (lambda: constant_curvature_class(tag, h, tight),
                   lambda: curvature_report(make_family_algebra(tag), h,
                                            tol=tight)):
        with pytest.raises(ValueError, match="frame is not h-orthonormal"):
            decide()
    assert constant_curvature_class(tag, h)[0] == ConstantCurvatureClass.NON_CONSTANT


@pytest.mark.parametrize("tag", ALL_TAGS, ids=lambda t: f"{t.kind}-{t.c}")
@pytest.mark.parametrize("signs", [(1, 1, 1), (1, -1, -1), (-1, -1, -1)],
                         ids=["riemannian", "two-negative", "negative"])
def test_signature_test_rejects_non_lorentzian_reductions(tag, signs,
                                                          monkeypatch):
    """With the input check switched off, the one signature test on the
    canonical matrix must still refuse every non-Lorentzian metric: no
    answer, and no exception other than DegenerateMetricError."""
    monkeypatch.setattr(lorcurv.canonical, "_signature",
                        lambda ev, tol: ((2, 0, 1), None))
    basis = classification_basis(tag)
    rng = np.random.default_rng([ALL_TAGS.index(tag), signs.count(-1)])
    S = np.diag(np.asarray(signs, dtype=float))
    for _ in range(200):
        Q = rng.normal(size=(3, 3))
        with pytest.raises(DegenerateMetricError):
            canonical_form(tag, MetricTensor(Q.T @ S @ Q, basis_label=basis))


_GI_SWAP = automorphism_matrix(FamilyTag("GI"), block=[[0.0, 1.0], [1.0, 0.0]])


@pytest.mark.parametrize("h,form_id,params", [
    # timelike direction on x1: swapped onto x2 after the translation step
    (np.diag([-1.0, 1.0, 3.0]), "GI.1", {"mu": 3.0}),
    # null vector of the plane block on x1: swapped onto x2 before the
    # degenerate branch
    (_GI_SWAP.T @ canonical_matrix(FamilyTag("GI"), "GI.3", {}) @ _GI_SWAP,
     "GI.3", {}),
], ids=["GI.1", "GI.3"])
def test_gi_swap_branches(h, form_id, params):
    tag = FamilyTag("GI")
    h = MetricTensor(h)
    cf = canonical_form(tag, h)
    assert cf.form_id == form_id
    assert cf.params == pytest.approx(params, rel=1e-12)
    W = cf.witness
    res = np.max(np.abs(W.T @ h.entries @ W - cf.canonical_matrix))
    assert res < 1e-12 * (1 + np.abs(cf.canonical_matrix).max())
    assert is_automorphism(make_family_algebra(tag), W)


@pytest.mark.parametrize("c", [1.0, 0.75, 0.0, -3.0])
def test_natural_basis_images_are_equivalent(c, rng):
    """For c <= 1 the reduction runs in the adapted basis; equivalent maps
    its witness back to the natural basis.  Every canonical metric, given
    in the natural basis, is equivalent to its images under random
    automorphisms, with a natural-basis automorphism as witness.  The
    forms include both null vectors of a rank-one plane block (x1 for
    G1.1 and Gc_lt1.1, x2 for G1.2 and Gc_lt1.2)."""
    tag = FamilyTag("Gc", c)
    U = adapted_basis_vectors(tag)
    alg = make_family_algebra(tag)
    forms = set()
    for form_id, _, h_ad in _canonical_metrics(tag):
        h = from_adapted_basis(tag, h_ad)
        for _ in range(3):
            A = U @ rand_automorphism(tag, rng) @ np.linalg.inv(U)
            h2 = MetricTensor(A.T @ h.entries @ A)
            flag, W = equivalent(tag, h, h2)
            assert flag, (form_id, c)
            res = np.max(np.abs(W.T @ h.entries @ W - h2.entries))
            assert res < 1e-7 * (1 + np.abs(h2.entries).max())
            assert is_automorphism(alg, W)
        forms.add(form_id)
    null_forms = {"G1.1", "G1.2"} if c == 1 else {"Gc_lt1.1", "Gc_lt1.2"}
    assert null_forms <= forms


@pytest.mark.parametrize("c", [1.01, 1.001, 1.0001])
def test_constant_curvature_near_c1_raises_only_rejections(c):
    """Near c = 1 the canonical representative is correctly signed but
    nearly singular.  The verdict is built from the input metric, so a
    fuzz metric gets a class or a DegenerateMetricError, never another
    exception."""
    tag = FamilyTag("Gc", c)
    for _, h in _fuzz_metrics(c):
        try:
            cls, _ = constant_curvature_class(tag, h)
        except DegenerateMetricError:
            continue
        assert isinstance(cls, ConstantCurvatureClass)


# --------------------------------------------------------------------------
# the work of one reduction

def test_canonical_form_lapack_budget(monkeypatch):
    """A reduction makes one decomposition, the input's stored one by the
    package's eigensolver, and no LAPACK call, whatever its steps: the
    strict test of the canonical matrix is closed form, the signature check
    reads nothing else, and the GI block builder tests invertibility
    without a determinant call.  A verdict of equivalence adds no LAPACK
    call (the witness is inverted, and its determinant taken by the
    automorphism check, in closed form), and reduces only the metric not
    reduced before: h1's form is stored on h1."""
    budget = {"jacobi": 1}
    tag = FamilyTag("Gc", 2.0)
    h = MetricTensor(np.array([[-1.0, -1, 0], [-1, 0, 0], [0, 0, 4]]))
    cf, calls = lapack_calls(monkeypatch, lambda: canonical_form(tag, h))
    assert cf.form_id == "Gc_gt1.2"
    assert calls == budget

    tag = FamilyTag("GI")
    C = canonical_matrix(tag, "GI.1", {"mu": 1.0})
    A = automorphism_matrix(tag, block=[[1.0, 2.0], [-0.5, 3.0]],
                            translation=(0.3, -0.2))
    B = automorphism_matrix(tag, block=[[0.0, -2.0], [1.5, 0.5]],
                            translation=(-1.0, 0.4))
    h1, h2 = MetricTensor(A.T @ C @ A), MetricTensor(B.T @ C @ B)
    cf, calls = lapack_calls(monkeypatch, lambda: canonical_form(tag, h1))
    assert cf.form_id == "GI.1"
    assert calls == budget
    (flag, _), calls = lapack_calls(monkeypatch, lambda: equivalent(tag, h1, h2))
    assert flag
    assert calls == {"jacobi": 1}
    # on fresh metrics, both are reduced
    h1, h2 = MetricTensor(h1.entries), MetricTensor(h2.entries)
    (flag, _), calls = lapack_calls(monkeypatch, lambda: equivalent(tag, h1, h2))
    assert flag
    assert calls == {"jacobi": 2}


@pytest.mark.parametrize("c", [0.75, 1.0])
def test_natural_basis_equivalent_lapack_budget(c, monkeypatch):
    """Natural-basis input for c <= 1 has its signature read from its own
    decomposition, then moves to the adapted basis, whose copy is not decomposed;
    the witness is inverted in closed form and moves back with the
    closed-form blocks of adapted_basis_vectors and adapted_transition,
    and the automorphism check takes its determinant in closed form: no
    inverse and no det.  h is reduced once, by the first call."""
    tag = FamilyTag("Gc", c)
    form_id, params = ("G1.3", {"nu": 2.0, "mu": 1.0}) if c == 1 \
        else ("Gc_lt1.5", {"mu": 2.0})
    h_ad = MetricTensor(canonical_matrix(tag, form_id, params),
                        basis_label=classification_basis(tag))
    h = from_adapted_basis(tag, h_ad)
    A = automorphism_matrix(tag, alpha=0.7, beta=1.3, translation=(0.4, -0.6))
    h2 = MetricTensor(A.T @ h.entries @ A)
    cf, calls = lapack_calls(monkeypatch, lambda: canonical_form(tag, h))
    assert cf.form_id == form_id
    assert calls == {"jacobi": 1}
    (flag, W), calls = lapack_calls(monkeypatch, lambda: equivalent(tag, h, h2))
    assert flag
    assert calls == {"jacobi": 1}
    assert is_automorphism(make_family_algebra(tag), W)
    h, h2 = MetricTensor(h.entries), MetricTensor(h2.entries)
    (flag, _), calls = lapack_calls(monkeypatch, lambda: equivalent(tag, h, h2))
    assert flag
    assert calls == {"jacobi": 2}


def test_custom_basis_is_refused():
    """Only the natural basis and the family's classification basis can be
    reduced; equivalent refuses a custom basis through canonical_form."""
    tag = FamilyTag("Gc", 2.0)
    h = MetricTensor(canonical_matrix(tag, "Gc_gt1.2", {"mu": 1.0, "tau": 0.5}),
                     basis_label=BasisLabel.CUSTOM)
    with pytest.raises(ValueError, match="not usable"):
        canonical_form(tag, h)
    with pytest.raises(ValueError, match="not usable"):
        equivalent(tag, h, h)


def _eigvalsh_lorentzian(C):
    ev = np.linalg.eigvalsh(C)
    return bool(ev[0] < 0.0 < ev[1])


def test_strict_signature_test_matches_eigvalsh(rng):
    """The closed-form strict test of the canonical matrix (det < 0 and not
    negative definite) gives the eigvalsh sign pattern's verdict on every
    canonical matrix of the sweep and on random symmetric matrices of
    every signature."""
    strict = lorcurv.canonical._strictly_lorentzian
    for tag in ALL_TAGS:
        for form_id, params, h in _canonical_metrics(tag):
            assert strict(h.entries), (tag, form_id, params)
            assert _eigvalsh_lorentzian(h.entries)
    verdicts = set()
    for signs in [(1, 1, -1), (1, 1, 1), (1, -1, -1), (-1, -1, -1)]:
        for _ in range(500):
            Q = rng.normal(size=(3, 3))
            lam = np.asarray(signs) * rng.uniform(0.1, 3.0, size=3)
            for C in (Q.T @ np.diag(lam) @ Q, Q + Q.T):
                verdict = strict(C)
                assert verdict == _eigvalsh_lorentzian(C), C
                verdicts.add(verdict)
    assert verdicts == {True, False}


#: one family of each reducer, in its classification basis
_REDUCER_TAGS = [FamilyTag("GI"), FamilyTag("Gc", 2.0), FamilyTag("Gc", 1.0),
                 FamilyTag("Gc", 0.75)]
_entry = st.floats(-3.0, 3.0)
#: a metric entry anywhere from 2^-500 to 2^500 in size, or zero
_wide_entry = st.builds(math.ldexp, _entry, st.integers(-500, 500))


def _step(red, tag, kind, x):
    """Apply to red an automorphism of tag's classification basis made
    from five numbers: kind 0 is a (P, t) step from the family's own
    builder, kind 1 the reducer's shared scale-and-translate step.
    Whether the numbers gave an automorphism."""
    p, q, r, s, t = x
    if kind == 1:
        if p:
            red.scale_translate(p, (q, r))
        return bool(p)
    key = tag.family_key()
    try:
        if key == "GI":
            step = automorphism_step(tag, block=((p, q), (r, s)), translation=(t, p))
        elif key == "Gc_gt1":
            step = automorphism_step(tag, alpha=p, beta=q, translation=(r, s))
        else:
            step = automorphism_step(tag, gamma=p, delta=q, translation=(r, s))
    except ValueError:
        return False
    red.apply(step)
    return True


#: the held rows and numpy's A^T h0 A sum the same terms in different
#: orders, so they may differ by rounding in the size of those terms,
#: (|A|^T |h0| |A|)_ij, and not in the entry's unit u_i u_j: when the
#: terms cancel, that unit is much smaller than they are.  Measured worst
#: 1.8 ulps of the terms over 5,000 examples.  Where products underflow,
#: a partial sum may be off by a few subnormal spacings in either
#: computation, and the next factor, an entry of a column of A,
#: multiplies that error
_HELD_ULPS = 4
_UNDERFLOW = 18 * np.finfo(float).smallest_subnormal


@settings(max_examples=200, deadline=None)
@given(family=st.sampled_from(_REDUCER_TAGS),
       h=st.lists(_wide_entry, min_size=6, max_size=6),
       steps=st.lists(st.tuples(st.sampled_from([0, 1]),
                                st.lists(_entry, min_size=5, max_size=5)),
                      max_size=6))
def test_reducer_band_follows_every_step(family, h, steps):
    """The reducer holds C = A^T h0 A as rows, recomputed after every
    step.  After every step, is_zero and plane_degenerate follow the one
    unit rule on the held rows exactly: with u_i = sqrt(max_k |C_ik|)
    (1 for a row of zeros), |C_ij| / (u_i u_j) <= tol, and for the plane block the determinant of
    those quotients, |x_00 x_11 - x_01^2| <= tol.  The held rows match
    numpy's A^T h0 A of the accumulated step within _HELD_ULPS ulps of the
    summed terms.  The entries of h0 span 2^-500 to 2^500, so the rule is
    checked where a product of two row maxima would leave the float
    range."""
    h0 = np.array([[h[0], h[1], h[2]], [h[1], h[3], h[4]], [h[2], h[4], h[5]]])
    red = lorcurv.canonical._Reducer(tuple(map(tuple, h0.tolist())), DEFAULT_TOL)
    tol = DEFAULT_TOL.classification_tol

    def check():
        held = np.array(red.C)
        assert (held == held.T).all()
        u = np.sqrt(np.abs(held).max(axis=1))
        u[u == 0.0] = 1.0       # a row of zeros: its entries stay zero
        x = held / np.outer(u, u)
        for i, j in itertools.combinations_with_replacement(range(3), 2):
            assert red.is_zero(i, j) == (abs(x[i, j]) <= tol)
        assert red.plane_degenerate() == (abs(x[0, 0] * x[1, 1] - x[0, 1] * x[0, 1]) <= tol)
        A = np.array(step_matrix(red.step))
        terms = np.abs(A).T @ np.abs(h0) @ np.abs(A)
        cols = 1.0 + np.abs(A).sum(axis=0)
        bound = _HELD_ULPS * np.spacing(terms) + _UNDERFLOW * np.outer(cols, cols)
        assert (np.abs(held - A.T @ h0 @ A) <= bound).all()

    check()
    for kind, x in steps:
        if _step(red, family, kind, x):
            check()


def test_reducer_composes_steps():
    """The accumulated step of two steps is their matrix product [[P Q,
    P s + t], [0, 1]], and C is A^T h0 A for it; small integers keep every
    side exact."""
    tag = FamilyTag("GI")
    first = automorphism_step(tag, block=((2.0, -1.0), (3.0, 1.0)), translation=(1.0, -2.0))
    second = automorphism_step(tag, block=((0.0, 4.0), (-1.0, 2.0)), translation=(3.0, 5.0))
    h0 = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, -1.0))
    red = lorcurv.canonical._Reducer(h0, DEFAULT_TOL)
    red.apply(first)
    red.apply(second)
    A = np.array(step_matrix(first)) @ step_matrix(second)
    assert np.array_equal(step_matrix(red.step), A)
    assert np.array_equal(red.C, A.T @ np.array(h0) @ A)


def test_residual_reads_the_witness(monkeypatch):
    """The reduction residual A^T h0 A - C is formed from the witness
    returned, not from the rows the steps held: a step that leaves a wrong
    C_22 behind changes the parameter read from it, and the reduction is
    rejected."""
    tag = FamilyTag("Gc", 2.0)
    C = canonical_matrix(tag, "Gc_gt1.2", {"mu": 1.0, "tau": 0.5})
    A = automorphism_matrix(tag, alpha=0.3, beta=1.1, translation=(0.4, -0.2))
    h = MetricTensor(A.T @ C @ A)
    assert canonical_form(tag, MetricTensor(h.entries)).form_id == "Gc_gt1.2"
    apply = lorcurv.canonical._Reducer.apply

    def perturbed(red, step):
        apply(red, step)
        r0, r1, (b1, b2, g) = red.C
        red.C = r0, r1, (b1, b2, 1.5 * g)

    monkeypatch.setattr(lorcurv.canonical._Reducer, "apply", perturbed)
    with pytest.raises(DegenerateMetricError, match="^reduction residual"):
        canonical_form(tag, h)


# --------------------------------------------------------------------------
# what is derived from a metric is stored on it

_README = np.array([[-1.0, -1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 4.0]])


def test_survey_builds_one_frame_and_one_connection(monkeypatch):
    """curvature_report and then constant_curvature_class on one metric
    make one decomposition and one levi_civita: the class reads the
    connection the report built, and its reduction the decomposition the
    frame was built from.  No LAPACK call is made."""
    tag = FamilyTag("Gc", 2.0)
    h = MetricTensor(_README)
    built = []
    levi_civita = lorcurv.curvature.levi_civita
    monkeypatch.setattr(lorcurv.curvature, "levi_civita",
                        lambda *args: built.append(args) or levi_civita(*args))

    def survey():
        report = curvature_report(make_family_algebra(tag), h)
        return report, constant_curvature_class(tag, h)

    (report, (cls, cf)), calls = lapack_calls(monkeypatch, survey)
    assert calls == {"jacobi": 1}
    assert len(built) == 1
    assert cls == ConstantCurvatureClass.NON_CONSTANT
    assert cf.form_id == "Gc_gt1.2"


@pytest.mark.parametrize("c,basis,form_id,params", [
    (2.0, BasisLabel.NATURAL, "Gc_gt1.2", {"mu": 1.0, "tau": 0.5}),
    (0.75, BasisLabel.P_ADAPTED, "Gc_lt1.5", {"mu": 2.0}),
    (0.75, BasisLabel.NATURAL, "Gc_lt1.5", {"mu": 2.0}),
], ids=["c2-natural", "c0.75-adapted", "c0.75-natural"])
def test_each_metric_is_decomposed_once(c, basis, form_id, params, monkeypatch):
    """validate_metric, orthonormal_frame, canonical_form,
    constant_curvature_class and curvature_report on one fresh metric make
    one decomposition between them and no LAPACK call: the signature
    check, the frame and the reduction read the decomposition stored on the
    metric, and the adapted-basis copy of natural-basis input is never
    decomposed."""
    tag = FamilyTag("Gc", c)
    target = classification_basis(tag)
    A = rand_automorphism(tag, np.random.default_rng(0))
    h = MetricTensor(A.T @ canonical_matrix(tag, form_id, params) @ A,
                     basis_label=target)
    if basis != target:
        h = from_adapted_basis(tag, h)

    def analyse():
        assert validate_metric(h).accepted
        orthonormal_frame(h)
        cf = canonical_form(tag, h)
        constant_curvature_class(tag, h)
        curvature_report(make_family_algebra(tag, basis), h)
        return cf

    cf, calls = lapack_calls(monkeypatch, analyse)
    assert cf.form_id == form_id
    assert calls == {"jacobi": 1}, calls


def test_algebras_compare_by_identity():
    """LieAlgebra3 compares and hashes by identity, so an algebra keys the
    connection stored on a metric: a second algebra with equal constants
    gets its own connection.  make_family_algebra returns one object per
    (tag, basis), however the basis is passed."""
    tag = FamilyTag("Gc", 2.0)
    alg = make_family_algebra(tag)
    assert make_family_algebra(tag, BasisLabel.NATURAL) is alg
    twin = LieAlgebra3(alg.structure_constants.copy())
    assert (alg == twin) is False
    assert (alg == alg) is True
    assert hash(alg) != hash(twin)
    h = MetricTensor(_README)
    conn = curvature_report(alg, h).connection
    assert curvature_report(alg, h).connection is conn
    other = curvature_report(twin, h).connection
    assert other is not conn
    assert np.array_equal(other.curvature, conn.curvature)


def test_canonical_form_returns_its_own_params():
    """Each call returns a new CanonicalForm and params dict; the stored
    matrix and witness are read-only, so no caller can change the next
    answer on the same metric."""
    tag = FamilyTag("Gc", 2.0)
    h = MetricTensor(_README)
    cf = canonical_form(tag, h)
    cf.params["mu"] = -1.0
    cf.params["extra"] = 0.0
    again = canonical_form(tag, h)
    assert again is not cf
    assert again.params == {"mu": 4.0, "tau": 0.0}
    for array in (again.canonical_matrix, again.witness):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 0.0


def test_rejections_are_not_stored():
    """A DegenerateMetricError is raised again by a repeat call on the same
    metric, before and after a call at another tol."""
    tag = FamilyTag("GI")
    h = MetricTensor(np.diag([1.0, 1e-8, -1.0]))
    loose = ToleranceConfig(classification_tol=1e-9)
    want = canonical_form(tag, MetricTensor(h.entries), loose)
    for _ in range(2):
        with pytest.raises(DegenerateMetricError, match="degenerate form"):
            canonical_form(tag, h)
        assert canonical_form(tag, h, loose).params == want.params


def test_stored_answers_match_fresh_metrics(rng):
    """On one automorphism image of every sweep cell, the answers read
    through the metric's stored frame, connection and canonical form, in
    the order a survey and an orbits op ask for them, equal bit for bit
    those of a fresh metric per call."""
    count = 0
    for tag, form_id, params, alg, h in _sweep_cells(rng):
        def fresh():
            return MetricTensor(h.entries, basis_label=h.basis_label)

        report = curvature_report(alg, h)
        cls, cf = constant_curvature_class(tag, h)
        cf2 = canonical_form(tag, h)
        flag, _ = equivalent(tag, h, h)
        assert flag
        assert cf.form_id == cf2.form_id == form_id
        assert cf.params == cf2.params
        want_report = curvature_report(alg, fresh())
        want_cls, want_cf = constant_curvature_class(tag, fresh())
        assert report.oneill.type_tag == want_report.oneill.type_tag
        assert np.array_equal(report.ricci_op, want_report.ricci_op)
        assert cls == want_cls
        assert (cf2.form_id, cf2.params) == (want_cf.form_id, want_cf.params)
        assert np.array_equal(cf2.witness, want_cf.witness)
        count += 1
    assert count == 335
