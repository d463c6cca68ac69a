import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lorcurv.canonical
from lorcurv import (
    DEFAULT_TOL,
    BasisLabel,
    ConstantCurvatureClass,
    DegenerateMetricError,
    FamilyTag,
    MetricTensor,
    adapted_automorphism,
    adapted_basis_vectors,
    automorphism_matrix,
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
from lorcurv.atlas import form_specs, _param_grid
from tests.conftest import ALL_TAGS, SWEEP_GRID, lapack_calls, rand_automorphism
from tests.test_curvature import _fuzz_metrics


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
    """nu a rounding step above c takes no fold; it comes back as c, the
    edge of the form's domain 1 < nu <= c."""
    tag = FamilyTag("Gc", 2.0)
    h = MetricTensor(np.array([[1.0, 1.0, 0.0], [1.0, 2.00000001, 0.0],
                               [0.0, 0.0, -1.0]]))
    cf = canonical_form(tag, h)
    assert cf.form_id == "Gc_gt1.3"
    assert cf.params == {"mu": 1.0, "nu": 2.0}


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
    """A reduction makes one eigvalsh, the signature check's, whatever its
    steps: the strict test of the canonical matrix is closed form, the
    signature check reads nothing else, and the GI block builder tests
    invertibility without a determinant call.  A verdict of equivalence
    adds the witness's inverse and the automorphism check's det."""
    budget = {"eigvalsh": 1}
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
    assert calls == {"eigvalsh": 2, "det": 1, "inv": 1}


@pytest.mark.parametrize("c", [0.75, 1.0])
def test_natural_basis_equivalent_lapack_budget(c, monkeypatch):
    """Natural-basis input for c <= 1 moves to the adapted basis and the
    witness moves back with the closed-form adapted_basis_vectors and
    adapted_transition: no inverse beyond the witness's."""
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
    assert calls == {"eigvalsh": 1}
    (flag, W), calls = lapack_calls(monkeypatch, lambda: equivalent(tag, h, h2))
    assert flag
    assert calls == {"eigvalsh": 2, "det": 1, "inv": 1}
    assert is_automorphism(make_family_algebra(tag), W)


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


def _step(tag, kind, x):
    """An automorphism of tag's classification basis from five numbers:
    kind 0 is the family's own builder, kind 1 the reducer's shared
    scale-and-translate step.  None where the numbers give no
    automorphism."""
    p, q, r, s, t = x
    try:
        if kind == 1:
            return lorcurv.canonical._Reducer.scale_translate(p, (q, r)) if p else None
        key = tag.family_key()
        if key == "GI":
            return automorphism_matrix(tag, block=[[p, q], [r, s]], translation=(t, p))
        if key == "Gc_gt1":
            return automorphism_matrix(tag, alpha=p, beta=q, translation=(r, s))
        return adapted_automorphism(tag, p, q, translation=(r, s))
    except ValueError:
        return None


@settings(max_examples=200, deadline=None)
@given(family=st.sampled_from(_REDUCER_TAGS),
       h=st.lists(_entry, min_size=6, max_size=6),
       steps=st.lists(st.tuples(st.sampled_from([0, 1]),
                                st.lists(_entry, min_size=5, max_size=5)),
                      max_size=6))
def test_reducer_band_follows_every_step(family, h, steps):
    """is_zero and plane_degenerate read row maxima d_i = max_k |cur_ik|
    that the reducer stores once per step; after every apply they must
    follow the rule recomputed from A^T h0 A: |cur_ij| <= tol sqrt(d_i d_j)
    and |det of the plane block| <= tol d_0 d_1."""
    h0 = np.array([[h[0], h[1], h[2]], [h[1], h[3], h[4]], [h[2], h[4], h[5]]])
    red = lorcurv.canonical._Reducer(h0, DEFAULT_TOL)
    tol = DEFAULT_TOL.classification_tol

    def check():
        cur = red.A.T @ h0 @ red.A
        d = np.abs(cur).max(axis=1)
        assert np.array_equal(red.cur, cur)
        assert red.d == d.tolist()
        for i, j in itertools.combinations_with_replacement(range(3), 2):
            assert red.is_zero(i, j) == (abs(cur[i, j]) <= tol * np.sqrt(d[i] * d[j]))
        assert red.band(cur[0, 0], cur[0, 1]) == tol * max(abs(cur[0, 0]),
                                                           abs(cur[0, 1]))
        p = cur[0, 0] * cur[1, 1] - cur[0, 1] ** 2
        assert red.plane_degenerate() == (abs(p) <= tol * d[0] * d[1])

    check()
    for kind, x in steps:
        B = _step(family, kind, x)
        if B is not None:
            red.apply(B)
            check()
