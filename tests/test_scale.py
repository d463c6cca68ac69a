"""Discrete answers do not depend on units: the form id, the O'Neill type,
the constant-curvature class and the equivalence verdict of lambda h are
those of h, for lambda across twelve orders of magnitude, and for exact
powers of two out to 2^+-1000."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorcurv import (
    DEFAULT_TOL,
    ConstantCurvatureClass,
    DegenerateMetricError,
    FamilyTag,
    MetricTensor,
    automorphism_matrix,
    canonical_form,
    canonical_matrix,
    classification_basis,
    constant_curvature_class,
    curvature_report,
    equivalent,
    form_specs,
    make_family_algebra,
)
from lorcurv.atlas import _param_grid
from tests.conftest import SWEEP_GRID, rand_automorphism
from tests.test_curvature import _fuzz_metrics

#: GI and the c-line from far below c = 1 to far above it
_SCALE_TAGS = [FamilyTag("GI"), FamilyTag("Gc", 50.0), FamilyTag("Gc", 1e4),
               FamilyTag("Gc", -100.0), FamilyTag("Gc", 2.0),
               FamilyTag("Gc", 0.75), FamilyTag("Gc", 1.0)]
_CELLS = [(tag, spec.form_id, params) for tag in _SCALE_TAGS
          for spec in form_specs(tag)
          for params in _param_grid(spec, tag, SWEEP_GRID)]


def _automorphism(tag, rng):
    """rand_automorphism, but for c > 1 with alpha in units of
    1/sqrt(c - 1): the plane block beta I + alpha K is beta + alpha
    sqrt(c - 1) i for the complex structure K / sqrt(c - 1), so the angle
    it turns by does not shrink as c grows."""
    if tag.kind == "GI" or tag.c <= 1:
        return rand_automorphism(tag, rng)
    while True:
        a, b = rng.normal(size=2)
        if a * a + b * b > 0.1:
            return automorphism_matrix(tag, alpha=a / np.sqrt(tag.c - 1.0), beta=b,
                                       translation=rng.normal(size=2))


def _answers(tag, h):
    alg = make_family_algebra(tag, h.basis_label)
    return (canonical_form(tag, h).form_id,
            curvature_report(alg, h).oneill.type_tag,
            constant_curvature_class(tag, h)[0])


@settings(max_examples=150, deadline=None)
@given(cell=st.sampled_from(_CELLS), seed=st.integers(0, 2 ** 32 - 1),
       log_lam=st.floats(-6.0, 6.0))
def test_answers_are_scale_free(cell, seed, log_lam):
    """An automorphism image h of a canonical cell C: lambda h keeps the
    form id, type and class of h, is equivalent to lambda C, and is not
    equivalent to lambda C with mu moved by one part in a thousand.  An
    image whose eigenvalues lie further apart than 1 / classification_tol
    (at c = 1e4, K is far from orthogonal and about half the images are)
    is degenerate at that tolerance, and so is lambda h."""
    tag, form_id, params = cell
    basis = classification_basis(tag)
    A = _automorphism(tag, np.random.default_rng(seed))
    C = canonical_matrix(tag, form_id, params)
    h = MetricTensor(A.T @ C @ A, basis_label=basis)
    lam = 10.0 ** log_lam
    scaled = MetricTensor(lam * h.entries, basis_label=basis)
    ev = np.abs(np.linalg.eigvalsh(h.entries))
    if ev.min() <= DEFAULT_TOL.classification_tol * ev.max():
        for g in (h, scaled):
            with pytest.raises(DegenerateMetricError, match="degenerate form"):
                canonical_form(tag, g)
        return
    assert _answers(tag, scaled) == _answers(tag, h)
    assert equivalent(tag, scaled, MetricTensor(lam * C, basis_label=basis))[0]
    if "mu" in params:
        moved = canonical_matrix(tag, form_id, {**params, "mu": params["mu"] * 1.001})
        assert not equivalent(tag, scaled,
                              MetricTensor(lam * moved, basis_label=basis))[0]


_README = (FamilyTag("Gc", 2.0), [[-1.0, -1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 4.0]])
_GI1_MU2 = (FamilyTag("GI"), [[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 2.0]])


@pytest.mark.parametrize("tag,metric", [_README, _GI1_MU2], ids=["readme", "GI.1"])
def test_large_metric_is_not_flat(tag, metric):
    """Curvature scales as 1/lambda, so at lambda = 1e7 it is small but
    not zero relative to the frame brackets."""
    h = MetricTensor(1e7 * np.array(metric))
    assert constant_curvature_class(tag, h)[0] != ConstantCurvatureClass.FLAT


def test_small_metrics_with_distinct_mu_are_not_equivalent():
    """GI.1 with mu = 1 and mu = 1.0005, both scaled by 1e-4: mu differs by
    5e-4 of itself, far outside the relative band."""
    tag = FamilyTag("GI")
    h1 = MetricTensor(1e-4 * np.diag([1.0, -1.0, 1.0]))
    h2 = MetricTensor(1e-4 * np.diag([1.0, -1.0, 1.0005]))
    assert not equivalent(tag, h1, h2)[0]


@pytest.mark.parametrize("c", [1.0 - 1e-6, 1.0 + 1e-6, 1.0 + 1e-5])
def test_near_c1_reduction_outcome_is_scale_free(c):
    """On the 300 fuzz metrics, canonical_form of lambda h gives the same
    form id, or the same rejection, at lambda = 1e-4, 1 and 1e4.  Above
    c = 1 the reducer applies one automorphism, the fold root that lands
    in the canonical domain; a fold followed by a rescaling, each with
    plane-block determinant about c - 1, amplified rounding about
    1 / (c - 1)-fold and moved 10 outcomes at c = 1 + 1e-6 and 21 at
    c = 1 + 1e-5."""
    tag = FamilyTag("Gc", c)
    moved = []
    for i, (_, h) in enumerate(_fuzz_metrics(c)):
        outcomes = []
        for lam in (1e-4, 1.0, 1e4):
            try:
                cf = canonical_form(tag, MetricTensor(lam * h.entries))
                outcomes.append(cf.form_id)
            except DegenerateMetricError:
                outcomes.append("rejected")
        if len(set(outcomes)) > 1:
            moved.append((i, outcomes))
    assert moved == []


_GI1_IMAGE = (FamilyTag("GI"), [[2.0, 1.0, 0.5], [1.0, -0.5, 0.25], [0.5, 0.25, 1.5]])
#: lambda = 2^k beyond the range where a product of two entries of lambda h
#: is a float; 2^k is exact, so lambda h is exactly lambda times h
_EXPONENTS = [-1000, -520, 520, 1000]


@pytest.mark.parametrize("k", _EXPONENTS)
@pytest.mark.parametrize("tag,metric", [_README, _GI1_IMAGE], ids=["readme", "GI.1"])
def test_exact_scalings_reduce_as_at_one(tag, metric, k):
    """The reducer decides every entry as C_ij / (u_i u_j) and solves on
    entries scaled by one power of two, so at lambda = 2^k the form and
    the constant-curvature class are lambda = 1's, mu is exactly lambda
    mu_1 and tau is unchanged."""
    lam = 2.0 ** k
    cls1, cf1 = constant_curvature_class(tag, MetricTensor(metric))
    cls, cf = constant_curvature_class(tag, MetricTensor([[lam * x for x in row]
                                                          for row in metric]))
    assert (cf.form_id, cls) == (cf1.form_id, cls1)
    assert cf.params == {n: lam * v if n == "mu" else v for n, v in cf1.params.items()}
    assert canonical_form(tag, MetricTensor(lam * np.array(metric))).params == cf.params


@pytest.mark.parametrize("c", [None, 2.0, 0.75, 1.0, -3.0, 1e4, 1.0 + 1e-6, 1.0 - 1e-6])
def test_fuzz_answers_are_free_of_exact_scalings(c):
    """On the 300 fuzz metrics, every fuzz metric h that canonical_form
    answers gives the same form id at 2^k h, k = +-520 and +-1000, and
    the others are rejected at every k too, except just below c = 1:
    there the residual of a Gc_lt1.3 reduction is measured against the
    unit entry h(x_i, z) = 1 of the canonical matrix while its rounding
    grows with lambda, so 14 of the 300 metrics at c = 1 - 1e-6, rejected
    at lambda = 1, 2^520 and 2^1000, reduce to Gc_lt1.3 at 2^-520 and
    2^-1000."""
    tag = FamilyTag("GI") if c is None else FamilyTag("Gc", c)
    moved = []
    for i, (_, h) in enumerate(_fuzz_metrics(c)):
        outcomes = []
        for lam in [1.0] + [2.0 ** k for k in _EXPONENTS]:
            try:
                outcomes.append(canonical_form(tag, MetricTensor(lam * h.entries)).form_id)
            except DegenerateMetricError:
                outcomes.append(None)
        if len(set(outcomes)) > 1:
            moved.append((i, outcomes))
    if c == 1.0 - 1e-6:
        assert len(moved) == 14
        assert {tuple(o) for _, o in moved} == {(None, "Gc_lt1.3", "Gc_lt1.3", None, None)}
    else:
        assert moved == []
