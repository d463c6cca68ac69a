"""Discrete answers do not depend on units: the form id, the O'Neill type,
the constant-curvature class and the equivalence verdict of lambda h are
those of h, for lambda across twelve orders of magnitude."""

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
