import numpy as np
import pytest

from lorcurv import (
    J21,
    FamilyTag,
    MetricTensor,
    ToleranceConfig,
    canonical_form,
    curvature_report,
    frame_gram_residual,
    make_family_algebra,
    orthonormal_frame,
    pull_back_metric,
    validate_metric,
)
from lorcurv.metric import _signature


def test_rejects_non_symmetric():
    with pytest.raises(ValueError):
        MetricTensor(np.array([[1.0, 1, 0], [0, 1, 0], [0, 0, -1]]))


def test_rejects_wrong_shape():
    with pytest.raises(ValueError):
        MetricTensor(np.eye(2))


def test_rejects_nan():
    m = np.diag([1.0, 1.0, np.nan])
    with pytest.raises(ValueError):
        MetricTensor(m)


def test_rejects_inf():
    for bad in (np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            MetricTensor(np.diag([1.0, 1.0, bad]))


def _array_signature(eigs, tol):
    """The signature count on the eigenvalue array, as numpy reductions:
    the reference for _signature."""
    band = tol.classification_tol * float(np.abs(eigs).max())
    n_zero = int((np.abs(eigs) <= band).sum())
    n_plus = int((eigs > band).sum())
    return n_plus, n_zero, 3 - n_zero - n_plus


def test_signature_matches_array_reference(rng):
    """_signature counts on a list of floats; it must give the array
    count's verdict on every sign pattern, on eigenvalues at the edge of
    the band and on non-finite ones (a NaN anywhere makes the band NaN,
    so no eigenvalue is zero or positive)."""
    tol = ToleranceConfig()
    cases = [np.sort(rng.choice([-1.0, 0.0, 1.0], size=3)
                     * 10.0 ** rng.uniform(-9, 3, size=3)) for _ in range(300)]
    cases += [np.array(ev) for ev in ([-1.0, 1e-7, 1.0], [-1.0, 1.0000001e-7, 1.0],
                                      [np.nan, 1.0, 2.0], [-1.0, np.nan, 1.0],
                                      [-1.0, 1.0, np.nan], [-np.inf, 1.0, 2.0],
                                      [-1.0, 1.0, np.inf])]
    for eigs in cases:
        sig, reason = _signature(eigs.tolist(), tol)
        assert sig == _array_signature(eigs, tol), eigs
        assert (reason is None) == (sig == (2, 0, 1))


def test_validate_lorentzian():
    diag = validate_metric(MetricTensor(J21.copy()))
    assert diag.accepted
    assert diag.signature == (2, 0, 1)
    assert diag.det == pytest.approx(-1.0)


def test_validate_riemannian_rejected():
    diag = validate_metric(MetricTensor(np.eye(3)))
    assert not diag.accepted
    assert diag.signature == (3, 0, 0)
    assert "signature" in diag.reason


def test_validate_degenerate_rejected():
    diag = validate_metric(MetricTensor(np.diag([1.0, 1.0, 0.0])))
    assert not diag.accepted
    assert diag.signature[1] == 1
    assert "degenerate" in diag.reason


def test_validate_anti_lorentzian_rejected():
    diag = validate_metric(MetricTensor(np.diag([1.0, -1.0, -1.0])))
    assert not diag.accepted


def test_pull_back_congruence(rng):
    h = MetricTensor(np.array([[2.0, 1, 0], [1, 3, 1], [0, 1, -1]]))
    S = rng.normal(size=(3, 3)) + 2 * np.eye(3)
    h2 = pull_back_metric(h, S)
    assert np.allclose(h2.entries, S.T @ h.entries @ S)


def test_orthonormal_frame_identity_for_J():
    frame = orthonormal_frame(MetricTensor(J21.copy()))
    assert np.array_equal(frame.columns, np.eye(3))


@pytest.mark.parametrize("seed", range(20))
def test_orthonormal_frame_gram(seed):
    rng = np.random.default_rng(seed)
    while True:
        S = rng.normal(size=(3, 3))
        if abs(np.linalg.det(S)) > 0.3:
            break
    h = MetricTensor(S.T @ J21 @ S)
    frame = orthonormal_frame(h)
    assert frame_gram_residual(frame, h) < 1e-9 * (1 + np.abs(h.entries).max())


def test_orthonormal_frame_rejects_invalid():
    with pytest.raises(ValueError):
        orthonormal_frame(MetricTensor(np.eye(3)))


def test_frame_is_deterministic():
    h = MetricTensor(np.array([[2.0, 1, 0], [1, 3, 1], [0, 1, -1]]))
    f1 = orthonormal_frame(h)
    f2 = orthonormal_frame(h)
    assert np.array_equal(f1.columns, f2.columns)


@pytest.mark.parametrize("field", ["abs_tol", "classification_tol"])
@pytest.mark.parametrize("value", [1e-20, 0.0, -1.0, float("nan"), float("inf"),
                                   True, "1e-9"])
def test_tolerance_floor(field, value):
    with pytest.raises(ValueError, match=field):
        ToleranceConfig(**{field: value})
    ToleranceConfig(**{field: 1e-16})


def test_tolerance_is_decided_per_call():
    """MetricTensor(tolerance=...) sets only the symmetry check: it is not
    kept, so the frame builder and the curvature report that calls it give
    one verdict on a nearly degenerate metric, the verdict of their tol."""
    loose = ToleranceConfig(classification_tol=1e-9)
    h = MetricTensor(np.diag([1.0, 1e-8, -1.0]), tolerance=loose)
    assert not hasattr(h, "tolerance")
    tag = FamilyTag("GI")
    alg = make_family_algebra(tag, h.basis_label)
    assert not validate_metric(h).accepted
    for decide in (lambda: orthonormal_frame(h), lambda: canonical_form(tag, h),
                   lambda: curvature_report(alg, h)):
        with pytest.raises(ValueError, match="degenerate form"):
            decide()
    assert validate_metric(h, loose).accepted
    frame = orthonormal_frame(h, loose)
    assert curvature_report(alg, h, frame=frame, tol=loose).frame is frame
