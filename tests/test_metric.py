import numpy as np
import pytest

from lorcurv import (
    J21,
    MetricTensor,
    ToleranceConfig,
    frame_gram_residual,
    orthonormal_frame,
    pull_back_metric,
    validate_metric,
)


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
@pytest.mark.parametrize("value", [1e-20, 0.0, -1.0, float("nan")])
def test_tolerance_floor(field, value):
    with pytest.raises(ValueError, match=field):
        ToleranceConfig(**{field: value})
    ToleranceConfig(**{field: 1e-16})
