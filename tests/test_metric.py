import dataclasses

import numpy as np
import pytest

from lorcurv import (
    J21,
    FamilyTag,
    MetricTensor,
    ToleranceConfig,
    canonical_form,
    constant_curvature_class,
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


@pytest.mark.parametrize("lam", [1e-6, 1.0, 1e6])
def test_symmetry_band_is_relative(lam):
    """The symmetry band is classification_tol * max|h|: the same verdict
    for every multiple of h."""
    h = lam * np.diag([1.0, 1.0, -1.0])
    near, far = h.copy(), h.copy()
    near[0, 1] += 1e-8 * lam
    far[0, 1] += 1e-6 * lam
    assert MetricTensor(near).entries[0, 1] == pytest.approx(0.5e-8 * lam)
    with pytest.raises(ValueError, match="not symmetric"):
        MetricTensor(far)


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


def _numpy_metric(h):
    """MetricTensor's construction as it was computed with numpy arrays,
    kept as its oracle: the entries, or the exception raised.  numpy's
    overflow warning in h - h^T is silenced, so that an overflowing
    asymmetry gives the ValueError a caller saw after that warning."""
    from lorcurv import DEFAULT_TOL
    h = np.asarray(h, dtype=float)
    if h.shape != (3, 3):
        raise ValueError("metric matrix must be 3x3")
    big = float(np.abs(h).max())
    if not big < np.inf:
        raise ValueError("metric matrix must be finite")
    with np.errstate(over="ignore"):
        asym = float(np.abs(h - h.T).max())
    if asym > DEFAULT_TOL.classification_tol * big:
        raise ValueError(f"metric matrix is not symmetric (residual {asym:g})")
    return 0.5 * (h + h.T)


def _outcome(build, h):
    try:
        return build(h)
    except Exception as exc:  # noqa: BLE001 - the outcome is compared
        return type(exc), str(exc)


#: entries that stress the float path: signed zeros, subnormals, the
#: smallest normal, and sizes near 1e-300 and 1e300
_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-320, 2.2250738585072014e-308,
            1e-300, -1e-300, 1e300, -1e300, 1.0, -3.0]


def test_construction_matches_numpy_oracle(rng):
    """Entries bit for bit 0.5 (h + h^T), read-only, on random input with
    asymmetries inside the band, built from random and special entries."""
    for _ in range(2000):
        kind = rng.integers(3)
        if kind == 0:
            h = rng.normal(size=(3, 3)) * 10.0 ** rng.uniform(-300, 300)
        elif kind == 1:
            h = rng.choice(_SPECIAL, size=(3, 3))
        else:
            h = rng.normal(size=(3, 3)) * rng.choice(_SPECIAL, size=(3, 3))
        h = h + h.T
        # an asymmetry of up to 1e-8 of the largest entry, in one entry
        i, j = rng.choice(3, size=2, replace=False)
        h[i, j] += rng.uniform(-1e-8, 1e-8) * np.abs(h).max()
        want = _numpy_metric(h)
        got = MetricTensor(h).entries
        assert got.tobytes() == want.tobytes(), h
        assert not got.flags.writeable


@pytest.mark.parametrize("h", [
    np.diag([1.0, 1.0, np.nan]), np.full((3, 3), np.nan),
    np.diag([np.inf, 1.0, -1.0]), np.diag([1.0, -np.inf, -1.0]),
    np.array([[1.0, np.inf, 0.0], [-np.inf, 1.0, 0.0], [0.0, 0.0, -1.0]]),
    np.array([[1.0, 1e308, 0.0], [-1e308, 1.0, 0.0], [0.0, 0.0, -1.0]]),
    np.array([[1.0, 0.0, -1e308], [0.0, 1e308, 0.0], [1e308, 0.0, -1.0]]),
    np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -1.0]]),
    np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.123456789], [0.0, 0.0, -1.0]]),
    np.eye(2), np.ones((3, 4)), np.eye(4), np.zeros(9), np.eye(3)[None], [],
], ids=["nan-diagonal", "all-nan", "inf", "-inf", "inf-pair", "overflowing-asymmetry",
        "overflowing-asymmetry-2", "asymmetric", "asymmetric-residual-digits", "2x2", "3x4", "4x4", "flat", "1x3x3",
        "empty"])
def test_construction_errors_match_numpy_oracle(h):
    """The same exception, with the same message, as the numpy form."""
    want = _outcome(_numpy_metric, h)
    assert isinstance(want, tuple), want
    assert _outcome(MetricTensor, h) == want


@pytest.mark.parametrize("h", [
    np.diag([1e308, 1e308, -1e308]),
    np.array([[0.5e308, 0.95e308, 0.0], [0.95e308, 0.5e308, 0.0], [0.0, 0.0, 1e308]]),
], ids=["diagonal", "off-diagonal-sum-overflows"])
def test_construction_near_the_largest_float(h):
    """Entries within a factor 2 of the largest float are stored as given,
    not as an overflowed 0.5 (h + h^T): a diagonal entry is itself and an
    off-diagonal pair whose sum overflows is averaged as 0.5 b + 0.5 d.
    These metrics are Lorentzian and accepted as (2, 0, 1)."""
    m = MetricTensor(h)
    assert m.entries.tobytes() == h.tobytes()
    diag = validate_metric(m)
    assert diag.accepted and diag.signature == (2, 0, 1), diag


def test_ill_conditioned_metric_near_the_largest_float():
    """diag(1e308, 1, -1) is stored as given and its eigenvalues are
    finite; relative to its largest eigenvalue the other two lie within
    the zero band, so the scale-invariant signature check refuses it as
    degenerate, as it does every multiple of it."""
    h = np.diag([1e308, 1.0, -1.0])
    m = MetricTensor(h)
    assert m.entries.tobytes() == h.tobytes()
    diag = validate_metric(m)
    assert diag.eigenvalues == (-1.0, 1.0, 1e308)
    assert diag.signature == (1, 2, 0)
    assert diag.reason == "degenerate form (eigenvalue within tolerance of zero)"
    assert validate_metric(MetricTensor(1e-300 * h)).signature == (1, 2, 0)


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


@pytest.mark.parametrize("field", ["classification_tol"])
@pytest.mark.parametrize("value", [1e-20, 0.0, -1.0, float("nan"), float("inf"),
                                   True, "1e-9"])
def test_tolerance_floor(field, value):
    with pytest.raises(ValueError, match=field):
        ToleranceConfig(**{field: value})
    ToleranceConfig(**{field: 1e-16})


def test_tolerance_is_decided_per_call():
    """A metric carries no tolerance, so the frame builder, the reducer and
    the curvature report give one verdict on a nearly degenerate metric,
    the verdict of the tol each is called with."""
    loose = ToleranceConfig(classification_tol=1e-9)
    h = MetricTensor(np.diag([1.0, 1e-8, -1.0]))
    assert [f.name for f in dataclasses.fields(h)] == ["entries", "basis_label"]
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


def test_entries_are_read_only():
    """What is derived from a metric is stored on it, so its entries may
    not change under it: they are a read-only copy of the input."""
    m = np.diag([1.0, 2.0, -1.0])
    h = MetricTensor(m)
    with pytest.raises(ValueError, match="read-only"):
        h.entries[0, 0] = 3.0
    m[0, 0] = 3.0
    assert h.entries[0, 0] == 1.0


#: the README metric on Gc, c = 2; at classification_tol = 1e-16 its
#: frame misses the Gram band by rounding (residual 1.7e-16)
_README = np.array([[-1.0, -1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 4.0]])


@pytest.mark.parametrize("tight_first", [True, False])
def test_frame_is_stored_per_tolerance(tight_first):
    """The frame is stored on the metric under its tol: a frame accepted
    at the default tol does not answer for classification_tol = 1e-16,
    and a rejection at 1e-16 is not stored, in either order."""
    tag = FamilyTag("Gc", 2.0)
    alg = make_family_algebra(tag)
    tight = ToleranceConfig(classification_tol=1e-16)
    h = MetricTensor(_README)

    def accepted():
        frame = orthonormal_frame(h)
        assert orthonormal_frame(h) is frame
        assert curvature_report(alg, h).frame is frame
        assert constant_curvature_class(tag, h)[1].form_id == "Gc_gt1.2"

    def rejected():
        for decide in (lambda: orthonormal_frame(h, tight),
                       lambda: curvature_report(alg, h, tol=tight),
                       lambda: constant_curvature_class(tag, h, tight)):
            with pytest.raises(ValueError, match="frame is not h-orthonormal"):
                decide()

    steps = [rejected, accepted] if tight_first else [accepted, rejected]
    for step in steps + steps:
        step()
