"""Lorentzian inner products on a 3-dimensional Lie algebra.

Signature convention is (+, +, -): a valid metric matrix is symmetric with
two positive and one negative eigenvalue (equivalently det < 0 together
with a non-degenerate spectrum).  The standard frame inner product is
J = diag(1, 1, -1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Hashable, TypeVar

import numpy as np

from .algebra import BasisLabel
from .tolerance import DEFAULT_TOL, ToleranceConfig

#: Gram matrix of an orthonormal frame (y1, y2, y3) with y3 timelike.
J21 = np.diag([1.0, 1.0, -1.0])
#: the diagonal of J21, and the identity
_SIGNS = np.array([1.0, 1.0, -1.0])
_I3 = np.eye(3)
#: eigh returns ascending eigenvalues, so a Lorentzian metric's timelike
#: eigenvector comes first; this order moves it last
_TIMELIKE_LAST = np.array([1, 2, 0])
_COLUMNS = np.arange(3)
for _constant in (J21, _SIGNS, _I3, _TIMELIKE_LAST, _COLUMNS):
    _constant.setflags(write=False)
del _constant
_T = TypeVar("_T")


def frame_inner(u: np.ndarray, v: np.ndarray) -> float:
    """h(u, v) for vectors given in orthonormal-frame coordinates."""
    return float(u[0] * v[0] + u[1] * v[1] - u[2] * v[2])


@dataclass(frozen=True)
class MetricTensor:
    """A symmetric bilinear form given by its matrix in some basis.

    Construction only enforces finiteness and symmetry, the latter to
    classification_tol * max|h| at the default tolerance; signature is
    checked separately by validate_metric so that rejected inputs can be
    reported with diagnostics instead of an exception; entries is read-only.
    """

    entries: np.ndarray
    basis_label: BasisLabel = BasisLabel.NATURAL

    def __post_init__(self) -> None:
        h = np.asarray(self.entries, dtype=float)
        if h.shape != (3, 3):
            raise ValueError("metric matrix must be 3x3")
        big = float(np.abs(h).max())
        if not big < math.inf:          # an inf or a NaN entry
            raise ValueError("metric matrix must be finite")
        asym = float(np.abs(h - h.T).max())
        if asym > DEFAULT_TOL.classification_tol * big:
            raise ValueError(f"metric matrix is not symmetric (residual {asym:g})")
        object.__setattr__(self, "entries", 0.5 * (h + h.T))
        self.entries.setflags(write=False)


def _derived(h: MetricTensor, key: Hashable, build: Callable[[], _T]) -> _T:
    """build(), once per h and key: stored in h.__dict__, as cached_property
    stores on a frozen dataclass.  An exception is not stored."""
    memo = h.__dict__.setdefault("_derived", {})
    if key not in memo:
        memo[key] = build()
    return memo[key]


def _eigh(h: MetricTensor) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.eigh of [h] (ascending eigenvalues, eigenvectors), once
    per h and read-only: the package's one decomposition of a metric."""
    def build():
        ev, vecs = np.linalg.eigh(h.entries)
        ev.setflags(write=False)
        vecs.setflags(write=False)
        return ev, vecs
    return _derived(h, "eigh", build)


@dataclass(frozen=True)
class SignatureDiagnostics:
    """Outcome of a signature check on a symmetric matrix."""

    accepted: bool
    signature: tuple[int, int, int]        # (n_plus, n_zero, n_minus)
    eigenvalues: tuple[float, float, float]  # ascending
    det: float                               # product of the eigenvalues
    reason: str | None = None


def _signature(ev: list[float], tol: ToleranceConfig
               ) -> tuple[tuple[int, int, int], str | None]:
    """Signature (n_plus, n_zero, n_minus) of a symmetric matrix from its
    eigenvalues, and the reason it is not Lorentzian (None when it is).
    The zero band is relative to the largest |eigenvalue|, so the verdict
    does not change under h -> lambda h."""
    band = tol.classification_tol * max(map(abs, ev))
    if any(map(math.isnan, ev)):    # NaN propagates: no eigenvalue passes
        band = math.nan
    n_zero = n_plus = 0
    for e in ev:
        if abs(e) <= band:
            n_zero += 1
        elif e > band:
            n_plus += 1
    sig = (n_plus, n_zero, 3 - n_zero - n_plus)
    if n_zero > 0:
        return sig, "degenerate form (eigenvalue within tolerance of zero)"
    if sig != (2, 0, 1):
        return sig, f"signature {sig} is not Lorentzian (+,+,-)"
    return sig, None


def validate_metric(h: MetricTensor,
                    tol: ToleranceConfig = DEFAULT_TOL) -> SignatureDiagnostics:
    """Check that h has Lorentzian signature (+, +, -)."""
    ev = _eigh(h)[0].tolist()
    sig, reason = _signature(ev, tol)
    return SignatureDiagnostics(reason is None, sig, tuple(ev), math.prod(ev),
                                reason)


def pull_back_metric(h: MetricTensor, S: np.ndarray,
                     basis_label: BasisLabel = BasisLabel.CUSTOM) -> MetricTensor:
    """Matrix of the same form in the basis with vectors S e_j: S^T [h] S."""
    S = np.asarray(S, dtype=float)
    return MetricTensor(S.T @ h.entries @ S, basis_label=basis_label)


@dataclass(frozen=True)
class OrthonormalFrame:
    """Columns are frame vectors (y1, y2, y3) with Gram matrix J21.

    In particular h(y1,y1) = h(y2,y2) = 1 and h(y3,y3) = -1.
    """

    columns: np.ndarray

    def __post_init__(self) -> None:
        cols = np.asarray(self.columns, dtype=float)
        if cols.shape != (3, 3):
            raise ValueError("frame must be a 3x3 column matrix")
        object.__setattr__(self, "columns", cols)


def frame_gram_residual(frame: OrthonormalFrame, h: MetricTensor) -> float:
    gram = frame.columns.T @ h.entries @ frame.columns
    return float(np.abs(gram - J21).max())


def orthonormal_frame(h: MetricTensor,
                      tol: ToleranceConfig = DEFAULT_TOL) -> OrthonormalFrame:
    """Build an orthonormal frame for a valid Lorentzian metric.

    Eigenvectors of [h] are rescaled by 1/sqrt(|lambda|) and ordered so the
    timelike direction comes last.  The frame is not unique (any O(2,1)
    right-multiple works); when [h] is exactly J the identity is returned so
    the canonical frames of diagonal examples stay literal.  Raises
    ValueError when h is not Lorentzian or the frame's Gram residual exceeds
    classification_tol.  Built once per (h, tol), with read-only columns.
    """
    return _derived(h, ("frame", tol), lambda: _build_frame(h, tol))


def _build_frame(h: MetricTensor, tol: ToleranceConfig) -> OrthonormalFrame:
    if (h.entries == J21).all():
        return OrthonormalFrame(_I3)
    eigvals, eigvecs = _eigh(h)
    _, reason = _signature(eigvals.tolist(), tol)
    if reason is not None:
        raise ValueError(f"cannot build a frame: {reason}")
    # signature (2, 0, 1): the one negative eigenvalue is the first
    vecs = eigvecs[:, _TIMELIKE_LAST]
    # deterministic sign: make the largest-magnitude entry of each column
    # positive, by dividing it by a signed 1/sqrt(|lambda|)
    pivots = vecs[np.abs(vecs).argmax(axis=0), _COLUMNS]
    cols = vecs / np.copysign(np.sqrt(np.abs(eigvals[_TIMELIKE_LAST])), pivots)
    cols.setflags(write=False)
    frame = OrthonormalFrame(cols)
    res = frame_gram_residual(frame, h)
    if res > tol.classification_tol:      # the Gram residual is dimensionless
        raise ValueError(f"frame is not h-orthonormal (residual {res:g})")
    return frame
