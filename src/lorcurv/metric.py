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
#: J21 as nested lists, for an exact comparison without numpy calls
_J21_ROWS = J21.tolist()
for _constant in (J21, _SIGNS, _I3):
    _constant.setflags(write=False)
del _constant
_T = TypeVar("_T")


def frame_inner(u: np.ndarray, v: np.ndarray) -> float:
    """h(u, v) for vectors given in orthonormal-frame coordinates."""
    return float(u[0] * v[0] + u[1] * v[1] - u[2] * v[2])


def _mean(b: float, d: float) -> float:
    """0.5 (b + d), or 0.5 b + 0.5 d where b + d overflows."""
    x = 0.5 * (b + d)
    return x if math.isfinite(x) else 0.5 * b + 0.5 * d


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
        # on Python floats: the entries are 0.5 (h + h^T), as numpy sums it,
        # where that is finite; the diagonal h_ii is 0.5 (h_ii + h_ii) then
        (a, b, c), (d, e, f), (g, k, m) = h.tolist()
        if not all(map(math.isfinite, (a, b, c, d, e, f, g, k, m))):
            raise ValueError("metric matrix must be finite")
        big = max(abs(a), abs(b), abs(c), abs(d), abs(e), abs(f), abs(g), abs(k), abs(m))
        asym = max(abs(b - d), abs(c - g), abs(f - k))
        if asym > DEFAULT_TOL.classification_tol * big:
            raise ValueError(f"metric matrix is not symmetric (residual {asym:g})")
        x, y, z = _mean(b, d), _mean(c, g), _mean(f, k)
        entries = np.array([[a, x, y], [x, e, z], [y, z, m]])
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)


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


class FrameResidualError(ValueError):
    """A frame whose Gram matrix under h is off J by more than
    classification_tol; residual is the largest entrywise deviation."""

    def __init__(self, residual: float) -> None:
        super().__init__(f"frame is not h-orthonormal (residual {residual:g})")
        self.residual = residual


def frame_gram_residual(frame: OrthonormalFrame, h: MetricTensor) -> float:
    gram = frame.columns.T.dot(h.entries).dot(frame.columns)
    return float(np.abs(gram - J21).max())


def _check_frame(frame: OrthonormalFrame, h: MetricTensor,
                 tol: ToleranceConfig) -> None:
    """Raise FrameResidualError unless frame is h-orthonormal to within
    classification_tol (the Gram residual is dimensionless)."""
    res = frame_gram_residual(frame, h)
    if res > tol.classification_tol:
        raise FrameResidualError(res)


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
    if h.entries.tolist() == _J21_ROWS:
        return OrthonormalFrame(_I3)
    eigvals, eigvecs = _eigh(h)
    ev = eigvals.tolist()
    _, reason = _signature(ev, tol)
    if reason is not None:
        raise ValueError(f"cannot build a frame: {reason}")
    # signature (2, 0, 1): the one negative eigenvalue e0 is the first, and
    # its eigenvector (x0, y0, z0) goes last.  Deterministic sign: the
    # largest-magnitude entry of each column (the first, on a tie) is made
    # positive, by dividing the column by a signed sqrt(|lambda|)
    e0, e1, e2 = ev
    (x0, x1, x2), (y0, y1, y2), (z0, z1, z2) = eigvecs.tolist()
    s0 = math.copysign(math.sqrt(abs(e0)), max((x0, y0, z0), key=abs))
    s1 = math.copysign(math.sqrt(abs(e1)), max((x1, y1, z1), key=abs))
    s2 = math.copysign(math.sqrt(abs(e2)), max((x2, y2, z2), key=abs))
    columns = np.array([[x1 / s1, x2 / s2, x0 / s0],
                        [y1 / s1, y2 / s2, y0 / s0],
                        [z1 / s1, z2 / s2, z0 / s0]])
    columns.setflags(write=False)
    frame = OrthonormalFrame(columns)
    _check_frame(frame, h, tol)
    return frame
