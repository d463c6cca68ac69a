"""Lorentzian inner products on a 3-dimensional Lie algebra.

Signature convention is (+, +, -): a valid metric matrix is symmetric with
two positive and one negative eigenvalue (equivalently det < 0 together
with a non-degenerate spectrum).  The standard frame inner product is
J = diag(1, 1, -1).

A metric is decomposed by a cyclic Jacobi eigensolver on Python floats
(``_eigen``), with no LAPACK call, and the result is stored on it: the
signature check, the orthonormal frame and the canonical reducer read
it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Hashable, TypeVar

from .algebra import BasisLabel
from .arrays import Array, ArrayField, Rows, Vec, array, float_rows, matmul, transpose
from .tolerance import DEFAULT_TOL, ToleranceConfig

#: J = diag(1, 1, -1) and the identity, as rows
_J: Rows = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, -1.0))
_I3: Rows = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
#: a Jacobi rotation is skipped when its off-diagonal entry of the matrix,
#: scaled to max|entry| in [1/2, 1), is at most this, and the sweeps stop
#: when all three are: leaving them out moves no eigenvalue by more than
#: 2^-60 of the largest, far below its rounding
_OFF = 2.0 ** -62
#: the most sweeps: Jacobi converges quadratically, in 4 to 6 sweeps
_SWEEPS = 32
_T = TypeVar("_T")


def __getattr__(name: str):
    """J21, the Gram matrix of an orthonormal frame (y1, y2, y3) with y3
    timelike, as a read-only ndarray built on first use."""
    if name != "J21":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()["J21"] = array(_J, read_only=True)
    return value


def frame_inner(u, v) -> float:
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

    entries: Array = ArrayField(message="metric matrix must be 3x3")
    basis_label: BasisLabel = BasisLabel.NATURAL

    def __post_init__(self) -> None:
        # the entries are 0.5 (h + h^T), as numpy sums it, where that is
        # finite; the diagonal h_ii is 0.5 (h_ii + h_ii) then
        (a, b, c), (d, e, f), (g, k, m) = self._entries
        if not all(map(math.isfinite, (a, b, c, d, e, f, g, k, m))):
            raise ValueError("metric matrix must be finite")
        big = max(abs(a), abs(b), abs(c), abs(d), abs(e), abs(f), abs(g), abs(k), abs(m))
        asym = max(abs(b - d), abs(c - g), abs(f - k))
        if asym > DEFAULT_TOL.classification_tol * big:
            raise ValueError(f"metric matrix is not symmetric (residual {asym:g})")
        x, y, z = _mean(b, d), _mean(c, g), _mean(f, k)
        object.__setattr__(self, "entries", ((a, x, y), (x, e, z), (y, z, m)))


def _derived(h, key: Hashable, build: Callable[[], _T]) -> _T:
    """build(), once per h and key: stored in h.__dict__, as cached_property
    stores on a frozen dataclass.  An exception is not stored."""
    memo = h.__dict__.setdefault("_derived", {})
    if key not in memo:
        memo[key] = build()
    return memo[key]


def _jacobi(rows: Rows) -> tuple[Vec, tuple[Vec, Vec, Vec]]:
    """Eigenvalues of a symmetric 3x3 matrix in ascending order, and their
    unit eigenvectors, by cyclic Jacobi rotations.

    The matrix is first scaled by a power of two to max|entry| in [1/2, 1),
    which is exact for every entry above 2^-1022 of the largest, and the
    eigenvalues are scaled back: no product overflows, and lambda h for a
    power of two lambda has exactly lambda times the eigenvalues and the
    same eigenvectors.  Each rotation zeroes its off-diagonal entry a_pq by
    the smaller angle, tan t, sin s and tau = s / (1 + cos) (a tangent that
    underflows is 0), and turns each pair (g, h) of the other entries and
    of V's columns into (g - s (h + tau g), h + s (g - tau h)), which keeps
    V orthonormal to about 2 eps.  Equal eigenvalues keep the order of the
    diagonal entries they came from (a diagonal matrix is not rotated)."""
    (a, b, c), (_, d, e), (_, _, f) = rows
    top = max(abs(a), abs(b), abs(c), abs(d), abs(e), abs(f))
    k = -math.frexp(top)[1]
    a, b, c = math.ldexp(a, k), math.ldexp(b, k), math.ldexp(c, k)
    d, e, f = math.ldexp(d, k), math.ldexp(e, k), math.ldexp(f, k)
    # the columns of V accumulate the rotations
    v00, v01, v02, v10, v11, v12, v20, v21, v22 = 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0
    for _ in range(_SWEEPS):
        if abs(b) <= _OFF and abs(c) <= _OFF and abs(e) <= _OFF:
            break
        if abs(b) > _OFF:       # the (0, 1) plane: a, d, b and the pair (c, e)
            theta = 0.5 * (d - a) / b
            t = math.copysign(1.0 / (abs(theta) + math.hypot(theta, 1.0)), theta)
            cs = 1.0 / math.sqrt(t * t + 1.0)
            s, r = t * cs, t * cs / (1.0 + cs)
            a, d, b = a - t * b, d + t * b, 0.0
            c, e = c - s * (e + r * c), e + s * (c - r * e)
            v00, v01 = v00 - s * (v01 + r * v00), v01 + s * (v00 - r * v01)
            v10, v11 = v10 - s * (v11 + r * v10), v11 + s * (v10 - r * v11)
            v20, v21 = v20 - s * (v21 + r * v20), v21 + s * (v20 - r * v21)
        if abs(c) > _OFF:       # the (0, 2) plane: a, f, c and the pair (b, e)
            theta = 0.5 * (f - a) / c
            t = math.copysign(1.0 / (abs(theta) + math.hypot(theta, 1.0)), theta)
            cs = 1.0 / math.sqrt(t * t + 1.0)
            s, r = t * cs, t * cs / (1.0 + cs)
            a, f, c = a - t * c, f + t * c, 0.0
            b, e = b - s * (e + r * b), e + s * (b - r * e)
            v00, v02 = v00 - s * (v02 + r * v00), v02 + s * (v00 - r * v02)
            v10, v12 = v10 - s * (v12 + r * v10), v12 + s * (v10 - r * v12)
            v20, v22 = v20 - s * (v22 + r * v20), v22 + s * (v20 - r * v22)
        if abs(e) > _OFF:       # the (1, 2) plane: d, f, e and the pair (b, c)
            theta = 0.5 * (f - d) / e
            t = math.copysign(1.0 / (abs(theta) + math.hypot(theta, 1.0)), theta)
            cs = 1.0 / math.sqrt(t * t + 1.0)
            s, r = t * cs, t * cs / (1.0 + cs)
            d, f, e = d - t * e, f + t * e, 0.0
            b, c = b - s * (c + r * b), c + s * (b - r * c)
            v01, v02 = v01 - s * (v02 + r * v01), v02 + s * (v01 - r * v02)
            v11, v12 = v11 - s * (v12 + r * v11), v12 + s * (v11 - r * v12)
            v21, v22 = v21 - s * (v22 + r * v21), v22 + s * (v21 - r * v22)
    columns = (v00, v10, v20), (v01, v11, v21), (v02, v12, v22)
    order = sorted(zip((math.ldexp(a, -k), math.ldexp(d, -k), math.ldexp(f, -k)), range(3)))
    return tuple(x for x, _ in order), tuple(columns[i] for _, i in order)


def _eigen(h: MetricTensor) -> tuple[Vec, tuple[Vec, Vec, Vec]]:
    """_jacobi of [h]: ascending eigenvalues and unit eigenvectors, once per
    h, the package's one decomposition of a metric."""
    return _derived(h, "eigen", lambda: _jacobi(h._entries))


@dataclass(frozen=True)
class SignatureDiagnostics:
    """Outcome of a signature check on a symmetric matrix."""

    accepted: bool
    signature: tuple[int, int, int]        # (n_plus, n_zero, n_minus)
    eigenvalues: tuple[float, float, float]  # ascending
    det: float                               # product of the eigenvalues
    reason: str | None = None


def _signature(ev, tol: ToleranceConfig
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
    ev = _eigen(h)[0]
    sig, reason = _signature(ev, tol)
    return SignatureDiagnostics(reason is None, sig, ev, math.prod(ev), reason)


def pull_back_metric(h: MetricTensor, S,
                     basis_label: BasisLabel = BasisLabel.CUSTOM) -> MetricTensor:
    """Matrix of the same form in the basis with vectors S e_j: S^T [h] S."""
    S = float_rows(S)
    return MetricTensor(matmul(matmul(transpose(S), h._entries), S),
                        basis_label=basis_label)


@dataclass(frozen=True)
class OrthonormalFrame:
    """Columns are frame vectors (y1, y2, y3) with Gram matrix J21.

    In particular h(y1,y1) = h(y2,y2) = 1 and h(y3,y3) = -1.
    """

    columns: Array = ArrayField(message="frame must be a 3x3 column matrix")


class FrameResidualError(ValueError):
    """A frame whose Gram matrix under h is off J by more than
    classification_tol; residual is the largest entrywise deviation."""

    def __init__(self, residual: float) -> None:
        super().__init__(f"frame is not h-orthonormal (residual {residual:g})")
        self.residual = residual


def frame_gram_residual(frame: OrthonormalFrame, h: MetricTensor) -> float:
    F = frame._columns
    gram = matmul(matmul(transpose(F), h._entries), F)
    return max(abs(x - j) for g, r in zip(gram, _J) for x, j in zip(g, r))


def _check_frame(frame: OrthonormalFrame, h: MetricTensor,
                 tol: ToleranceConfig) -> None:
    """Raise FrameResidualError unless frame is h-orthonormal to within
    classification_tol (the Gram residual is dimensionless)."""
    res = frame_gram_residual(frame, h)
    if not res <= tol.classification_tol:
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
    if h._entries == _J:
        return OrthonormalFrame(_I3)
    ev, (v0, v1, v2) = _eigen(h)
    _, reason = _signature(ev, tol)
    if reason is not None:
        raise ValueError(f"cannot build a frame: {reason}")
    # signature (2, 0, 1): the one negative eigenvalue is the first, and its
    # eigenvector v0 goes last.  Deterministic sign: the largest-magnitude
    # entry of each column (the first, on a tie) is made positive, by
    # dividing the column by a signed sqrt(|lambda|)
    s0, s1, s2 = (math.copysign(math.sqrt(abs(e)), max(v, key=abs))
                  for e, v in zip(ev, (v0, v1, v2)))
    frame = OrthonormalFrame(transpose((tuple(x / s1 for x in v1),
                                        tuple(x / s2 for x in v2),
                                        tuple(x / s0 for x in v0))))
    _check_frame(frame, h, tol)
    return frame
