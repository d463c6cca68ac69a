"""Segre-type classification of operators that are self-adjoint with
respect to the frame inner product J = diag(1, 1, -1).

Unlike the Riemannian case such an operator need not be diagonalisable;
the possible types are

* ``{11,1}``  real diagonalisable (orthonormal eigenbasis),
* ``{1zz}``   one real and a complex-conjugate pair of eigenvalues,
* ``{21}``    a double root with a 2-dimensional invariant block that is
              a single Jordan cell (normal form has a unit off-diagonal
              pair in the (2,3) block),
* ``{3}``     a triple root with a single Jordan cell of size 3.

Every type but ``{3}`` has a spacelike eigenvector v; its J-orthogonal
complement is an invariant Lorentzian plane, on which the operator is a
block [[b, r], [-r, d]] in a J-orthonormal basis.  The classifier splits
v off and reads the type from the block discriminant
D = (b - d)^2 - 4 r^2, which is invariant under boosts of the plane and
linear in a perturbation of the operator.  It returns a transition
matrix in O(2,1) conjugating the input to its normal form, plus D.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .metric import _I3, J21, frame_inner
from .tolerance import DEFAULT_TOL, ToleranceConfig


class ONeillType(str, Enum):
    DIAGONAL = "{11,1}"
    COMPLEX = "{1zz}"
    DOUBLE = "{21}"
    TRIPLE = "{3}"


@dataclass(frozen=True)
class ONeillClassification:
    type_tag: ONeillType
    normal_form: np.ndarray
    transition: np.ndarray              # in O(2,1); normal = inv(T) A T
    discriminant: float | None = None   # (b-d)^2 - 4 r^2; None for {3}
    boundary_warning: bool = False
    eigenvalues: np.ndarray | None = None   # of A, as np.linalg.eig returns them


#: the frame axis y1, the most spacelike unit vector there is
_Y1 = (1.0, 0.0, 0.0)
_EPS = sys.float_info.epsilon


def boost(theta: float) -> np.ndarray:
    """Hyperbolic rotation in the (y2, y3) plane; lies in O(2,1)."""
    c, s = math.cosh(theta), math.sinh(theta)
    return np.array([[1.0, 0.0, 0.0],
                     [0.0, c, s],
                     [0.0, s, c]])


def _spacelike_eigenvector(T: np.ndarray, lam: np.ndarray, vecs: np.ndarray,
                           band: float, floor: float
                           ) -> tuple[float, float, float] | None:
    """The most spacelike eigenvector of T, h-normalised, or None when no
    eigenvector u has h(u, u) > floor |u|^2 (then T is of type {3}).
    (lam, vecs) is np.linalg.eig(T).

    For a J-self-adjoint T the left eigenvector of u is J u, so
    h(u, u) / |u|^2 is the reciprocal condition number of its eigenvalue:
    the most spacelike eigenvector is the best conditioned one.

    A defective eigenvalue of Jordan size k is only computable to
    O((machine eps)^(1/k)), and the eigenvectors of a generic (conjugated)
    {21} or {3} operator come back nearly null but not null.  Near-real
    eigenvalues are therefore merged with perturbation-aware widths,
    sqrt(eps) for pairs and cbrt(eps) for all three.  A simple eigenvalue
    offers its eigenvector; a merged cluster offers vectors of the null
    space of T - mean I: its most spacelike direction (right for a
    repeated eigenvalue) and the eigenvectors of T compressed to it (right
    for close but distinct eigenvalues).  Only candidates that are
    eigenvectors to within the band count.
    """
    vals = lam.tolist()
    l0, l1, l2 = vals
    scale = max(1.0, abs(l0), abs(l1), abs(l2))
    width = max(band, 20.0 * (_EPS * scale) ** (1.0 / 3.0))
    if max(abs(l0 - l1), abs(l0 - l2), abs(l1 - l2)) <= width:
        clusters = [[0, 1, 2]]
    else:
        width = max(band, 20.0 * (_EPS * scale) ** 0.5)
        clusters = []
        for i in sorted((i for i in range(3) if abs(vals[i].imag) <= width),
                        key=lambda i: vals[i].real):
            if clusters and vals[i].real - vals[clusters[-1][-1]].real <= width:
                clusters[-1].append(i)
            else:
                clusters.append([i])

    columns = vecs.real.T.tolist()
    candidates = []
    for idx in clusters:
        if len(idx) == 1:
            candidates.append(columns[idx[0]])
            continue
        mean = sum(vals[i].real for i in idx) / len(idx)
        _, sv, vt = np.linalg.svd(T - mean * _I3)
        sv = sv.tolist()
        cut = width * 10 * max(1.0, sv[0])
        dim = max(1, sum(x <= cut for x in sv))
        B = vt[3 - dim:].T
        if dim == 1:            # one null direction: the only candidate
            candidates.append(B[:, 0].tolist())
            continue
        candidates.append(B.dot(np.linalg.eigh(B.T.dot(J21).dot(B))[1][:, -1]).tolist())
        candidates.extend(B.dot(np.linalg.eig(B.T.dot(T).dot(B))[1]).real.T.tolist())

    # each candidate scored on floats: the first eigenvector (within the
    # band) of largest h(u, u) / |u|^2 wins; T u for all of them is one
    # product
    units = []
    for u0, u1, u2 in candidates:
        n = math.sqrt(u0 * u0 + u1 * u1 + u2 * u2)
        units.append((u0 / n, u1 / n, u2 / n))
    best, best_h = None, floor
    for (u0, u1, u2), (t0, t1, t2) in zip(units,
                                         T.dot(np.array(units).T).T.tolist()):
        h = u0 * u0 + u1 * u1 - u2 * u2
        if h <= best_h:
            continue
        p = u0 * t0 + u1 * t1 + u2 * t2
        r0, r1, r2 = t0 - p * u0, t1 - p * u1, t2 - p * u2
        if math.sqrt(r0 * r0 + r1 * r1 + r2 * r2) <= band:
            best, best_h = (u0, u1, u2), h
    if best is None:
        return None
    n = math.sqrt(best_h)
    return best[0] / n, best[1] / n, best[2] / n


def _split_complement(v: tuple[float, float, float]
                      ) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """For a spacelike unit v, return (p, q): a J-orthonormal basis of the
    J-orthogonal complement with p spacelike, q timelike.

    With n = sqrt(1 + v3^2): q = (y3 + v3 v) / n is y3 made J-orthogonal
    to v (h(y3, v) = -v3), and h(y3 + v3 v, y3 + v3 v) = -n^2.  p is the
    Lorentzian cross product v x q = (v x y3) / n = (v2, -v1, 0) / n,
    written out: h(p, p) = (v1^2 + v2^2) / n^2 = 1 as h(v, v) = 1, and p is
    J-orthogonal to v and to y3, hence to q.
    """
    v0, v1, v2 = v
    n = math.sqrt(1.0 + v2 * v2)
    return ((v1 / n, -v0 / n, 0.0),
            (v2 * v0 / n, v2 * v1 / n, (v2 * v2 + 1.0) / n))


def _block_transition(b: float, r: float, d: float,
                      kind: str | None) -> np.ndarray:
    """O(2,1) transition normalising the block [[b, r], [-r, d]] on the
    (y2, y3) plane: reflecting the timelike axis when r < 0 flips the sign
    of r and stays in O(2,1); a boost by theta follows, which sends
      r      -> r cosh(2 theta) + ((b - d)/2) sinh(2 theta)
      b - d  -> (b - d) cosh(2 theta) + 2 r sinh(2 theta).
    kind selects the target: "diag" kills r (needs D > 0), "equal" equates
    the diagonal (needs D < 0), "unit" rescales a D = 0 block so r' = 1,
    and None boosts not at all.
    """
    F = J21 if r < 0 else _I3
    r = abs(r)
    if kind is None:
        return F
    if kind == "diag":
        theta = 0.5 * math.atanh(2 * r / (d - b))
    elif kind == "equal":
        theta = 0.5 * math.atanh((d - b) / (2 * r))
    else:
        # "unit": b - d = 2 eps r up to the band, and the null component
        # a = (r + |b - d| / 2) / 2 goes to a * exp(2 eps theta); setting it
        # to 1 leaves a residual |D| / 16 where setting r to 1 would leave
        # |r - a|
        eps = 1 if (b - d) >= 0 else -1
        theta = -eps * 0.5 * math.log(0.5 * (r + 0.5 * abs(b - d)))
    return F.dot(boost(theta))


def classify_self_adjoint(T: np.ndarray,
                          tol: ToleranceConfig = DEFAULT_TOL
                          ) -> ONeillClassification:
    """Classify a J-self-adjoint operator and produce its normal form.

    The type is decided once, from the discriminant D of the block left
    after splitting off the most spacelike eigenvector; an operator
    without a spacelike eigenvector is {3}.  Bands scale with the
    entries of T, so T should be O(1) (``curvature_report`` rescales).

    Raises ValueError if J T is not symmetric (T not self-adjoint), and
    ArithmeticError if the transition found fails its residual checks.
    """
    T = np.asarray(T, dtype=float)
    if T.shape != (3, 3):
        raise ValueError("operator must be 3x3")
    norm = float(np.abs(T).max())
    t = T.tolist()
    # J T - (J T)^T is zero on the diagonal; off it, its entries are
    # t01 - t10, t02 + t20 and t12 + t21 up to sign
    sym_res = max(abs(t[0][1] - t[1][0]), abs(t[0][2] + t[2][0]),
                  abs(t[1][2] + t[2][1]))
    if sym_res > tol.classification_tol * (1.0 + norm):
        raise ValueError(f"operator is not J-self-adjoint (residual {sym_res:g})")

    band = tol.classification_tol * (1.0 + norm)
    lam, vecs = np.linalg.eig(T)
    # h(u, u) <= |u|^2 with equality only on span(y1, y2), so when y1 is an
    # eigenvector within the band (every scalar operator) it is already as
    # spacelike as an eigenvector can be and the search is skipped
    if math.hypot(t[1][0], t[2][0]) <= band:
        v = _Y1
    else:
        v = _spacelike_eigenvector(T, lam, vecs, band, tol.classification_tol)
    if v is None:
        C = _jordan_chain(T, band)
        normal = _conjugate(C, T)
        _check_transition(C, normal, ONeillType.TRIPLE, band)
        return ONeillClassification(ONeillType.TRIPLE, normal, C, eigenvalues=lam)

    p, q = _split_complement(v)
    C0 = np.array((v, p, q)).T
    _, (_, b, t12), (_, t21, d) = _conjugate(C0, T).tolist()
    r = 0.5 * (t12 - t21)
    # with e = (b - d)/2, D = 4 (|e| - |r|)(|e| + |r|): the block is {21}
    # when (e, r) lies within classification_tol of the null cone |e| = |r|
    # relative to its own size, so the band neither depends on the scale
    # of T nor swallows near-scalar blocks
    D = (b - d) ** 2 - 4 * r * r
    D_band = tol.classification_tol * (abs(b - d) + 2 * abs(r)) ** 2

    boundary = False
    if abs(r) <= band:
        ttype, kind = ONeillType.DIAGONAL, None
    elif abs(D) <= D_band:
        ttype, kind = ONeillType.DOUBLE, "unit"
        boundary = bool(abs(D) > 0.0)
    elif D > 0:
        ttype, kind = ONeillType.DIAGONAL, "diag"
    else:
        ttype, kind = ONeillType.COMPLEX, "equal"
    C = C0.dot(_block_transition(b, r, d, kind))

    normal = _conjugate(C, T)
    _check_transition(C, normal, ttype, band, lenient=boundary)
    return ONeillClassification(ttype, normal, C, D, boundary,
                                eigenvalues=lam)


def _conjugate(C: np.ndarray, T: np.ndarray) -> np.ndarray:
    """inv(C) T C for C in O(2,1), where inv(C) = J C^T J; _check_transition
    tests that C is in O(2,1)."""
    return J21.dot(C.T).dot(J21).dot(T).dot(C)


def _jordan_chain(T: np.ndarray, band: float) -> np.ndarray:
    """Jordan chain basis of a {3} operator realising the exact normal form
    [[a,1,-1],[1,a,0],[1,0,a]] with Gram matrix J."""
    lam = float(np.trace(T)) / 3.0
    N = T - lam * _I3
    u0 = max(_I3, key=lambda u: float(np.linalg.norm(N @ N @ u)))
    if float(np.linalg.norm(N @ N @ u0)) <= band:
        raise ArithmeticError("{3} operator has no length-3 chain")
    m0 = frame_inner(u0, u0)
    m1 = frame_inner(u0, N @ u0)
    m2 = frame_inner(N @ u0, N @ u0)
    if m2 <= 0:
        raise ArithmeticError("chain Gram coefficient must be positive for {3}")
    x = 2.0 / np.sqrt(m2)
    y = -x * m1 / (2.0 * m2)
    zc = -(x * x * m0 + 2 * x * y * m1 + y * y * m2) / (2.0 * x * m2)
    u = x * u0 + y * (N @ u0) + zc * (N @ N @ u0)
    y1 = (N @ u) / 2.0
    p = (N @ N @ u) / 2.0
    y2 = (p + u) / 2.0
    y3 = (p - u) / 2.0
    return np.column_stack([y1, y2, y3])


def _check_transition(C, normal, ttype: ONeillType, band: float,
                      lenient: bool = False) -> None:
    # the columns x, y, z of C, and the entries of C^T J C - J from them
    (x0, y0, z0), (x1, y1, z1), (x2, y2, z2) = C.tolist()
    gram_res = max(abs(x0 * x0 + x1 * x1 - x2 * x2 - 1.0),
                   abs(y0 * y0 + y1 * y1 - y2 * y2 - 1.0),
                   abs(z0 * z0 + z1 * z1 - z2 * z2 + 1.0),
                   abs(x0 * y0 + x1 * y1 - x2 * y2),
                   abs(x0 * z0 + x1 * z1 - x2 * z2),
                   abs(y0 * z0 + y1 * z1 - y2 * z2))
    if gram_res > band * 100:
        raise ArithmeticError(f"transition is not in O(2,1) (residual {gram_res:g})")
    res = _pattern_residual(normal, ttype)
    if res > band * 100 * (1e3 if lenient else 1.0):
        raise ArithmeticError(
            f"normal form residual {res:g} too large for type {ttype.value}")


def _pattern_residual(a: np.ndarray, ttype: ONeillType) -> float:
    """Largest deviation of a normal form from the pattern of its type."""
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a.tolist()
    if ttype == ONeillType.TRIPLE:
        # [[m, 1, -1], [1, m, 0], [1, 0, m]], m the mean of the diagonal
        m = (a00 + a11 + a22) / 3.0
        return max(abs(a00 - m), abs(a01 - 1.0), abs(a02 + 1.0),
                   abs(a10 - 1.0), abs(a11 - m), abs(a12),
                   abs(a20 - 1.0), abs(a21), abs(a22 - m))
    # every other pattern is a00 plus a 2x2 block on (y2, y3)
    off = max(abs(a01), abs(a02), abs(a10), abs(a20))
    m = 0.5 * (a11 + a22)
    if ttype == ONeillType.COMPLEX:           # [[m, r], [-r, m]]
        r = 0.5 * (a12 - a21)
        block = max(abs(a11 - m), abs(a12 - r), abs(a21 + r), abs(a22 - m))
    elif ttype == ONeillType.DOUBLE:          # [[m + e, s], [-s, m - e]]
        e = 1.0 if a11 >= a22 else -1.0
        sgn = 1.0 if a12 >= 0 else -1.0
        block = max(abs(a11 - (m + e)), abs(a12 - sgn), abs(a21 + sgn),
                    abs(a22 - (m - e)))
    else:                                     # diagonal
        block = max(abs(a12), abs(a21))
    return max(off, block)
