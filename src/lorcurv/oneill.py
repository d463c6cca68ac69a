"""Segre-type classification of operators that are self-adjoint with
respect to the frame inner product J = diag(1, 1, -1), given one of
their eigenvectors.

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

v is not searched for: it follows in closed form from a nonzero
eigenvector n that the caller passes.  For a Ricci operator on a
non-unimodular group, n is the h-dual of the trace form u -> tr ad_u,
normal to the unimodular kernel, which Ric leaves invariant (Milnor,
Adv. Math. 1976, section 6).  A spacelike n is v.  A timelike n leaves
the spacelike plane n^perp, where one 2x2 rotation gives v.  A null n
lies in the invariant plane n^perp, which holds w0 = (n1, -n0, 0) with
T w0 = a n + b w0: v = w0 + a / (b - lam_n) n, or w0 when a is within
the band; with b = lam_n and a outside it, T is {3}, whose only
eigenvectors are null.  A T with no v of h(v, v) > classification_tol
|v|^2 is rejected with a ValueError.

Rounding can flip two decisions, r = 0 and D = 0.  b, r and d carry a
forward error err = 16 eps (1 + max|T|) max|C0|^2 for the split basis
C0 = (v, p, q), and an r or a D outside its band but within that error
is rejected, "O'Neill classification: ... within its rounding error".
The classifier works on Python floats: the split, the conjugations, the
boosts and the transition are rows of floats, and it makes no LAPACK
call.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

from .arrays import Array, ArrayField, Rows, array, float_rows, matmul, transpose
from .metric import _I3, _J, frame_inner
from .tolerance import DEFAULT_TOL, ToleranceConfig


class ONeillType(str, Enum):
    DIAGONAL = "{11,1}"
    COMPLEX = "{1zz}"
    DOUBLE = "{21}"
    TRIPLE = "{3}"      # named, never returned: a {3} operator is rejected


@dataclass(frozen=True)
class ONeillClassification:
    type_tag: ONeillType
    normal_form: Array = ArrayField()
    transition: Array = ArrayField()    # in O(2,1); normal = inv(T) A T
    discriminant: float                 # (b-d)^2 - 4 r^2 of the block
    boundary_warning: bool = False


#: the forward error of the split block, per unit (1 + max|T|) max|C0|^2
_ERR = 16 * sys.float_info.epsilon


def _boost(theta: float) -> Rows:
    c, s = math.cosh(theta), math.sinh(theta)
    return (1.0, 0.0, 0.0), (0.0, c, s), (0.0, s, c)


def boost(theta: float) -> Array:
    """Hyperbolic rotation in the (y2, y3) plane; lies in O(2,1)."""
    return array(_boost(theta))


def _apply(t: list, u: tuple[float, float, float]) -> tuple[float, float, float]:
    """T u for T given as rows of floats."""
    return tuple(r0 * u[0] + r1 * u[1] + r2 * u[2] for r0, r1, r2 in t)


def _split_line(t: list, n, band: float,
                floor: float) -> tuple[float, float, float]:
    """The h-unit spacelike eigenvector v of T (rows t) that is split off,
    in closed form from the eigenvector n.  n is Euclidean-normalised and
    null when |h(n, n)| <= floor; T n must equal lam n within the band.
    Raises ValueError when n is no eigenvector, or when T has no spacelike
    eigenvector within the band ({3}, or rounding hides it)."""
    n0, n1, n2 = (float(x) for x in n)
    size = math.sqrt(n0 * n0 + n1 * n1 + n2 * n2)
    if not size > 0.0:
        raise ValueError("O'Neill classification: the eigenvector must be nonzero")
    n = (n0 / size, n1 / size, n2 / size)
    tn = _apply(t, n)
    lam = n[0] * tn[0] + n[1] * tn[1] + n[2] * tn[2]
    if max(abs(x - lam * y) for x, y in zip(tn, n)) > band:
        raise ValueError("O'Neill classification: the given vector is not an "
                         f"eigenvector of the operator within the band {band:g}")
    hn = frame_inner(n, n)
    if hn > floor:
        v = n
    elif hn < -floor:
        # a J-orthonormal basis of the spacelike plane n^perp, for the h-unit
        # timelike m: p = y1 + m0 m and q = m x y1 = (0, m2, m1), both of
        # h-norm 1 + m0^2; T is symmetric on it, and a rotation diagonalises it
        m0, m1, m2 = (x / math.sqrt(-hn) for x in n)
        k = math.sqrt(1.0 + m0 * m0)
        p, q = ((1.0 + m0 * m0) / k, m0 * m1 / k, m0 * m2 / k), (0.0, m2 / k, m1 / k)
        tp, tq = _apply(t, p), _apply(t, q)
        theta = 0.5 * math.atan2(2.0 * frame_inner(tp, q),
                                 frame_inner(tp, p) - frame_inner(tq, q))
        c, s = math.cos(theta), math.sin(theta)
        v = tuple(c * x + s * y for x, y in zip(p, q))
    else:
        # n^perp = span(n, w0) is invariant: T w0 = a n + b w0
        w0 = (n[1], -n[0], 0.0)
        tw = _apply(t, w0)
        a = tw[2] / n[2]
        b = (tw[0] * n[1] - tw[1] * n[0]) / (n[0] * n[0] + n[1] * n[1])
        if abs(a) <= band:
            v = w0
        elif b != lam:
            alpha = a / (b - lam)
            v = tuple(x + alpha * y for x, y in zip(w0, n))
        else:
            v = n           # null, so rejected below: T is {3}
    hv = frame_inner(v, v)
    if not hv > floor * (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]):
        raise ValueError("O'Neill classification: no eigenvector is spacelike "
                         f"within the band {band:g}, so the operator cannot be "
                         "split into a line and a Lorentzian plane")
    hv = math.sqrt(hv)
    return v[0] / hv, v[1] / hv, v[2] / hv


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


def _block_transition(b: float, r: float, d: float, kind: str | None) -> Rows:
    """O(2,1) transition normalising the block [[b, r], [-r, d]] on the
    (y2, y3) plane: reflecting the timelike axis when r < 0 flips the sign
    of r and stays in O(2,1); a boost by theta follows, which sends
      r      -> r cosh(2 theta) + ((b - d)/2) sinh(2 theta)
      b - d  -> (b - d) cosh(2 theta) + 2 r sinh(2 theta).
    kind selects the target: "diag" kills r (needs D > 0), "equal" equates
    the diagonal (needs D < 0), "unit" rescales a D = 0 block so r' = 1,
    and None boosts not at all.
    """
    F = _J if r < 0 else _I3
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
    return matmul(F, _boost(theta))


def classify_self_adjoint(T, n,
                          tol: ToleranceConfig = DEFAULT_TOL
                          ) -> ONeillClassification:
    """Classify a J-self-adjoint operator, given its nonzero eigenvector
    n, and produce its normal form.  Bands scale with the entries of T, so
    T should be O(1) (``curvature_report`` rescales).

    Raises ValueError if J T is not symmetric (T not self-adjoint), if n
    is not an eigenvector, if T has no spacelike eigenvector within the
    band, or if r or D lies within its rounding error of its band; and
    ArithmeticError if the transition found fails its residual checks.
    """
    try:
        t = float_rows(T)
    except (TypeError, ValueError):
        raise ValueError("operator must be 3x3") from None
    norm = max(abs(x) for row in t for x in row)
    band = tol.classification_tol * (1.0 + norm)
    # J T - (J T)^T is zero on the diagonal; off it, its entries are
    # t01 - t10, t02 + t20 and t12 + t21 up to sign
    sym_res = max(abs(t[0][1] - t[1][0]), abs(t[0][2] + t[2][0]),
                  abs(t[1][2] + t[2][1]))
    if sym_res > band:
        raise ValueError(f"operator is not J-self-adjoint (residual {sym_res:g})")

    v = _split_line(t, n, band, tol.classification_tol)
    p, q = _split_complement(v)
    C0 = transpose((v, p, q))
    _, (_, b, t12), (_, t21, d) = _conjugate(C0, t)
    r = 0.5 * (t12 - t21)
    # with e = (b - d)/2, D = 4 (|e| - |r|)(|e| + |r|): the block is {21}
    # when (e, r) lies within classification_tol of the null cone |e| = |r|
    # relative to its own size, so the band neither depends on the scale
    # of T nor swallows near-scalar blocks
    D = (b - d) ** 2 - 4 * r * r
    size = abs(b - d) + 2 * abs(r)
    D_band = tol.classification_tol * size ** 2
    # b, r and d are sums of products of T with two entries of C0, and D
    # moves by at most 4 size err when they move by err
    err = _ERR * (1.0 + norm) * max(map(abs, v + p + q)) ** 2

    boundary = False
    if abs(r) <= band:
        ttype, kind = ONeillType.DIAGONAL, None
    elif abs(r) <= err:
        raise ValueError(f"O'Neill classification: r = {r:g} lies outside its "
                         f"band {band:g} but within its rounding error {err:g}")
    elif abs(D) <= D_band:
        ttype, kind = ONeillType.DOUBLE, "unit"
        boundary = bool(abs(D) > 0.0)
    elif abs(D) <= 4 * size * err:
        raise ValueError(f"O'Neill classification: D = {D:g} lies outside its "
                         f"band {D_band:g} but within its rounding error "
                         f"{4 * size * err:g}")
    elif D > 0:
        ttype, kind = ONeillType.DIAGONAL, "diag"
    else:
        ttype, kind = ONeillType.COMPLEX, "equal"
    C = matmul(C0, _block_transition(b, r, d, kind))

    normal = _conjugate(C, t)
    _check_transition(C, normal, ttype, band, lenient=boundary)
    return ONeillClassification(ttype, normal, C, D, boundary)


def _conjugate(C: Rows, T: Rows) -> Rows:
    """inv(C) T C for C in O(2,1), where inv(C) = J C^T J; _check_transition
    tests that C is in O(2,1)."""
    (x0, y0, z0), (x1, y1, z1), (x2, y2, z2) = C
    return matmul(matmul(((x0, x1, -x2), (y0, y1, -y2), (-z0, -z1, z2)), T), C)


def _check_transition(C, normal, ttype: ONeillType, band: float,
                      lenient: bool = False) -> None:
    # the columns x, y, z of C, and the entries of C^T J C - J from them
    (x0, y0, z0), (x1, y1, z1), (x2, y2, z2) = C
    gram_res = max(abs(x0 * x0 + x1 * x1 - x2 * x2 - 1.0),
                   abs(y0 * y0 + y1 * y1 - y2 * y2 - 1.0),
                   abs(z0 * z0 + z1 * z1 - z2 * z2 + 1.0),
                   abs(x0 * y0 + x1 * y1 - x2 * y2),
                   abs(x0 * z0 + x1 * z1 - x2 * z2),
                   abs(y0 * z0 + y1 * z1 - y2 * z2))
    # the residuals are sums of products of two (gram) or three (normal
    # form) entries of C, so both bands take max|C|^2
    band *= 100 * max(abs(x) for row in C for x in row) ** 2
    if gram_res > band:
        raise ArithmeticError(f"transition is not in O(2,1) (residual {gram_res:g})")
    res = _pattern_residual(normal, ttype)
    if res > band * (1e3 if lenient else 1.0):
        raise ArithmeticError(
            f"normal form residual {res:g} too large for type {ttype.value}")


def _pattern_residual(a: Rows, ttype: ONeillType) -> float:
    """Largest deviation of a normal form from the pattern of its type."""
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
    # every pattern is a00 plus a 2x2 block on (y2, y3)
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
