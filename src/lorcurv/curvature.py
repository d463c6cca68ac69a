"""Curvature of a left-invariant Lorentzian metric, computed in an
orthonormal frame of the Lie algebra.

Everything is algebraic, and computed on Python floats: the Levi-Civita
connection of a left-invariant metric is determined by the Koszul formula
on frame brackets, and its Ricci matrix by a contraction of the
connection with itself and with the brackets.  In dimension three the
Weyl tensor vanishes, so Ric fixes the whole curvature tensor (Milnor
1976): with the Schouten form P = ric - (rho / 4) h,

    R_{u,v} w = P(u, w) v - P(v, w) u + h(u, w) P^ v - h(v, w) P^ u,

P^ the operator of P, and the 4-index tensor is never built per metric.

Sign convention for the curvature operator:

    R_{u,v} = nabla_{[u,v]} - [nabla_u, nabla_v]

so for the round model of curvature k one has
R_{u,v} w = k (h(u,w) v - h(v,w) u) and ric = 2k h.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from . import oneill
from .algebra import LieAlgebra3, _from_cross, cross_rewrite
from .arrays import Array, ArrayField, Rows, Vec, array, float_rows
from .metric import _I3, MetricTensor, OrthonormalFrame, _check_frame, _derived, \
    frame_inner, orthonormal_frame
from .tolerance import DEFAULT_TOL, ToleranceConfig

#: the diagonal of J
_SIGNS = (1.0, 1.0, -1.0)


def _at(i: int, j: int, k: int) -> int:
    """The index of [i][j][k] in a 3x3x3 array read flat."""
    return 9 * i + 3 * j + k


#: the Koszul formula on an orthonormal frame, gamma[i][j][k] = (c[i][j][k]
#: + e_j e_k c[k][i][j] + e_i e_k c[k][j][i]) / 2 with e the diagonal of J,
#: as the flat indices of its three constants and the two signs
_KOSZUL = tuple((_at(i, j, k), _at(k, i, j), _at(k, j, i), _SIGNS[j] * _SIGNS[k],
                 _SIGNS[i] * _SIGNS[k]) for i, j, k in itertools.product(range(3), repeat=3))
#: ric[i][k] for i <= k, the trace over a of R[i][a][k][a]:
#: sum over a, m of c[i][a][m] G[m][k][a] - G[a][k][m] G[i][m][a] + G[i][k][m] G[a][m][a],
#: its 27 products as index pairs into x = c + G + (-G), each read flat
_RICCI = tuple(((i, k), tuple(itertools.chain.from_iterable(
    ((_at(i, a, m), 27 + _at(m, k, a)), (54 + _at(a, k, m), 27 + _at(i, m, a)),
     (27 + _at(i, k, m), 27 + _at(a, m, a))) for a, m in itertools.product(range(3), repeat=2))))
    for i, k in itertools.combinations_with_replacement(range(3), 2))


@dataclass(frozen=True)
class Connection:
    """Levi-Civita connection in frame coordinates.

    brackets holds the structure constants of the frame vectors, so that
    covariant derivatives and curvature never need to leave frame
    coordinates; on an orthonormal frame they fix the connection, so it
    is built from them alone.  gamma[i, j, k], the k-th component of
    nabla_{y_i} y_j, and the Ricci matrix are computed from them once;
    gamma as an array and curvature[i, j, k, l], the l-th component of
    R_{y_i, y_j} y_k, are built on first read.
    """

    brackets: Array = ArrayField(3)    # (3, 3, 3), frame structure constants

    def __post_init__(self) -> None:
        x = [v for matrix in self._brackets for row in matrix for v in row]
        top = max(map(abs, x))
        # |gamma| <= 3/2 max|c|, so each of the 27 products summed into an
        # entry of Ric is at most 9/4 max|c|^2, the entry below 61 max|c|^2
        # and the Schouten form below 107 max|c|^2: past this check none
        # of them overflows
        if not (all(map(math.isfinite, x)) and math.isfinite(128.0 * top * top)):
            raise ValueError("curvature: the frame brackets or their Ricci matrix "
                             "overflow the float range")
        gamma = [0.5 * (x[p] + s * x[q] + t * x[r]) for p, q, r, s, t in _KOSZUL]
        x += gamma
        x += [-g for g in gamma]
        # each entry an exactly rounded sum of its products: Ric is small
        # where the brackets nearly cancel (near c = 1), and a {21} type
        # needs its block discriminant there to lie within the band
        ric = [[0.0] * 3 for _ in range(3)]
        for (i, k), terms in _RICCI:
            ric[i][k] = ric[k][i] = math.fsum([x[p] * x[q] for p, q in terms])
        (r00, r01, r02), (_, r11, r12), (_, _, r22) = ric
        quarter = 0.25 * (r00 + r11 - r22)
        memo = self.__dict__
        # gamma read flat, Ric, and the curvature unit s = max|c|^2
        memo["_gamma"], memo["_ric"], memo["_unit"] = gamma, tuple(map(tuple, ric)), top * top
        # the Schouten form P = ric - (rho / 4) J, which riemann reads
        memo["_schouten"] = ((r00 - quarter, r01, r02), (r01, r11 - quarter, r12),
                             (r02, r12, r22 + quarter))

    @property
    def gamma(self) -> Array:
        """The Christoffel symbols (3, 3, 3), read-only."""
        g = self._gamma
        return _derived(self, "gamma", lambda: array(
            [[g[_at(i, j, 0):_at(i, j, 3)] for j in range(3)] for i in range(3)],
            read_only=True))

    @property
    def curvature(self) -> Array:
        """The Riemann tensor (3, 3, 3, 3), read-only."""
        return _derived(self, "curvature", lambda: array(
            [[[riemann(self, u, v, w) for w in _I3] for v in _I3] for u in _I3],
            read_only=True))


def levi_civita(alg: LieAlgebra3, frame: OrthonormalFrame) -> Connection:
    """The Levi-Civita connection of an orthonormal frame, given by its
    brackets: the algebra's cross form rewritten by the cofactors of the
    frame (algebra.cross_rewrite), with no inverse taken.  The Koszul
    formula, 2 h(nabla_a b, y_k) = h([a,b], y_k) + h([y_k, a], b) +
    h([y_k, b], a) with h(x, y_k) = sign_k x_k, gives gamma from them."""
    return Connection(_from_cross(cross_rewrite(alg._cross, frame._columns)))


def _ricci(conn: Connection) -> tuple[Rows, float]:
    """The Ricci matrix of a connection, and the squared maximum of its
    frame brackets, the unit of its curvature."""
    return ricci_tensor(conn), conn._unit


def _connection(alg: LieAlgebra3, h: MetricTensor,
                tol: ToleranceConfig) -> tuple[Connection, Rows, float]:
    """h's connection on alg in h's own frame, with its _ricci, built once
    per (h, alg, tol)."""
    def build():
        conn = levi_civita(alg, orthonormal_frame(h, tol))
        return (conn, *_ricci(conn))
    return _derived(h, ("connection", alg, tol), build)


def riemann(conn: Connection, u, v, w) -> Vec:
    """R_{u,v} w = nabla_{[u,v]} w - nabla_u nabla_v w + nabla_v nabla_u w,
    for u, v, w vectors of frame coordinates, from the Schouten form P:
    P(u, w) v - P(v, w) u + P^ x, with x = h(u, w) v - h(v, w) u.

    The result is a tuple of three floats, not an array: the sectional
    curvatures and the Einstein model check call this per metric, in
    processes that never import numpy.  numpy.asarray(...) gives the
    vector for arithmetic."""
    (p00, p01, p02), (_, p11, p12), (_, _, p22) = conn._schouten
    u0, u1, u2 = u
    v0, v1, v2 = v
    w0, w1, w2 = w
    q0 = p00 * w0 + p01 * w1 + p02 * w2
    q1 = p01 * w0 + p11 * w1 + p12 * w2
    q2 = p02 * w0 + p12 * w1 + p22 * w2
    a = u0 * q0 + u1 * q1 + u2 * q2
    b = v0 * q0 + v1 * q1 + v2 * q2
    hu = u0 * w0 + u1 * w1 - u2 * w2
    hv = v0 * w0 + v1 * w1 - v2 * w2
    x0, x1, x2 = hu * v0 - hv * u0, hu * v1 - hv * u1, hu * v2 - hv * u2
    return (a * v0 - b * u0 + (p00 * x0 + p01 * x1 + p02 * x2),
            a * v1 - b * u1 + (p01 * x0 + p11 * x1 + p12 * x2),
            a * v2 - b * u2 - (p02 * x0 + p12 * x1 + p22 * x2))


def ricci_tensor(conn: Connection) -> Rows:
    """Matrix of ric(u, v) = sum_a sign_a h(R_{u, y_a} v, y_a) in the frame.

    With frame coordinates the trace collapses to summing the a-th
    component of R_{y_i, y_a} y_j; it is summed from gamma and the brackets
    when the connection is made.  The matrix is returned as its rows,
    tuples of floats, since every curvature report reads it;
    CurvatureReport.ric_matrix holds it as an array.
    """
    return conn._ric


def _ricci_operator(ric: Rows) -> Rows:
    """Raise an index with J: Ric = J [ric] (J-self-adjoint)."""
    r0, r1, (x, y, z) = ric
    return r0, r1, (-x, -y, -z)


def ricci_operator(ric) -> Array:
    """Raise an index with J: Ric = J [ric] (J-self-adjoint), an array."""
    return array(_ricci_operator(float_rows(ric)))


def sectional(conn: Connection, u, v, tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """kappa(u, v) = h(R_{u,v} u, v) / (h(u,u) h(v,v) - h(u,v)^2).

    Raises ValueError on a degenerate (lightlike) plane, where the
    denominator vanishes and the curvature of the plane is undefined.
    """
    u0, u1, u2 = u
    v0, v1, v2 = v
    den = ((u0 * u0 + u1 * u1 - u2 * u2) * (v0 * v0 + v1 * v1 - v2 * v2)
           - (u0 * v0 + u1 * v1 - u2 * v2) ** 2)
    # |u|^2 |v|^2 carries the units of den, so the band is free of scale
    if abs(den) <= tol.classification_tol * (
            (u0 * u0 + u1 * u1 + u2 * u2) * (v0 * v0 + v1 * v1 + v2 * v2)):
        raise ValueError("sectional curvature undefined on a degenerate plane")
    r0, r1, r2 = riemann(conn, u, v, u)
    return float((r0 * v0 + r1 * v1 - r2 * v2) / den)


def _lorentz_cross(u: Vec, v: Vec) -> Vec:
    """Lorentzian cross product in an orthonormal frame:
    y1 x y2 = -y3, y2 x y3 = y1, y3 x y1 = y2."""
    u0, u1, u2 = u
    v0, v1, v2 = v
    return u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, -(u0 * v1 - u1 * v0)


def cross(u, v) -> Array:
    """Lorentzian cross product in an orthonormal frame, an array:
    y1 x y2 = -y3, y2 x y3 = y1, y3 x y1 = y2."""
    return array(_lorentz_cross(float_rows(u, 1), float_rows(v, 1)))


def milnor_sectional(ric, rho: float, u, v,
                     tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Sectional curvature from Ricci data alone:

    h(u,u) h(v,v) kappa(u,v) = ric(u x v, u x v) - ||u x v||^2 rho / 2

    valid for h-orthonormal u, v; here u, v are only required to span a
    non-degenerate plane and are orthonormalised internally.
    """
    u, v = float_rows(u, 1), float_rows(v, 1)
    nu = frame_inner(u, u)
    if abs(nu) <= tol.classification_tol * sum(x * x for x in u):
        raise ValueError("u must be non-null")
    u1 = tuple(x / math.sqrt(abs(nu)) for x in u)
    f = math.copysign(1.0, nu) * frame_inner(u1, v)
    v1 = tuple(y - f * x for x, y in zip(u1, v))
    nv = frame_inner(v1, v1)
    if abs(nv) <= tol.classification_tol * sum(x * x for x in v1):
        raise ValueError("plane is degenerate")
    v1 = tuple(x / math.sqrt(abs(nv)) for x in v1)
    w = _lorentz_cross(u1, v1)
    ric_ww = sum(x * r * y for x, row in zip(w, float_rows(ric)) for r, y in zip(row, w))
    return (ric_ww - frame_inner(w, w) * rho / 2.0) * math.copysign(1.0, nu * nv)


@dataclass(frozen=True)
class CurvatureReport:
    """All curvature data of (algebra, metric) in one orthonormal frame."""

    frame: OrthonormalFrame
    connection: Connection
    ric_matrix: Array = ArrayField()             # symmetric, frame coords
    ricci_op: Array = ArrayField()               # J * ric
    scalar: float
    sectional: tuple[float, float, float]       # kappa(y1,y2), (y2,y3), (y3,y1)
    principal_ricci: tuple[complex, complex, complex]
    oneill: oneill.ONeillClassification

    def to_dict(self) -> dict:
        return {
            "frame": self.frame._columns,
            "ric": self._ric_matrix,
            "ricci_operator": self._ricci_op,
            "scalar": self.scalar,
            "sectional": {"k12": self.sectional[0], "k23": self.sectional[1],
                          "k31": self.sectional[2]},
            "principal_ricci": [{"re": z.real, "im": z.imag}
                                for z in self.principal_ricci],
            "oneill": {
                "type": self.oneill.type_tag.value,
                "normal_form": self.oneill._normal_form,
                "transition": self.oneill._transition,
                "discriminant": self.oneill.discriminant,
                "boundary_warning": bool(self.oneill.boundary_warning),
            },
        }


def _trace_form(brackets) -> list[float]:
    """tau_i = tr ad_{y_i}: n = J tau is normal to the unimodular kernel,
    which Ric leaves invariant, so n is an eigenvector of Ric."""
    return [sum(row[j][j] for j in range(3)) for row in brackets]


def _classify_ricci(op: Rows, tau, s: float,
                    tol: ToleranceConfig) -> oneill.ONeillClassification:
    """The O'Neill type of a Ricci operator op, the package's one rule:
    op / s and n = J tau go to the classifier, whose bands are absolute,
    and its normal form and D are scaled back, D as s (s D) so that D = 0
    stays 0 where s^2 overflows.  s is the squared largest bracket."""
    s = s or 1.0
    unit = oneill.classify_self_adjoint(
        tuple(tuple(x / s for x in row) for row in op), (tau[0], tau[1], -tau[2]), tol)
    return oneill.ONeillClassification(
        unit.type_tag, tuple(tuple(s * x for x in row) for row in unit._normal_form),
        unit._transition, s * (s * unit.discriminant), unit.boundary_warning)


def curvature_report(alg: LieAlgebra3, h: MetricTensor,
                     frame: OrthonormalFrame | None = None,
                     tol: ToleranceConfig = DEFAULT_TOL) -> CurvatureReport:
    """Compute the full curvature report of a left-invariant metric.  A
    passed frame is checked and gets its own connection.  The algebra must
    be non-unimodular: a unimodular one (tr ad = 0) raises ValueError, and
    so does a metric whose curvature overflows the float range."""
    if frame is None:
        frame = orthonormal_frame(h, tol)     # checked where it is built
        conn, ric, s = _connection(alg, h, tol)
    else:
        _check_frame(frame, h, tol)
        conn = levi_civita(alg, frame)
        ric, s = _ricci(conn)
    tau = _trace_form(conn._brackets)
    if max(map(abs, tau)) <= tol.classification_tol * math.sqrt(s):
        raise ValueError("curvature_report: the algebra is unimodular (tr ad = 0), "
                         "outside the non-unimodular domain of the classifier")
    op = _ricci_operator(ric)
    rho = op[0][0] + op[1][1] + op[2][2]
    y1, y2, y3 = _I3
    kappas = (sectional(conn, y1, y2, tol), sectional(conn, y2, y3, tol),
              sectional(conn, y3, y1, tol))
    cls = _classify_ricci(op, tau, s, tol)
    if not all(map(math.isfinite, (rho, *kappas, cls.discriminant,
                                   *itertools.chain(*cls._normal_form)))):
        raise ValueError("curvature_report: a curvature value overflows the float range")
    # the principal values from the normal form: a00, then the block's
    # [[b, r], [-r, d]] as b and d, m +- i r or the Jordan cell's m twice
    (a, _, _), (_, b, r), (_, r2, d) = cls._normal_form
    m, i = 0.5 * (b + d), 0.5j * (r - r2)
    values = {oneill.ONeillType.COMPLEX: (m + i, m - i),
              oneill.ONeillType.DOUBLE: (m, m)}.get(cls.type_tag, (b, d))
    principal = tuple(sorted((complex(z) for z in (a, *values)),
                             key=lambda z: (round(z.real, 12), z.imag)))
    return CurvatureReport(frame, conn, ric, op, rho, kappas, principal, cls)
