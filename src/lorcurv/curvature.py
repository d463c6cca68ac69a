"""Curvature of a left-invariant Lorentzian metric, computed in an
orthonormal frame of the Lie algebra.

Everything is algebraic: the Levi-Civita connection of a left-invariant
metric is determined by the Koszul formula on frame brackets, so the
whole curvature package reduces to finite-dimensional linear algebra.

Sign convention for the curvature operator:

    R_{u,v} = nabla_{[u,v]} - [nabla_u, nabla_v]

so for the round model of curvature k one has
R_{u,v} w = k (h(u,w) v - h(v,w) u) and ric = 2k h.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import LieAlgebra3, bracket_constants
from .metric import _I3, _SIGNS, J21, MetricTensor, OrthonormalFrame, \
    _check_frame, _derived, frame_inner, orthonormal_frame
from .oneill import ONeillClassification, ONeillType, classify_self_adjoint
from .tolerance import DEFAULT_TOL, ToleranceConfig

#: the frame signs of the Koszul formula, with its factor 1/2
_HALF_SIGNS = 0.5 * _SIGNS
_HALF_SIGNS.setflags(write=False)
#: the frame axes y1, y2, y3 as rows
_AXES = tuple(_I3)


@dataclass(frozen=True)
class Connection:
    """Levi-Civita connection in frame coordinates.

    gamma[i, j, k] is the k-th component of nabla_{y_i} y_j; brackets holds
    the structure constants of the frame vectors, so that covariant
    derivatives and curvature never need to leave frame coordinates.
    curvature[i, j, k, l] is the l-th component of R_{y_i, y_j} y_k.
    """

    gamma: np.ndarray      # (3, 3, 3)
    brackets: np.ndarray   # (3, 3, 3), frame structure constants
    curvature: np.ndarray  # (3, 3, 3, 3), Riemann tensor


def levi_civita(alg: LieAlgebra3, frame: OrthonormalFrame) -> Connection:
    """Koszul formula specialised to an orthonormal frame.

    2 h(nabla_a b, y_k) = h([a,b], y_k) + h([y_k, a], b) + h([y_k, b], a)
    and h(x, y_k) = sign_k x_k in frame coordinates.  The Riemann tensor
    is built here, once per connection:

    R[i,j,k,l] = sum_m c[i,j,m] G[m,k,l] - P[j,k,i,l] + P[i,k,j,l]

    with G = gamma and P[a,b,c,d] = sum_m G[a,b,m] G[c,m,d], so R takes
    two matrix products.  The arrays of the connection are read-only.
    """
    c = bracket_constants(alg.structure_constants, frame.columns)
    # with d[i, j, k] = sign_k c[i, j, k], d.transpose(1, 2, 0)[i, j, k] =
    # sign_j c[k, i, j] and d.transpose(2, 1, 0)[i, j, k] = sign_i c[k, j, i]
    d = _SIGNS * c
    gamma = _HALF_SIGNS * (d + d.transpose(1, 2, 0) + d.transpose(2, 1, 0))
    P = gamma.reshape(9, 3).dot(
        gamma.transpose(1, 0, 2).reshape(3, 9)).reshape(3, 3, 3, 3)
    curv = (c.reshape(9, 3).dot(gamma.reshape(3, 9)).reshape(3, 3, 3, 3)
            - P.transpose(2, 0, 1, 3) + P.transpose(0, 2, 1, 3))
    for array in (gamma, c, curv):
        array.setflags(write=False)
    return Connection(gamma, c, curv)


def _ricci(conn: Connection) -> tuple[np.ndarray, float]:
    """The Ricci matrix of a connection, read-only, and the squared
    maximum of its frame brackets, the unit of its curvature."""
    ric = ricci_tensor(conn)
    ric.setflags(write=False)
    return ric, float(np.abs(conn.brackets).max()) ** 2


def _connection(alg: LieAlgebra3, h: MetricTensor,
                tol: ToleranceConfig) -> tuple[Connection, np.ndarray, float]:
    """h's connection on alg in h's own frame, with its _ricci, built once
    per (h, alg, tol)."""
    def build():
        conn = levi_civita(alg, orthonormal_frame(h, tol))
        return (conn, *_ricci(conn))
    return _derived(h, ("connection", alg, tol), build)


def riemann(conn: Connection, u: np.ndarray, v: np.ndarray,
            w: np.ndarray) -> np.ndarray:
    """R_{u,v} w = nabla_{[u,v]} w - nabla_u nabla_v w + nabla_v nabla_u w,
    for u, v, w float arrays of frame coordinates.  The curvature tensor is
    contracted with u, v and w in turn, each an exact pick when its vector
    is a frame axis."""
    return w.dot(v.dot(u.dot(conn.curvature.reshape(3, 27)).reshape(3, 9))
                 .reshape(3, 3))


def ricci_tensor(conn: Connection) -> np.ndarray:
    """Matrix of ric(u, v) = sum_a sign_a h(R_{u, y_a} v, y_a) in the frame.

    With frame coordinates the trace collapses to summing the a-th
    component of R_{y_i, y_a} y_j.
    """
    ric = conn.curvature.trace(axis1=1, axis2=3)
    return 0.5 * (ric + ric.T)


def ricci_operator(ric: np.ndarray) -> np.ndarray:
    """Raise an index with J: Ric = J [ric] (J-self-adjoint)."""
    return J21 @ np.asarray(ric, dtype=float)


def sectional(conn: Connection, u: np.ndarray, v: np.ndarray,
              tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """kappa(u, v) = h(R_{u,v} u, v) / (h(u,u) h(v,v) - h(u,v)^2).

    Raises ValueError on a degenerate (lightlike) plane, where the
    denominator vanishes and the curvature of the plane is undefined.
    """
    u = np.asarray(u, float)
    v = np.asarray(v, float)
    u0, u1, u2 = u.tolist()
    v0, v1, v2 = v.tolist()
    den = ((u0 * u0 + u1 * u1 - u2 * u2) * (v0 * v0 + v1 * v1 - v2 * v2)
           - (u0 * v0 + u1 * v1 - u2 * v2) ** 2)
    # |u|^2 |v|^2 carries the units of den, so the band is free of scale
    if abs(den) <= tol.classification_tol * (
            (u0 * u0 + u1 * u1 + u2 * u2) * (v0 * v0 + v1 * v1 + v2 * v2)):
        raise ValueError("sectional curvature undefined on a degenerate plane")
    r0, r1, r2 = riemann(conn, u, v, u).tolist()
    return (r0 * v0 + r1 * v1 - r2 * v2) / den


def cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Lorentzian cross product in an orthonormal frame:
    y1 x y2 = -y3, y2 x y3 = y1, y3 x y1 = y2."""
    u = np.asarray(u, float)
    v = np.asarray(v, float)
    return np.array([u[1] * v[2] - u[2] * v[1],
                     u[2] * v[0] - u[0] * v[2],
                     -(u[0] * v[1] - u[1] * v[0])])


def milnor_sectional(ric: np.ndarray, rho: float, u: np.ndarray,
                     v: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Sectional curvature from Ricci data alone:

    h(u,u) h(v,v) kappa(u,v) = ric(u x v, u x v) - ||u x v||^2 rho / 2

    valid for h-orthonormal u, v; here u, v are only required to span a
    non-degenerate plane and are orthonormalised internally.
    """
    u = np.asarray(u, float)
    v = np.asarray(v, float)
    nu = frame_inner(u, u)
    if abs(nu) <= tol.classification_tol * float(u @ u):
        raise ValueError("u must be non-null")
    u1 = u / np.sqrt(abs(nu))
    v1 = v - np.sign(nu) * frame_inner(u1, v) * u1
    nv = frame_inner(v1, v1)
    if abs(nv) <= tol.classification_tol * float(v1 @ v1):
        raise ValueError("plane is degenerate")
    v1 = v1 / np.sqrt(abs(nv))
    w = cross(u1, v1)
    nw = frame_inner(w, w)
    ric_ww = float(w @ np.asarray(ric, float) @ w)
    return (ric_ww - nw * rho / 2.0) / (np.sign(nu) * np.sign(nv))


@dataclass(frozen=True)
class CurvatureReport:
    """All curvature data of (algebra, metric) in one orthonormal frame."""

    frame: OrthonormalFrame
    connection: Connection
    ric_matrix: np.ndarray                      # symmetric, frame coords
    ricci_op: np.ndarray                        # J * ric
    scalar: float
    sectional: tuple[float, float, float]       # kappa(y1,y2), (y2,y3), (y3,y1)
    principal_ricci: tuple[complex, complex, complex]
    oneill: ONeillClassification

    def to_dict(self) -> dict:
        return {
            "frame": self.frame.columns.tolist(),
            "ric": self.ric_matrix.tolist(),
            "ricci_operator": self.ricci_op.tolist(),
            "scalar": self.scalar,
            "sectional": {"k12": self.sectional[0], "k23": self.sectional[1],
                          "k31": self.sectional[2]},
            "principal_ricci": [{"re": z.real, "im": z.imag}
                                for z in self.principal_ricci],
            "oneill": {
                "type": self.oneill.type_tag.value,
                "normal_form": self.oneill.normal_form.tolist(),
                "transition": self.oneill.transition.tolist(),
                "discriminant": self.oneill.discriminant,
                "boundary_warning": bool(self.oneill.boundary_warning),
            },
        }


def curvature_report(alg: LieAlgebra3, h: MetricTensor,
                     frame: OrthonormalFrame | None = None,
                     tol: ToleranceConfig = DEFAULT_TOL) -> CurvatureReport:
    """Compute the full curvature report of a left-invariant metric.  A
    passed frame is checked and gets its own connection.  The algebra must
    be non-unimodular: a unimodular one (tr ad = 0) raises ValueError."""
    if frame is None:
        frame = orthonormal_frame(h, tol)     # checked where it is built
        conn, ric, s = _connection(alg, h, tol)
    else:
        _check_frame(frame, h, tol)
        conn = levi_civita(alg, frame)
        ric, s = _ricci(conn)
    # the h-dual n = J tau of the trace form tau_i = tr ad_{y_i} is normal
    # to the unimodular kernel, which Ric leaves invariant: an eigenvector
    tau = conn.brackets.trace(axis1=1, axis2=2).tolist()
    if max(map(abs, tau)) <= tol.classification_tol * s ** 0.5:
        raise ValueError("curvature_report: the algebra is unimodular (tr ad = 0), "
                         "outside the non-unimodular domain of the classifier")
    op = ricci_operator(ric)
    rho = float(op.trace())
    y1, y2, y3 = _AXES
    kappas = (sectional(conn, y1, y2, tol), sectional(conn, y2, y3, tol),
              sectional(conn, y3, y1, tol))
    # the classifier's bands are absolute: it sees Ric in units of the
    # squared frame brackets, and its normal form and D are scaled back
    s = s or 1.0
    unit = classify_self_adjoint(op / s, (tau[0], tau[1], -tau[2]), tol)
    cls = ONeillClassification(unit.type_tag, s * unit.normal_form,
                               unit.transition, s * s * unit.discriminant,
                               unit.boundary_warning)
    # the principal values from the normal form: a00, then the block's
    # [[b, r], [-r, d]] as b and d, m +- i r or the Jordan cell's m twice
    (a, _, _), (_, b, r), (_, r2, d) = cls.normal_form.tolist()
    m, i = 0.5 * (b + d), 0.5j * (r - r2)
    values = {ONeillType.COMPLEX: (m + i, m - i),
              ONeillType.DOUBLE: (m, m)}.get(cls.type_tag, (b, d))
    principal = tuple(sorted((complex(z) for z in (a, *values)),
                             key=lambda z: (round(z.real, 12), z.imag)))
    return CurvatureReport(frame, conn, ric, op, rho, kappas, principal, cls)
