"""Reduction of Lorentzian metrics to canonical form under the
automorphism group of the Lie algebra.

Every metric matrix is driven to one of finitely many normal shapes by an
explicit chain of automorphisms (rotations / parameter folds / shears /
scalings), so the reduction doubles as a constructive equivalence test:
two metrics are isometric via an automorphism iff they reach the same
shape with the same parameters, and the accumulated chain is a witness.

Classification bases:

* GI and Gc with c > 1 are reduced in the natural basis,
* c = 1 in the Q-adapted basis, c < 1 in the P-adapted basis
  (natural-basis input is converted first).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .algebra import (BasisLabel, FamilyTag, adapted_automorphism,
                      adapted_basis_vectors, adapted_transition,
                      automorphism_matrix, classification_basis,
                      is_automorphism, make_family_algebra)
from .atlas import canonical_matrix
from .curvature import levi_civita, ricci_tensor, riemann
from .metric import (_I3, J21, MetricTensor, _signature, orthonormal_frame,
                     pull_back_metric)
from .tolerance import DEFAULT_TOL, ToleranceConfig


class DegenerateMetricError(ValueError):
    """Raised when the input fails signature validation or a reduction
    pivot sits inside the undecidable tolerance band."""


@dataclass(frozen=True)
class CanonicalForm:
    family: FamilyTag
    form_id: str
    params: dict[str, float]
    canonical_matrix: np.ndarray
    witness: np.ndarray          # automorphism in the classification basis
    basis_label: BasisLabel      # basis the canonical matrix lives in


#: the Riemann tensor of the unit-curvature model, J_im d_jl - J_jm d_il
_UNIT_MODEL = (np.einsum("im,jl->ijml", J21, _I3)
               - np.einsum("jm,il->ijml", J21, _I3))
_UNIT_MODEL.setflags(write=False)
#: the frame triples (i, j, m) of the model check
_TRIPLES = tuple(itertools.product(range(3), repeat=3))


class ConstantCurvatureClass(str, Enum):
    FLAT = "flat"
    POSITIVE = "positive"
    NEGATIVE = "negative"
    NON_CONSTANT = "non_constant"


def to_adapted_basis(tag: FamilyTag, h: MetricTensor) -> MetricTensor:
    """Rewrite a natural-basis metric in the adapted basis (c <= 1)."""
    if h.basis_label != BasisLabel.NATURAL:
        raise ValueError("expected a natural-basis metric")
    U = adapted_basis_vectors(tag)
    return pull_back_metric(h, U, basis_label=classification_basis(tag))


def from_adapted_basis(tag: FamilyTag, h: MetricTensor) -> MetricTensor:
    return pull_back_metric(h, adapted_transition(tag),
                            basis_label=BasisLabel.NATURAL)


def _strictly_lorentzian(C: np.ndarray) -> bool:
    """Whether the symmetric matrix C has signature (2, 0, 1), with no
    tolerance band.  det C < 0 leaves one or three negative eigenvalues,
    and three exactly when C is negative definite, which Sylvester's
    criterion reads off the leading minors C00 and C00 C11 - C01^2."""
    (a, b, c), (_, d, e), (_, _, f) = C.tolist()
    det = a * (d * f - e * e) - b * (b * f - c * e) + c * (b * e - c * d)
    return det < 0.0 and not (a < 0.0 and a * d - b * b > 0.0)


class _Reducer:
    """Accumulates automorphism steps and the congruence they induce."""

    def __init__(self, h0: np.ndarray, tol: ToleranceConfig):
        self.h0 = np.asarray(h0, dtype=float)
        self.tol = tol
        self.A = np.eye(3)
        self.cur = self.h0           # A^T h0 A, kept current by apply
        self.d = [max(map(abs, r)) for r in self.cur.tolist()]   # row maxima

    def band(self, *entries: float) -> float:
        """The zero band of a quantity combined from these entries."""
        return self.tol.classification_tol * max(map(abs, entries))

    def apply(self, B: np.ndarray) -> None:
        self.A = self.A @ B
        self.cur = self.A.T @ self.h0 @ self.A
        self.d = [max(map(abs, r)) for r in self.cur.tolist()]

    def entry(self, i: int, j: int) -> float:
        return float(self.cur[i, j])

    def is_zero(self, i: int, j: int) -> bool:
        """|cur_ij| <= tol sqrt(d_i d_j): the same verdict for every multiple of h."""
        tol, d = self.tol.classification_tol, self.d
        return abs(self.entry(i, j)) <= tol * math.sqrt(d[i] * d[j])

    def plane_degenerate(self) -> bool:
        """Whether the 2x2 block on span(x1, x2) is singular to tolerance."""
        c = self.cur
        p = c[0, 0] * c[1, 1] - c[0, 1] ** 2
        return abs(p) <= self.tol.classification_tol * self.d[0] * self.d[1]

    @staticmethod
    def scale_translate(g: float, t: tuple[float, float] = (0.0, 0.0)) -> np.ndarray:
        """[[g, 0, t1], [0, g, t2], [0, 0, 1]]: a scaling of the plane with a
        translation of z, an automorphism of every family in its
        classification basis."""
        return np.array([[g, 0.0, t[0]], [0.0, g, t[1]], [0.0, 0.0, 1.0]])

    def clear_translation(self) -> None:
        """Translate z so that the (x1, z) and (x2, z) entries vanish; the
        plane block must be non-degenerate."""
        c = self.cur
        pprime = c[0, 1] ** 2 - c[0, 0] * c[1, 1]
        self.apply(self.scale_translate(
            1.0, ((c[0, 2] * c[1, 1] - c[0, 1] * c[1, 2]) / pprime,
                  (c[0, 0] * c[1, 2] - c[0, 1] * c[0, 2]) / pprime)))

    def null_index(self) -> int:
        """For a rank-one plane block with the (x1, x2) entry cleared: 0 if
        x1 is the null vector, 1 if x2 is."""
        x1_null = self.is_zero(0, 0)
        if x1_null and self.is_zero(1, 1):
            raise DegenerateMetricError("rank-deficient plane block")
        return 0 if x1_null else 1

    def null_tail(self, i: int) -> float:
        """Drive a rank-one plane block with x_i null and (x1, x2) cleared to
        h(x_i, z) = 1 and (x_j, z) = (z, z) = 0, j = 1 - i; returns
        h(x_j, x_j), which must be positive."""
        j = 1 - i
        c = self.cur
        if self.is_zero(i, 2) or self.is_zero(j, j) or c[j, j] < 0:
            raise DegenerateMetricError("pivot vanishes in degenerate branch")
        t = [0.0, 0.0]
        t[j] = -c[j, 2] / c[j, j]
        self.apply(self.scale_translate(1.0 / c[i, 2], t))
        t = [0.0, 0.0]
        t[i] = -self.cur[2, 2] / 2.0
        self.apply(self.scale_translate(1.0, t))
        return self.entry(j, j)


def canonical_form(tag: FamilyTag, h: MetricTensor,
                   tol: ToleranceConfig = DEFAULT_TOL) -> CanonicalForm:
    """Reduce a Lorentzian metric to its canonical form.

    Accepts the metric in the classification basis of the family, or in
    the natural basis (converted automatically for c <= 1).  Raises
    DegenerateMetricError for non-Lorentzian input or pivots too close to
    a tolerance boundary to classify.
    """
    target = classification_basis(tag)
    if h.basis_label == target:
        h_cls = h
    elif h.basis_label == BasisLabel.NATURAL:
        h_cls = to_adapted_basis(tag, h)
    else:
        raise ValueError(f"metric basis {h.basis_label} not usable for {tag}")

    ev = np.linalg.eigvalsh(h_cls.entries).tolist()
    _, reason = _signature(ev, tol)
    if reason is not None:
        raise DegenerateMetricError(reason)

    key = tag.family_key()
    red = _Reducer(h_cls.entries, tol)
    if key == "GI":
        form_id, params = _reduce_gi(tag, red)
    elif key == "Gc_gt1":
        form_id, params = _reduce_gc_gt1(tag, red)
    elif key == "G1":
        form_id, params = _reduce_g1(tag, red)
    else:
        form_id, params = _reduce_gc_lt1(tag, red)

    canon = canonical_matrix(tag, form_id, params)
    # A^T h A is congruent to the validated input, so this strict test stands
    # in for a sign test per reducer branch; a banded test refuses good forms
    if not _strictly_lorentzian(canon):
        raise DegenerateMetricError("inconsistent signature in reduction")
    res = float(np.abs(red.cur - canon).max())
    if res > tol.classification_tol * float(np.abs(canon).max()) * 100:
        raise DegenerateMetricError(
            f"reduction residual {res:g} too large for form {form_id}")
    return CanonicalForm(tag, form_id, params, canon, red.A, target)


# --------------------------------------------------------------------------
# family GI (natural basis, GL(2) block automorphisms)

def _reduce_gi(tag: FamilyTag, red: _Reducer) -> tuple[str, dict[str, float]]:
    swap = automorphism_matrix(tag, block=[[0.0, 1.0], [1.0, 0.0]])
    if not red.is_zero(0, 1):
        c = red.cur
        theta = 0.5 * math.atan2(2 * c[0, 1], c[0, 0] - c[1, 1])
        rot = [[math.cos(theta), -math.sin(theta)],
               [math.sin(theta), math.cos(theta)]]
        red.apply(automorphism_matrix(tag, block=rot))
    if red.is_zero(0, 0):
        red.apply(swap)

    if red.is_zero(1, 1):
        # degenerate plane block, x2 null: drive to the off-diagonal model
        d1 = red.null_tail(1)
        red.apply(automorphism_matrix(
            tag, block=[[1.0 / math.sqrt(d1), 0.0], [0.0, 1.0]]))
        return "GI.3", {}

    # both pivots alive: translate, order signs, scale
    red.clear_translation()
    c = red.cur
    if c[0, 0] < 0 < c[1, 1]:
        red.apply(swap)
        c = red.cur
    red.apply(automorphism_matrix(tag, block=[[1.0 / math.sqrt(abs(c[0, 0])), 0.0],
                                              [0.0, 1.0 / math.sqrt(abs(c[1, 1]))]]))
    c = red.cur
    if c[1, 1] < 0:
        return "GI.1", {"mu": float(c[2, 2])}
    return "GI.2", {"mu": float(-c[2, 2])}


# --------------------------------------------------------------------------
# family Gc with c > 1 (natural basis, (alpha, beta) automorphisms)

def _reduce_gc_gt1(tag: FamilyTag, red: _Reducer) -> tuple[str, dict[str, float]]:
    cpar = tag.c
    if red.plane_degenerate():
        if not red.is_zero(0, 1):
            c = red.cur
            m = max(abs(c[0, 0]), abs(c[0, 1]))
            red.apply(automorphism_matrix(tag, alpha=c[0, 0] / m,
                                          beta=(c[0, 0] - c[0, 1]) / m))
        if red.null_index() == 0:
            red.apply(automorphism_matrix(tag, alpha=1.0, beta=-1.0))
        return "Gc_gt1.1", {"mu": red.null_tail(1)}

    # non-degenerate: kill the translation column
    red.clear_translation()

    c = red.cur
    band = red.band(c[0, 0], c[0, 1])
    if abs(c[0, 0] - c[0, 1]) > band:
        # fold so the two leading entries agree: root of a real quadratic
        aq = c[0, 0] - c[0, 1]
        bq = (cpar - 2.0) * c[0, 0] + 2.0 * c[0, 1] - c[1, 1]
        cq = -(cpar - 1.0) * aq
        disc = bq * bq - 4.0 * aq * cq
        roots = sorted([(-bq + math.sqrt(disc)) / (2 * aq),
                        (-bq - math.sqrt(disc)) / (2 * aq)],
                       key=lambda z: (abs(z), -z))
        red.apply(automorphism_matrix(tag, alpha=1.0, beta=roots[0]))
        c = red.cur
        # rounding in the fold scales with the entries it combined
        if abs(c[0, 0] - c[0, 1]) > band * 10:
            raise DegenerateMetricError("fold step failed to equalise entries")

    c = red.cur
    h11 = 0.5 * (c[0, 0] + c[0, 1])
    if abs(h11) <= red.band(c[0, 0], c[0, 1]):
        raise DegenerateMetricError("pivot vanishes after fold")
    red.apply(red.scale_translate(1.0 / math.sqrt(abs(h11))))
    c = red.cur
    eps = 1.0 if c[0, 0] > 0 else -1.0
    tau = c[1, 1] * eps
    mu = c[2, 2]

    if eps > 0 and tau < 1.0:
        return "Gc_gt1.2", {"mu": float(mu), "tau": float(tau)}
    if eps > 0:  # tau > 1 forces mu < 0
        nu = tau
        if nu > cpar + red.band(cpar):
            red.apply(automorphism_matrix(
                tag, alpha=1.0 / math.sqrt(nu - 1.0), beta=0.0))
            nu = red.entry(1, 1)
        # nu within the band above c is c, where the form's domain ends
        return "Gc_gt1.3", {"mu": float(-red.entry(2, 2)), "nu": float(min(nu, cpar))}
    # eps < 0: only tau < 1 is consistent with Lorentzian signature
    if tau >= 1.0:
        raise DegenerateMetricError("inconsistent signature in reduction")
    red.apply(automorphism_matrix(tag, alpha=1.0 / math.sqrt(1.0 - tau), beta=0.0))
    c = red.cur
    return "Gc_gt1.2", {"mu": float(c[2, 2]), "tau": float(c[1, 1])}


# --------------------------------------------------------------------------
# family Gc with c = 1 (Q-adapted basis, unipotent-diagonal automorphisms)

def _reduce_g1(tag: FamilyTag, red: _Reducer) -> tuple[str, dict[str, float]]:
    if red.plane_degenerate():
        if not red.is_zero(0, 1):
            c = red.cur
            if red.is_zero(0, 0):
                raise DegenerateMetricError("pivot vanishes in degenerate branch")
            m = max(abs(c[0, 0]), abs(c[0, 1]))
            red.apply(adapted_automorphism(tag, c[0, 0] / m, -c[0, 1] / m))
        i = red.null_index()
        return ("G1.1", "G1.2")[i], {"mu": red.null_tail(i)}

    red.clear_translation()

    c = red.cur
    if not red.is_zero(0, 0):
        if not red.is_zero(0, 1):
            m = max(abs(c[0, 0]), abs(c[0, 1]))
            red.apply(adapted_automorphism(tag, c[0, 0] / m, -c[0, 1] / m))
        c = red.cur
        red.apply(red.scale_translate(1.0 / math.sqrt(abs(c[0, 0]))))
        c = red.cur
        d1, d2, d3 = c[0, 0], c[1, 1], c[2, 2]
        if d1 > 0 and d2 < 0:
            return "G1.3", {"nu": float(-d2), "mu": float(d3)}
        if d1 > 0:
            return "G1.4", {"nu": float(d2), "mu": float(-d3)}
        return "G1.5", {"nu": float(d2), "mu": float(d3)}

    # h11 = 0 with non-degenerate block: h12 != 0
    m12 = c[0, 1]
    red.apply(red.scale_translate(1.0 / math.sqrt(abs(m12))))
    c = red.cur
    sgn = 1.0 if c[0, 1] > 0 else -1.0
    red.apply(adapted_automorphism(tag, 1.0, -sgn * c[1, 1] / 2.0))
    return ("G1.6" if sgn > 0 else "G1.7"), {"mu": red.entry(2, 2)}


# --------------------------------------------------------------------------
# family Gc with c < 1 (P-adapted basis, diagonal automorphisms)

def _reduce_gc_lt1(tag: FamilyTag, red: _Reducer) -> tuple[str, dict[str, float]]:
    if red.plane_degenerate():
        if not red.is_zero(0, 1):
            c = red.cur
            if red.is_zero(0, 0) or red.is_zero(1, 1):
                raise DegenerateMetricError("pivot vanishes in degenerate branch")
            red.apply(adapted_automorphism(tag, c[0, 1] / c[0, 0], 1.0))
            c = red.cur
            a = 0.5 * (c[0, 0] + c[0, 1])  # the block is a multiple of ones
            if a <= 0:
                raise DegenerateMetricError("inconsistent signature in reduction")
            red.apply(red.scale_translate(1.0 / math.sqrt(a)))
            c = red.cur
            nu_, lam = c[0, 2], c[1, 2]
            if abs(lam - nu_) <= red.band(lam, nu_):
                raise DegenerateMetricError("pivot vanishes in degenerate branch")
            red.apply(red.scale_translate(
                1.0, ((nu_ ** 2 - 2 * nu_ * lam + c[2, 2]) / (2 * (lam - nu_)),
                      (nu_ ** 2 - c[2, 2]) / (2 * (lam - nu_)))))
            mu = red.entry(1, 2)
            if mu < 0:
                red.apply(red.scale_translate(-1.0))
                mu = -mu
            return "Gc_lt1.3", {"mu": float(mu)}
        i = red.null_index()
        scale = [1.0, 1.0]
        scale[1 - i] = 1.0 / math.sqrt(red.null_tail(i))
        red.apply(adapted_automorphism(tag, *scale))
        return ("Gc_lt1.1", "Gc_lt1.2")[i], {}

    red.clear_translation()

    c = red.cur
    if red.is_zero(0, 1):
        red.apply(adapted_automorphism(tag, 1.0 / math.sqrt(abs(c[0, 0])),
                                       1.0 / math.sqrt(abs(c[1, 1]))))
        c = red.cur
        e1, e2, d3 = c[0, 0], c[1, 1], c[2, 2]
        if e1 > 0 and e2 > 0:
            return "Gc_lt1.4", {"mu": float(-d3)}
        return ("Gc_lt1.5" if e1 > 0 else "Gc_lt1.6"), {"mu": float(d3)}

    if red.is_zero(0, 0):
        if red.is_zero(1, 1):
            red.apply(adapted_automorphism(tag, 1.0 / c[0, 1], 1.0))
            return "Gc_lt1.7", {"mu": red.entry(2, 2)}
        r = math.sqrt(abs(c[1, 1]))
        red.apply(adapted_automorphism(tag, r / c[0, 1], 1.0 / r))
        c = red.cur
        return ("Gc_lt1.8" if c[1, 1] > 0 else "Gc_lt1.9"), {"mu": float(c[2, 2])}

    r = math.sqrt(abs(c[0, 0]))
    red.apply(adapted_automorphism(tag, 1.0 / r, r / c[0, 1]))
    c = red.cur
    eps, t, nu = c[0, 0], c[1, 1], c[2, 2]
    if eps > 0:
        return (("Gc_lt1.10-1" if nu > 0 else "Gc_lt1.10-2"),
                {"nu": float(nu), "tau": float(t)})
    return "Gc_lt1.11", {"mu": float(nu), "eta": float(-t)}


# --------------------------------------------------------------------------
# equivalence and constant curvature

def equivalent(tag: FamilyTag, h1: MetricTensor, h2: MetricTensor,
               tol: ToleranceConfig = DEFAULT_TOL
               ) -> tuple[bool, np.ndarray | None]:
    """Decide whether two metrics are related by an automorphism.

    Returns (flag, witness); the witness W satisfies W^T [h1] W = [h2] in
    the common input basis (both metrics must be given in the same basis).
    """
    if h1.basis_label != h2.basis_label:
        raise ValueError("metrics must be given in the same basis")
    cf1 = canonical_form(tag, h1, tol)
    cf2 = canonical_form(tag, h2, tol)
    if cf1.form_id != cf2.form_id:
        return False, None
    # entrywise by the reducer's rule, with d the row maxima of both matrices
    C1, C2 = cf1.canonical_matrix.tolist(), cf2.canonical_matrix.tolist()
    d = [max(map(abs, r1 + r2)) for r1, r2 in zip(C1, C2)]
    for i, j in itertools.combinations_with_replacement(range(3), 2):
        if (C1[i][j] - C2[i][j]) ** 2 > tol.classification_tol ** 2 * d[i] * d[j]:
            return False, None
    W = cf1.witness @ np.linalg.inv(cf2.witness)
    if h1.basis_label == BasisLabel.NATURAL and cf1.basis_label != BasisLabel.NATURAL:
        W = adapted_basis_vectors(tag) @ W @ adapted_transition(tag)
    res = float(np.abs(W.T @ h1.entries @ W - h2.entries).max())
    if res > tol.classification_tol * float(np.abs(h2.entries).max()) * 100:
        raise ArithmeticError(f"equivalence witness residual {res:g} too large")
    if not is_automorphism(make_family_algebra(tag, h1.basis_label), W, tol):
        raise ArithmeticError("equivalence witness is not an automorphism")
    return True, W


def constant_curvature_class(tag: FamilyTag, h: MetricTensor,
                             tol: ToleranceConfig = DEFAULT_TOL
                             ) -> tuple[ConstantCurvatureClass, CanonicalForm]:
    """Classify a metric as flat / positive / negative constant curvature
    or non-constant.

    The curvature engine decides on the input metric itself: the verdict
    is an isometry invariant, and near c = 1 the canonical representative
    is correctly signed but nearly singular, so a frame built on it is
    not.  In dimension three the Ricci tensor determines the whole
    curvature tensor (Milnor 1976), so the metric has constant curvature
    k = rho/6 exactly when it is Einstein, ric = 2k h; the Riemann tensor
    is then checked against the model k(<u, w> v - <v, w> u) as well.  The
    sign of k names the class.  No operator type is needed, so the
    O'Neill classifier is not run."""
    cf = canonical_form(tag, h, tol)
    conn = levi_civita(make_family_algebra(tag, h.basis_label),
                       orthonormal_frame(h, tol))
    ric = ricci_tensor(conn)
    k = float(ric[0, 0] + ric[1, 1] - ric[2, 2]) / 6.0
    # in units of the squared frame brackets, as curvature_report classifies
    band = tol.classification_tol * float(np.abs(conn.brackets).max()) ** 2
    if float(np.abs(ric - 2.0 * k * J21).max()) > band:
        return ConstantCurvatureClass.NON_CONSTANT, cf
    # R[i, j, m] = R_{y_i, y_j} y_m against k (J_im y_j - J_jm y_i), filled
    # in place and compared in one step
    R = np.empty((3, 3, 3, 3))
    for i, j, m in _TRIPLES:
        R[i, j, m] = riemann(conn, _I3[i], _I3[j], _I3[m])
    if float(np.abs(R - k * _UNIT_MODEL).max()) > band:
        return ConstantCurvatureClass.NON_CONSTANT, cf
    if abs(k) <= band:
        return ConstantCurvatureClass.FLAT, cf
    if k > 0:
        return ConstantCurvatureClass.POSITIVE, cf
    return ConstantCurvatureClass.NEGATIVE, cf
