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

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .algebra import (AutomorphismParams, BasisLabel, FamilyTag,
                      adapted_automorphism, adapted_basis_vectors,
                      automorphism_matrix, classification_basis,
                      is_automorphism, make_family_algebra)
from .atlas import canonical_matrix
from .curvature import curvature_report, riemann
from .metric import J21, MetricTensor, pull_back_metric, validate_metric
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
    U = adapted_basis_vectors(tag)
    return pull_back_metric(h, np.linalg.inv(U), basis_label=BasisLabel.NATURAL)


class _Reducer:
    """Accumulates automorphism steps and the congruence they induce."""

    def __init__(self, tag: FamilyTag, h0: np.ndarray, tol: ToleranceConfig):
        self.tag = tag
        self.h0 = np.asarray(h0, dtype=float)
        self.tol = tol
        self.A = np.eye(3)
        self.cur = self.h0           # A^T h0 A, kept current by apply

    def band(self) -> float:
        return self.tol.classification_tol * (1.0 + float(np.max(np.abs(self.cur))))

    def apply(self, B: np.ndarray) -> None:
        self.A = self.A @ np.asarray(B, dtype=float)
        self.cur = self.A.T @ self.h0 @ self.A

    def entry(self, i: int, j: int) -> float:
        return float(self.cur[i, j])

    def is_zero(self, i: int, j: int) -> bool:
        return abs(self.entry(i, j)) <= self.band()

    def plane_degenerate(self) -> bool:
        """Whether the 2x2 block on span(x1, x2) is singular to tolerance."""
        c = self.cur
        p = c[0, 0] * c[1, 1] - c[0, 1] ** 2
        scale2 = (1.0 + float(np.max(np.abs(c)))) ** 2
        return abs(p) <= self.tol.classification_tol * scale2

    def plane_translation(self) -> tuple[float, float]:
        """Translation (t1, t2) that clears the (x1, z) and (x2, z) entries
        when the plane block is non-degenerate."""
        c = self.cur
        pprime = c[0, 1] ** 2 - c[0, 0] * c[1, 1]
        return ((c[0, 2] * c[1, 1] - c[0, 1] * c[1, 2]) / pprime,
                (c[0, 0] * c[1, 2] - c[0, 1] * c[0, 2]) / pprime)


def _natural_step(tag: FamilyTag, *, block=None, alpha=None, beta=None,
                  translation=(0.0, 0.0)) -> np.ndarray:
    return automorphism_matrix(tag, AutomorphismParams(
        block=None if block is None else np.asarray(block, float),
        alpha=alpha, beta=beta, translation=translation))


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

    diag = validate_metric(h_cls, tol)
    if not diag.accepted:
        raise DegenerateMetricError(diag.reason or "invalid signature")

    key = tag.family_key()
    red = _Reducer(tag, h_cls.entries, tol)
    if key == "GI":
        form_id, params = _reduce_gi(tag, red)
    elif key == "Gc_gt1":
        form_id, params = _reduce_gc_gt1(tag, red)
    elif key == "G1":
        form_id, params = _reduce_g1(tag, red)
    else:
        form_id, params = _reduce_gc_lt1(tag, red)

    canon = canonical_matrix(tag, form_id, params)
    res = float(np.max(np.abs(red.cur - canon)))
    band = tol.classification_tol * (1.0 + float(np.max(np.abs(canon)))) * 100
    if res > band:
        raise DegenerateMetricError(
            f"reduction residual {res:g} too large for form {form_id}")
    return CanonicalForm(tag, form_id, params, canon, red.A, target)


# --------------------------------------------------------------------------
# family GI (natural basis, GL(2) block automorphisms)

def _reduce_gi(tag: FamilyTag, red: _Reducer) -> tuple[str, dict[str, float]]:
    swap = _natural_step(tag, block=[[0.0, 1.0], [1.0, 0.0]])
    if not red.is_zero(0, 1):
        c = red.cur
        theta = 0.5 * math.atan2(2 * c[0, 1], c[0, 0] - c[1, 1])
        rot = [[math.cos(theta), -math.sin(theta)],
               [math.sin(theta), math.cos(theta)]]
        red.apply(_natural_step(tag, block=rot))
    if red.is_zero(0, 0):
        red.apply(swap)

    if red.is_zero(1, 1):
        # degenerate plane block: drive to the off-diagonal model
        c = red.cur
        d1, m = c[0, 0], c[1, 2]
        if abs(d1) <= red.band() or abs(m) <= red.band():
            raise DegenerateMetricError("pivot vanishes in the degenerate branch")
        if d1 < 0:
            raise DegenerateMetricError("inconsistent signature in reduction")
        red.apply(_natural_step(tag, block=[[1.0 / math.sqrt(d1), 0.0], [0.0, 1.0]],
                                translation=(-c[0, 2] / d1, 0.0)))
        c = red.cur
        m, n = c[1, 2], c[2, 2]
        red.apply(_natural_step(tag, block=[[1.0, 0.0], [0.0, 1.0 / m]],
                                translation=(0.0, -n / (2 * m))))
        return "GI.3", {}

    # both pivots alive: translate, order signs, scale
    c = red.cur
    d1, d2 = c[0, 0], c[1, 1]
    red.apply(_natural_step(tag, block=[[1.0, 0.0], [0.0, 1.0]],
                            translation=(-c[0, 2] / d1, -c[1, 2] / d2)))
    c = red.cur
    d1, d2 = c[0, 0], c[1, 1]
    if d1 < 0 and d2 > 0:
        red.apply(swap)
        c = red.cur
        d1, d2 = c[0, 0], c[1, 1]
    if d1 < 0 and d2 < 0:
        raise DegenerateMetricError("inconsistent signature in reduction")
    red.apply(_natural_step(tag, block=[[1.0 / math.sqrt(abs(d1)), 0.0],
                                        [0.0, 1.0 / math.sqrt(abs(d2))]]))
    c = red.cur
    if c[1, 1] < 0:
        mu = c[2, 2]
        if mu <= 0:
            raise DegenerateMetricError("inconsistent signature in reduction")
        return "GI.1", {"mu": float(mu)}
    mu = -c[2, 2]
    if mu <= 0:
        raise DegenerateMetricError("inconsistent signature in reduction")
    return "GI.2", {"mu": float(mu)}


# --------------------------------------------------------------------------
# family Gc with c > 1 (natural basis, (alpha, beta) automorphisms)

def _reduce_gc_gt1(tag: FamilyTag, red: _Reducer) -> tuple[str, dict[str, float]]:
    cpar = float(tag.c)  # type: ignore[arg-type]
    if red.plane_degenerate():
        if not red.is_zero(0, 1):
            c = red.cur
            red.apply(_natural_step(tag, alpha=c[0, 0], beta=c[0, 0] - c[0, 1]))
        if red.is_zero(0, 0) and red.is_zero(1, 1):
            raise DegenerateMetricError("rank-deficient plane block")
        if red.is_zero(0, 0):
            red.apply(_natural_step(tag, alpha=1.0, beta=-1.0))
        c = red.cur
        m11, m13, m23 = c[0, 0], c[0, 2], c[1, 2]
        if abs(m23) <= red.band() or m11 <= 0:
            raise DegenerateMetricError("pivot vanishes in the degenerate branch")
        red.apply(_natural_step(
            tag, alpha=0.0, beta=1.0 / m23,
            translation=(-m13 / m11,
                         (m13 ** 2 - m11 * c[2, 2]) / (2 * m11 * m23))))
        mu = red.entry(0, 0)
        if mu <= 0:
            raise DegenerateMetricError("inconsistent signature in reduction")
        return "Gc_gt1.1", {"mu": mu}

    # non-degenerate: kill the translation column
    red.apply(_natural_step(tag, alpha=0.0, beta=1.0,
                            translation=red.plane_translation()))

    c = red.cur
    if abs(c[0, 0] - c[0, 1]) > red.band():
        # fold so the two leading entries agree: root of a real quadratic
        aq = c[0, 0] - c[0, 1]
        bq = (cpar - 2.0) * c[0, 0] + 2.0 * c[0, 1] - c[1, 1]
        cq = -(cpar - 1.0) * aq
        disc = bq * bq - 4.0 * aq * cq
        roots = sorted([(-bq + math.sqrt(disc)) / (2 * aq),
                        (-bq - math.sqrt(disc)) / (2 * aq)],
                       key=lambda z: (abs(z), -z))
        red.apply(_natural_step(tag, alpha=1.0, beta=roots[0]))
        c = red.cur
        if abs(c[0, 0] - c[0, 1]) > red.band() * 10:
            raise DegenerateMetricError("fold step failed to equalise entries")

    c = red.cur
    h11 = 0.5 * (c[0, 0] + c[0, 1])
    if abs(h11) <= red.band():
        raise DegenerateMetricError("pivot vanishes after fold")
    s = 1.0 / math.sqrt(abs(h11))
    red.apply(_natural_step(tag, alpha=0.0, beta=s))
    c = red.cur
    eps = 1.0 if c[0, 0] > 0 else -1.0
    tau = c[1, 1] * eps
    mu = c[2, 2]

    if eps > 0 and tau < 1.0:
        if mu <= 0:
            raise DegenerateMetricError("inconsistent signature in reduction")
        return "Gc_gt1.2", {"mu": float(mu), "tau": float(tau)}
    if eps > 0:  # tau > 1 forces mu < 0
        if mu >= 0:
            raise DegenerateMetricError("inconsistent signature in reduction")
        nu = tau
        if nu > cpar + red.band():
            red.apply(_natural_step(tag, alpha=1.0 / math.sqrt(nu - 1.0), beta=0.0))
            nu = red.entry(1, 1)
        return "Gc_gt1.3", {"mu": float(-red.entry(2, 2)), "nu": float(nu)}
    # eps < 0: only tau < 1 is consistent with Lorentzian signature
    if tau >= 1.0:
        raise DegenerateMetricError("inconsistent signature in reduction")
    red.apply(_natural_step(tag, alpha=1.0 / math.sqrt(1.0 - tau), beta=0.0))
    c = red.cur
    if c[2, 2] <= 0:
        raise DegenerateMetricError("inconsistent signature in reduction")
    return "Gc_gt1.2", {"mu": float(c[2, 2]), "tau": float(c[1, 1])}


# --------------------------------------------------------------------------
# family Gc with c = 1 (Q-adapted basis, unipotent-diagonal automorphisms)

def _reduce_g1(tag: FamilyTag, red: _Reducer) -> tuple[str, dict[str, float]]:
    if red.plane_degenerate():
        if not red.is_zero(0, 1):
            c = red.cur
            red.apply(adapted_automorphism(tag, c[0, 0], -c[0, 1]))
        if red.is_zero(0, 0) and red.is_zero(1, 1):
            raise DegenerateMetricError("rank-deficient plane block")
        c = red.cur
        if red.is_zero(0, 0):
            m22, m13 = c[1, 1], c[0, 2]
            if abs(m13) <= red.band() or m22 <= 0:
                raise DegenerateMetricError("pivot vanishes in degenerate branch")
            red.apply(adapted_automorphism(tag, 1.0 / m13, 0.0,
                                           (0.0, -c[1, 2] / m22)))
            c = red.cur
            red.apply(adapted_automorphism(tag, 1.0, 0.0, (-c[2, 2] / 2.0, 0.0)))
            return "G1.1", {"mu": red.entry(1, 1)}
        m11, m23 = c[0, 0], c[1, 2]
        if abs(m23) <= red.band() or m11 <= 0:
            raise DegenerateMetricError("pivot vanishes in degenerate branch")
        red.apply(adapted_automorphism(tag, 1.0 / m23, 0.0,
                                       (-c[0, 2] / m11, 0.0)))
        c = red.cur
        red.apply(adapted_automorphism(tag, 1.0, 0.0, (0.0, -c[2, 2] / 2.0)))
        return "G1.2", {"mu": red.entry(0, 0)}

    red.apply(adapted_automorphism(tag, 1.0, 0.0, red.plane_translation()))

    c = red.cur
    if not red.is_zero(0, 0):
        if not red.is_zero(0, 1):
            red.apply(adapted_automorphism(tag, c[0, 0], -c[0, 1]))
        c = red.cur
        s = 1.0 / math.sqrt(abs(c[0, 0]))
        red.apply(adapted_automorphism(tag, s, 0.0))
        c = red.cur
        d1, d2, d3 = c[0, 0], c[1, 1], c[2, 2]
        if d1 > 0 and d2 < 0:
            if d3 <= 0:
                raise DegenerateMetricError("inconsistent signature in reduction")
            return "G1.3", {"nu": float(-d2), "mu": float(d3)}
        if d1 > 0:
            if d3 >= 0 or d2 <= 0:
                raise DegenerateMetricError("inconsistent signature in reduction")
            return "G1.4", {"nu": float(d2), "mu": float(-d3)}
        if d2 <= 0 or d3 <= 0:
            raise DegenerateMetricError("inconsistent signature in reduction")
        return "G1.5", {"nu": float(d2), "mu": float(d3)}

    # h11 = 0 with non-degenerate block: h12 != 0
    m12 = c[0, 1]
    g = 1.0 / math.sqrt(abs(m12))
    red.apply(adapted_automorphism(tag, g, 0.0))
    c = red.cur
    sgn = 1.0 if c[0, 1] > 0 else -1.0
    red.apply(adapted_automorphism(tag, 1.0, -sgn * c[1, 1] / 2.0))
    mu = red.entry(2, 2)
    if mu <= 0:
        raise DegenerateMetricError("inconsistent signature in reduction")
    return ("G1.6" if sgn > 0 else "G1.7"), {"mu": float(mu)}


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
            s = 1.0 / math.sqrt(a)
            red.apply(adapted_automorphism(tag, s, s))
            c = red.cur
            nu_, lam = c[0, 2], c[1, 2]
            if abs(lam - nu_) <= red.band():
                raise DegenerateMetricError("pivot vanishes in degenerate branch")
            red.apply(adapted_automorphism(
                tag, 1.0, 1.0,
                ((nu_ ** 2 - 2 * nu_ * lam + c[2, 2]) / (2 * (lam - nu_)),
                 (nu_ ** 2 - c[2, 2]) / (2 * (lam - nu_)))))
            mu = red.entry(1, 2)
            if mu < 0:
                red.apply(adapted_automorphism(tag, -1.0, -1.0))
                mu = -mu
            return "Gc_lt1.3", {"mu": float(mu)}
        c = red.cur
        if red.is_zero(0, 0) and red.is_zero(1, 1):
            raise DegenerateMetricError("rank-deficient plane block")
        if red.is_zero(0, 0):
            m22, m13 = c[1, 1], c[0, 2]
            if abs(m13) <= red.band() or m22 <= 0:
                raise DegenerateMetricError("pivot vanishes in degenerate branch")
            g = 1.0 / m13
            red.apply(adapted_automorphism(tag, g, g, (0.0, -c[1, 2] / m22)))
            c = red.cur
            red.apply(adapted_automorphism(
                tag, 1.0, 1.0 / math.sqrt(c[1, 1]), (-c[2, 2] / 2.0, 0.0)))
            return "Gc_lt1.1", {}
        m11, m23 = c[0, 0], c[1, 2]
        if abs(m23) <= red.band() or m11 <= 0:
            raise DegenerateMetricError("pivot vanishes in degenerate branch")
        g = 1.0 / m23
        red.apply(adapted_automorphism(tag, g, g, (-c[0, 2] / m11, 0.0)))
        c = red.cur
        red.apply(adapted_automorphism(
            tag, 1.0 / math.sqrt(c[0, 0]), 1.0, (0.0, -c[2, 2] / 2.0)))
        return "Gc_lt1.2", {}

    red.apply(adapted_automorphism(tag, 1.0, 1.0, red.plane_translation()))

    c = red.cur
    if red.is_zero(0, 1):
        red.apply(adapted_automorphism(tag, 1.0 / math.sqrt(abs(c[0, 0])),
                                       1.0 / math.sqrt(abs(c[1, 1]))))
        c = red.cur
        e1, e2, d3 = c[0, 0], c[1, 1], c[2, 2]
        if e1 > 0 and e2 > 0:
            if d3 >= 0:
                raise DegenerateMetricError("inconsistent signature in reduction")
            return "Gc_lt1.4", {"mu": float(-d3)}
        if d3 <= 0:
            raise DegenerateMetricError("inconsistent signature in reduction")
        if e1 > 0:
            return "Gc_lt1.5", {"mu": float(d3)}
        if e2 > 0:
            return "Gc_lt1.6", {"mu": float(d3)}
        raise DegenerateMetricError("inconsistent signature in reduction")

    if red.is_zero(0, 0):
        if red.is_zero(1, 1):
            red.apply(adapted_automorphism(tag, 1.0 / c[0, 1], 1.0))
            mu = red.entry(2, 2)
            if mu <= 0:
                raise DegenerateMetricError("inconsistent signature in reduction")
            return "Gc_lt1.7", {"mu": float(mu)}
        r = math.sqrt(abs(c[1, 1]))
        red.apply(adapted_automorphism(tag, r / c[0, 1], 1.0 / r))
        c = red.cur
        mu = c[2, 2]
        if mu <= 0:
            raise DegenerateMetricError("inconsistent signature in reduction")
        return ("Gc_lt1.8" if c[1, 1] > 0 else "Gc_lt1.9"), {"mu": float(mu)}

    r = math.sqrt(abs(c[0, 0]))
    red.apply(adapted_automorphism(tag, 1.0 / r, r / c[0, 1]))
    c = red.cur
    eps, t, nu = c[0, 0], c[1, 1], c[2, 2]
    if eps > 0:
        if nu > 0 and t < 1.0:
            return "Gc_lt1.10-1", {"nu": float(nu), "tau": float(t)}
        if nu < 0 and t > 1.0:
            return "Gc_lt1.10-2", {"nu": float(nu), "tau": float(t)}
        raise DegenerateMetricError("inconsistent signature in reduction")
    eta = -t
    if eta >= 1.0 or nu <= 0:
        raise DegenerateMetricError("inconsistent signature in reduction")
    return "Gc_lt1.11", {"mu": float(nu), "eta": float(eta)}


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
    for name, v1 in cf1.params.items():
        v2 = cf2.params[name]
        if abs(v1 - v2) > tol.classification_tol * (1.0 + abs(v1)):
            return False, None
    W = cf1.witness @ np.linalg.inv(cf2.witness)
    if h1.basis_label == BasisLabel.NATURAL and cf1.basis_label != BasisLabel.NATURAL:
        U = adapted_basis_vectors(tag)
        W = U @ W @ np.linalg.inv(U)
    res = float(np.max(np.abs(W.T @ h1.entries @ W - h2.entries)))
    scale = 1.0 + float(np.max(np.abs(h2.entries)))
    if res > tol.classification_tol * scale * 100:
        raise ArithmeticError(f"equivalence witness residual {res:g} too large")
    alg = make_family_algebra(tag, h1.basis_label) \
        if h1.basis_label != BasisLabel.CUSTOM else None
    if alg is not None and not is_automorphism(alg, W, tol):
        raise ArithmeticError("equivalence witness is not an automorphism")
    return True, W


def constant_curvature_class(tag: FamilyTag, h: MetricTensor,
                             tol: ToleranceConfig = DEFAULT_TOL
                             ) -> tuple[ConstantCurvatureClass, CanonicalForm]:
    """Classify a metric as flat / positive / negative constant curvature
    or non-constant.

    The curvature engine decides on the canonical representative.  In
    dimension three the Ricci tensor determines the whole curvature tensor
    (Milnor 1976), so the metric has constant curvature k = rho/6 exactly
    when it is Einstein, ric = 2k h; the Riemann tensor is then checked
    against the model k(<u, w> v - <v, w> u) as well.  The sign of k names
    the class."""
    cf = canonical_form(tag, h, tol)
    alg = make_family_algebra(tag, cf.basis_label)
    hc = MetricTensor(cf.canonical_matrix, basis_label=cf.basis_label,
                      tolerance=tol)
    report = curvature_report(alg, hc, tol=tol)
    k = report.scalar / 6.0
    band = tol.classification_tol * (1.0 + float(np.max(np.abs(report.ric_matrix))))
    if float(np.max(np.abs(report.ric_matrix - 2.0 * k * J21))) > band:
        return ConstantCurvatureClass.NON_CONSTANT, cf
    e = np.eye(3)
    model_res = 0.0
    for i in range(3):
        for j in range(3):
            for m in range(3):
                rv = riemann(report.connection, e[i], e[j], e[m])
                model = k * (float(e[i] @ J21 @ e[m]) * e[j]
                             - float(e[j] @ J21 @ e[m]) * e[i])
                model_res = max(model_res, float(np.max(np.abs(rv - model))))
    if model_res > band:
        return ConstantCurvatureClass.NON_CONSTANT, cf
    if abs(k) <= band:
        return ConstantCurvatureClass.FLAT, cf
    if k > 0:
        return ConstantCurvatureClass.POSITIVE, cf
    return ConstantCurvatureClass.NEGATIVE, cf
