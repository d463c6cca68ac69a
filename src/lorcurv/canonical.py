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

In its classification basis every automorphism of these families is
A = [[P, t], [0, 1]], with P a 2x2 block and t a translation of z.  The
reducer works on the block form h = [[H, b], [b^T, gamma]]: each step is
a (P, t) pair of Python floats from ``automorphism_step``, and after each
step H, b and gamma of A^T h A are recomputed from the input's blocks and
the accumulated (P, t).  Every decision reads those entries.  The
witness array is built once at the end, and A^T h A is formed once from
it with numpy to check the residual against the canonical matrix.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .algebra import (BasisLabel, FamilyTag, Step, adapted_basis_vectors,
                      adapted_transition, automorphism_step,
                      classification_basis, is_automorphism,
                      make_family_algebra, step_matrix)
from .atlas import canonical_matrix
from .curvature import _connection, ricci_tensor, riemann
from .metric import _I3, J21, MetricTensor, _derived, _eigh, _signature, pull_back_metric
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
#: the frame axes (y_i, y_j, y_m) of the model check, (i, j, m) in
#: lexicographic order
_AXIS_TRIPLES = tuple(itertools.product(tuple(_I3), repeat=3))
#: the entries (i, j), i <= j, of a symmetric 3x3 matrix
_UPPER = tuple(itertools.combinations_with_replacement(range(3), 2))


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


def _entrywise_gap(A: np.ndarray, B: np.ndarray) -> float:
    """max |A_ij - B_ij| / sqrt(d_i d_j), d the row maxima of both symmetric
    matrices: _Reducer.is_zero entry by entry, a margin free of scale."""
    A, B = A.tolist(), B.tolist()
    d = [max(map(abs, a + b)) for a, b in zip(A, B)]
    return max([abs(A[i][j] - B[i][j]) / math.sqrt(d[i] * d[j]) for i, j in _UPPER])


def _strictly_lorentzian(C: np.ndarray) -> bool:
    """Whether the symmetric matrix C has signature (2, 0, 1), with no
    tolerance band.  det C < 0 leaves one or three negative eigenvalues,
    and three exactly when C is negative definite, which Sylvester's
    criterion reads off the leading minors C00 and C00 C11 - C01^2."""
    (a, b, c), (_, d, e), (_, _, f) = C.tolist()
    det = a * (d * f - e * e) - b * (b * f - c * e) + c * (b * e - c * d)
    return det < 0.0 and not (a < 0.0 and a * d - b * b > 0.0)


class _Reducer:
    """Accumulates automorphism steps A = [[P, t], [0, 1]] of the
    classification basis, and holds A^T h0 A in its block form
    [[H, b], [b^T, gamma]] as Python floats:

        H = P^T H0 P,  b = P^T (H0 t + b0),  gamma = t^T (H0 t + b0) + b0^T t + gamma0,

    recomputed from h0's blocks and (P, t) after every step, so rounding
    is not carried from one step to the next."""

    def __init__(self, h0: np.ndarray, tol: ToleranceConfig):
        self.tol = tol
        (h11, h12, b1), (_, h22, b2), (_, _, g) = h0.tolist()
        self._h0 = (h11, h12, h22, b1, b2, g)
        self.P = ((1.0, 0.0), (0.0, 1.0))
        self.t = (0.0, 0.0)
        self.H = ((h11, h12), (h12, h22))
        self.b = (b1, b2)
        self.gamma = g

    def apply(self, step: Step) -> None:
        """Compose with the step (Q, s): P <- P Q, t <- P s + t."""
        ((a, b), (c, d)), (s1, s2) = step
        (p, q), (r, s) = self.P
        t1, t2 = self.t
        t1, t2 = p * s1 + q * s2 + t1, r * s1 + s * s2 + t2
        p, q, r, s = p * a + q * c, p * b + q * d, r * a + s * c, r * b + s * d
        self.P, self.t = ((p, q), (r, s)), (t1, t2)
        # summed in the order of the product (A^T h0) A: the rows m of
        # P^T H0, and u = H0 t + b0, first
        h11, h12, h22, b1, b2, g = self._h0
        m11, m12 = p * h11 + r * h12, p * h12 + r * h22
        m21, m22 = q * h11 + s * h12, q * h12 + s * h22
        u1, u2 = t1 * h11 + t2 * h12 + b1, t1 * h12 + t2 * h22 + b2
        k12 = m11 * q + m12 * s
        self.H = ((m11 * p + m12 * r, k12), (k12, m21 * q + m22 * s))
        self.b = (m11 * t1 + m12 * t2 + (p * b1 + r * b2),
                  m21 * t1 + m22 * t2 + (q * b1 + s * b2))
        self.gamma = u1 * t1 + u2 * t2 + (t1 * b1 + t2 * b2 + g)

    def scale_translate(self, g: float, t: tuple[float, float] = (0.0, 0.0)) -> None:
        """Apply P = g I with translation t: a scaling of the plane with a
        translation of z, an automorphism of every family in its
        classification basis."""
        self.apply((((g, 0.0), (0.0, g)), t))

    def witness(self) -> np.ndarray:
        """The accumulated automorphism A as an array."""
        return step_matrix((self.P, self.t))

    def entry(self, i: int, j: int) -> float:
        """(A^T h0 A)_ij, read from the block it lies in."""
        if i < 2 and j < 2:
            return self.H[i][j]
        if i == j:
            return self.gamma
        return self.b[min(i, j)]

    def row_max(self, i: int) -> float:
        """d_i = max_k |(A^T h0 A)_ik|."""
        if i == 2:
            return max(abs(self.b[0]), abs(self.b[1]), abs(self.gamma))
        return max(abs(self.H[i][0]), abs(self.H[i][1]), abs(self.b[i]))

    def band(self, *entries: float) -> float:
        """The zero band of a quantity combined from these entries."""
        return self.tol.classification_tol * max(map(abs, entries))

    def is_zero(self, i: int, j: int) -> bool:
        """|h_ij| <= tol sqrt(d_i d_j): the same verdict for every multiple of h."""
        return (abs(self.entry(i, j)) <= self.tol.classification_tol
                * math.sqrt(self.row_max(i) * self.row_max(j)))

    def plane_degenerate(self) -> bool:
        """Whether the plane block H is singular to tolerance."""
        (h11, h12), (_, h22) = self.H
        return (abs(h11 * h22 - h12 * h12)
                <= self.tol.classification_tol * self.row_max(0) * self.row_max(1))

    def clear_translation(self) -> None:
        """Translate z by -H^-1 b, so that b vanishes; H must be
        non-degenerate."""
        (h11, h12), (_, h22) = self.H
        b1, b2 = self.b
        pprime = h12 * h12 - h11 * h22
        self.scale_translate(1.0, ((b1 * h22 - h12 * b2) / pprime,
                                   (h11 * b2 - h12 * b1) / pprime))

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
        hjj = self.H[j][j]
        if self.is_zero(i, 2) or self.is_zero(j, j) or hjj < 0:
            raise DegenerateMetricError("pivot vanishes in degenerate branch")
        t = [0.0, 0.0]
        t[j] = -self.b[j] / hjj
        self.scale_translate(1.0 / self.b[i], t)
        t = [0.0, 0.0]
        t[i] = -self.gamma / 2.0
        self.scale_translate(1.0, t)
        return self.H[j][j]


def canonical_form(tag: FamilyTag, h: MetricTensor,
                   tol: ToleranceConfig = DEFAULT_TOL) -> CanonicalForm:
    """Reduce a Lorentzian metric to its canonical form.

    Accepts the metric in the classification basis of the family, or in the
    natural basis (converted automatically for c <= 1).  Raises
    DegenerateMetricError for non-Lorentzian input or pivots too close to a
    tolerance boundary to classify.  Reduced once per (h, tag, tol); each
    call gets its own params, and a read-only matrix and witness.
    """
    cf = _derived(h, ("canonical", tag, tol), lambda: _reduce(tag, h, tol))
    return CanonicalForm(cf.family, cf.form_id, dict(cf.params),
                         cf.canonical_matrix, cf.witness, cf.basis_label)


def _reduce(tag: FamilyTag, h: MetricTensor,
            tol: ToleranceConfig) -> CanonicalForm:
    target = classification_basis(tag)
    if h.basis_label not in (target, BasisLabel.NATURAL):
        raise ValueError(f"metric basis {h.basis_label} not usable for {tag}")
    # a basis change keeps the signature but can blur it: read it on h as given
    _, reason = _signature(_eigh(h)[0].tolist(), tol)
    if reason is not None:
        raise DegenerateMetricError(reason)
    h_cls = h if h.basis_label == target else to_adapted_basis(tag, h)

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
    # the one product of the reduction: the residual reads the witness
    # returned, not the entries the steps held
    W = red.witness()
    gap = _entrywise_gap(W.T @ h_cls.entries @ W, canon)
    if gap > 100 * tol.classification_tol:
        raise DegenerateMetricError(
            f"reduction residual {gap:g} too large for form {form_id}")
    canon.setflags(write=False)
    W.setflags(write=False)
    return CanonicalForm(tag, form_id, params, canon, W, target)


# --------------------------------------------------------------------------
# family GI (natural basis, GL(2) block automorphisms)

def _reduce_gi(tag: FamilyTag, red: _Reducer) -> tuple[str, dict[str, float]]:
    swap = automorphism_step(tag, block=((0.0, 1.0), (1.0, 0.0)))
    if not red.is_zero(0, 1):
        (h11, h12), (_, h22) = red.H
        theta = 0.5 * math.atan2(2 * h12, h11 - h22)
        cos, sin = math.cos(theta), math.sin(theta)
        red.apply(automorphism_step(tag, block=((cos, -sin), (sin, cos))))
    if red.is_zero(0, 0):
        red.apply(swap)

    if red.is_zero(1, 1):
        # degenerate plane block, x2 null: drive to the off-diagonal model
        d1 = red.null_tail(1)
        red.apply(automorphism_step(
            tag, block=((1.0 / math.sqrt(d1), 0.0), (0.0, 1.0))))
        return "GI.3", {}

    # both pivots alive: translate, order signs, scale
    red.clear_translation()
    if red.H[0][0] < 0 < red.H[1][1]:
        red.apply(swap)
    (h11, _), (_, h22) = red.H
    red.apply(automorphism_step(tag, block=((1.0 / math.sqrt(abs(h11)), 0.0),
                                            (0.0, 1.0 / math.sqrt(abs(h22))))))
    if red.H[1][1] < 0:
        return "GI.1", {"mu": red.gamma}
    return "GI.2", {"mu": -red.gamma}


# --------------------------------------------------------------------------
# family Gc with c > 1 (natural basis, (alpha, beta) automorphisms)

def _reduce_gc_gt1(tag: FamilyTag, red: _Reducer) -> tuple[str, dict[str, float]]:
    cpar = tag.c
    if red.plane_degenerate():
        if not red.is_zero(0, 1):
            (h11, h12), _ = red.H
            m = max(abs(h11), abs(h12))
            red.apply(automorphism_step(tag, alpha=h11 / m, beta=(h11 - h12) / m))
        if red.null_index() == 0:
            red.apply(automorphism_step(tag, alpha=1.0, beta=-1.0))
        return "Gc_gt1.1", {"mu": red.null_tail(1)}

    # non-degenerate: kill the translation column, then fold the plane block
    # H to [[m, m], [m, t m]] by P = beta I + alpha K, (P^T H P)_11 =
    # (P^T H P)_12, and scale m to 1.  The fold condition is the quadratic
    # aq beta^2 + bq alpha beta + cq alpha^2 = 0, whose projective roots,
    # taken without cancellation, are (aq, q) and (q, cq); q = 0 only when
    # every (alpha, beta) folds.  The roots' t satisfy (t - 1)(t' - 1) =
    # (c - 1)^2: for det H < 0 one root has m > 0, and it gives t < 1
    # (Gc_gt1.2); for det H > 0 both do, on either side of c, and the one
    # at or below c is nu (Gc_gt1.3).  So the root taken is the one that
    # lands in the canonical domain, and no second step is needed.
    red.clear_translation()
    (h11, h12), (_, h22) = red.H
    aq = h11 - h12
    bq = (cpar - 2.0) * h11 + 2.0 * h12 - h22
    cq = -(cpar - 1.0) * aq
    q = -0.5 * (bq + math.copysign(math.sqrt(bq * bq - 4.0 * aq * cq), bq))
    best = None
    for alpha, beta in ((aq, q), (q, cq)) if q else ((0.0, 1.0),):
        s = max(abs(alpha), abs(beta))      # so m has the degree of h
        alpha, beta = alpha / s, beta / s
        u, x, y = beta - alpha, -cpar * alpha, beta + alpha   # P = [[u, x], [alpha, y]]
        m = h11 * u * u + 2.0 * h12 * u * alpha + h22 * alpha * alpha
        if m > 0.0:
            t = (h11 * x * x + 2.0 * h12 * x * y + h22 * y * y) / m
            # t within the band above c is nu = c, where the domain ends
            if t <= cpar + red.band(cpar) and (best is None or t > best[0]):
                best = (t, alpha / math.sqrt(m), beta / math.sqrt(m))
    if best is None:
        raise DegenerateMetricError("inconsistent signature in reduction")
    red.apply(automorphism_step(tag, alpha=best[1], beta=best[2]))
    t = red.H[1][1]
    if t < 1.0:
        return "Gc_gt1.2", {"mu": red.gamma, "tau": t}
    return "Gc_gt1.3", {"mu": -red.gamma, "nu": min(t, cpar)}


# --------------------------------------------------------------------------
# family Gc with c = 1 (Q-adapted basis, unipotent-diagonal automorphisms)

def _reduce_g1(tag: FamilyTag, red: _Reducer) -> tuple[str, dict[str, float]]:
    if red.plane_degenerate():
        if not red.is_zero(0, 1):
            if red.is_zero(0, 0):
                raise DegenerateMetricError("pivot vanishes in degenerate branch")
            (h11, h12), _ = red.H
            m = max(abs(h11), abs(h12))
            red.apply(automorphism_step(tag, gamma=h11 / m, delta=-h12 / m))
        i = red.null_index()
        return ("G1.1", "G1.2")[i], {"mu": red.null_tail(i)}

    red.clear_translation()

    if not red.is_zero(0, 0):
        if not red.is_zero(0, 1):
            (h11, h12), _ = red.H
            m = max(abs(h11), abs(h12))
            red.apply(automorphism_step(tag, gamma=h11 / m, delta=-h12 / m))
        red.scale_translate(1.0 / math.sqrt(abs(red.H[0][0])))
        (d1, _), (_, d2) = red.H
        d3 = red.gamma
        if d1 > 0 and d2 < 0:
            return "G1.3", {"nu": -d2, "mu": d3}
        if d1 > 0:
            return "G1.4", {"nu": d2, "mu": -d3}
        return "G1.5", {"nu": d2, "mu": d3}

    # h11 = 0 with non-degenerate block: h12 != 0
    red.scale_translate(1.0 / math.sqrt(abs(red.H[0][1])))
    (_, h12), (_, h22) = red.H
    sgn = 1.0 if h12 > 0 else -1.0
    red.apply(automorphism_step(tag, gamma=1.0, delta=-sgn * h22 / 2.0))
    return ("G1.6" if sgn > 0 else "G1.7"), {"mu": red.gamma}


# --------------------------------------------------------------------------
# family Gc with c < 1 (P-adapted basis, diagonal automorphisms)

def _reduce_gc_lt1(tag: FamilyTag, red: _Reducer) -> tuple[str, dict[str, float]]:
    if red.plane_degenerate():
        if not red.is_zero(0, 1):
            if red.is_zero(0, 0) or red.is_zero(1, 1):
                raise DegenerateMetricError("pivot vanishes in degenerate branch")
            (h11, h12), _ = red.H
            red.apply(automorphism_step(tag, gamma=h12 / h11, delta=1.0))
            (h11, h12), _ = red.H
            a = 0.5 * (h11 + h12)  # the block is a multiple of ones
            if a <= 0:
                raise DegenerateMetricError("inconsistent signature in reduction")
            red.scale_translate(1.0 / math.sqrt(a))
            (nu_, lam), g = red.b, red.gamma
            if abs(lam - nu_) <= red.band(lam, nu_):
                raise DegenerateMetricError("pivot vanishes in degenerate branch")
            red.scale_translate(1.0, ((nu_ ** 2 - 2 * nu_ * lam + g) / (2 * (lam - nu_)),
                                      (nu_ ** 2 - g) / (2 * (lam - nu_))))
            mu = red.b[1]
            if mu < 0:
                red.scale_translate(-1.0)
                mu = -mu
            return "Gc_lt1.3", {"mu": mu}
        i = red.null_index()
        scale = [1.0, 1.0]
        scale[1 - i] = 1.0 / math.sqrt(red.null_tail(i))
        red.apply(automorphism_step(tag, gamma=scale[0], delta=scale[1]))
        return ("Gc_lt1.1", "Gc_lt1.2")[i], {}

    red.clear_translation()

    (h11, h12), (_, h22) = red.H
    if red.is_zero(0, 1):
        red.apply(automorphism_step(tag, gamma=1.0 / math.sqrt(abs(h11)),
                                    delta=1.0 / math.sqrt(abs(h22))))
        (e1, _), (_, e2) = red.H
        d3 = red.gamma
        if e1 > 0 and e2 > 0:
            return "Gc_lt1.4", {"mu": -d3}
        return ("Gc_lt1.5" if e1 > 0 else "Gc_lt1.6"), {"mu": d3}

    if red.is_zero(0, 0):
        if red.is_zero(1, 1):
            red.apply(automorphism_step(tag, gamma=1.0 / h12, delta=1.0))
            return "Gc_lt1.7", {"mu": red.gamma}
        r = math.sqrt(abs(h22))
        red.apply(automorphism_step(tag, gamma=r / h12, delta=1.0 / r))
        return ("Gc_lt1.8" if red.H[1][1] > 0 else "Gc_lt1.9"), {"mu": red.gamma}

    r = math.sqrt(abs(h11))
    red.apply(automorphism_step(tag, gamma=1.0 / r, delta=r / h12))
    (eps, _), (_, t) = red.H
    nu = red.gamma
    if eps > 0:
        return (("Gc_lt1.10-1" if nu > 0 else "Gc_lt1.10-2"),
                {"nu": nu, "tau": t})
    return "Gc_lt1.11", {"mu": nu, "eta": -t}


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
    gap = _entrywise_gap(cf1.canonical_matrix, cf2.canonical_matrix)
    if gap > tol.classification_tol:
        return False, None
    (p, q, t1), (r, s, t2), _ = cf2.witness.tolist()      # [[P, t], [0, 1]]
    d = p * s - q * r
    W = cf1.witness @ step_matrix((((s / d, -q / d), (-r / d, p / d)),
                                   ((q * t2 - s * t1) / d, (r * t1 - p * t2) / d)))
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
    or non-constant; returns the class and h's canonical form.

    The class is an isometry invariant, decided on h itself with the
    connection curvature_report(alg, h) reads: near c = 1 the canonical
    representative is nearly singular and a frame built on it fails.  In
    dimension three Ric determines the curvature tensor (Milnor 1976), so
    h has constant curvature k = rho/6 exactly when ric = 2k h; the Riemann
    tensor is then checked against the model k(h(u, w) v - h(v, w) u) too.
    That check can fail only by rounding, yet it still makes its 27
    riemann calls: the benchmark's self-test counts them, and their
    deletion waits for the benchmark change that re-points that count
    (ROADMAP item 1).  The sign of k names the class.  No operator type is
    needed, so the O'Neill classifier is not run."""
    cf = canonical_form(tag, h, tol)
    conn = _connection(make_family_algebra(tag, h.basis_label), h, tol)
    ric = ricci_tensor(conn)
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = ric.tolist()
    k = (r00 + r11 - r22) / 6.0
    # in units of the squared frame brackets, as curvature_report classifies
    band = tol.classification_tol * float(np.abs(conn.brackets).max()) ** 2
    # ric - 2k J, entry by entry
    if max(abs(r00 - 2.0 * k), abs(r01), abs(r02), abs(r10),
           abs(r11 - 2.0 * k), abs(r12), abs(r20), abs(r21),
           abs(r22 + 2.0 * k)) > band:
        return ConstantCurvatureClass.NON_CONSTANT, cf
    # R[i, j, m] = R_{y_i, y_j} y_m against k (J_im y_j - J_jm y_i)
    R = np.array([riemann(conn, u, v, w) for u, v, w in _AXIS_TRIPLES])
    if float(np.abs(R.reshape(3, 3, 3, 3) - k * _UNIT_MODEL).max()) > band:
        return ConstantCurvatureClass.NON_CONSTANT, cf
    if abs(k) <= band:
        return ConstantCurvatureClass.FLAT, cf
    if k > 0:
        return ConstantCurvatureClass.POSITIVE, cf
    return ConstantCurvatureClass.NEGATIVE, cf
