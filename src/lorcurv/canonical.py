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
A = [[P, t], [0, 1]], with P a 2x2 block and t a translation of z, one
``Step`` of Python floats.  The reducer holds the accumulated step and
C = A^T h A as rows of floats, recomputed from the input's rows by one
congruence helper after every step.  Every decision reads C in units:
C_ij / (u_i u_j) with u_i = sqrt(max_k |C_ik|), a number in [-1, 1] that
does not change under h -> lambda h.  The residual against the canonical
matrix is the same congruence, evaluated on the returned witness, never
read from the held rows.  A verdict of equivalence composes its witness
W1 W2^-1 as a step too, moves it to the natural basis by the 2x2 blocks
of the adapted basis, and checks its residual by the same congruence.
Canonical matrices and witnesses are rows of Python floats; a
CanonicalForm builds their arrays on first read, and ``equivalent``
builds its witness array at the end.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

from .algebra import (BasisLabel, FamilyTag, Step, _adapted_blocks,
                      automorphism_step, classification_basis,
                      is_automorphism, make_family_algebra, step_matrix)
from .arrays import Array, ArrayField, Rows, array
from .metric import _I3, _J, MetricTensor, _derived, _eigen, _signature, pull_back_metric
from .registry import get_form_spec
from .tolerance import DEFAULT_TOL, ToleranceConfig


class DegenerateMetricError(ValueError):
    """Raised when the input fails signature validation or a reduction
    pivot sits inside the undecidable tolerance band."""


@dataclass(frozen=True)
class CanonicalForm:
    family: FamilyTag
    form_id: str
    params: dict[str, float]
    canonical_matrix: Array = ArrayField()
    witness: Array = ArrayField()    # automorphism in the classification basis
    basis_label: BasisLabel          # basis the canonical matrix lives in


#: the frame axes ((i, y_i), (j, y_j), (m, y_m)) of the model check,
#: (i, j, m) in lexicographic order
_AXIS_TRIPLES = tuple(itertools.product(enumerate(_I3), repeat=3))
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
    U = step_matrix((_adapted_blocks(tag)[0], (0.0, 0.0)))
    return pull_back_metric(h, U, basis_label=classification_basis(tag))


def from_adapted_basis(tag: FamilyTag, h: MetricTensor) -> MetricTensor:
    T = step_matrix((_adapted_blocks(tag)[1], (0.0, 0.0)))
    return pull_back_metric(h, T, basis_label=BasisLabel.NATURAL)


def _unit(row) -> float:
    """u_i = sqrt(max_k |M_ik|) of row i of a symmetric matrix M (1 for a
    row of zeros), or of rows i of several, joined.  M_ij / (u_i u_j) is in
    [-1, 1] for every multiple of M, and no product of two row maxima is
    formed, so at no scale of h does a decision leave the float range."""
    return math.sqrt(max(map(abs, row))) or 1.0


def _entrywise_gap(A: Rows, B: Rows) -> float:
    """max |A_ij - B_ij| / (u_i u_j), u the units of the rows of both
    symmetric matrices: _Reducer.is_zero entry by entry, a margin free of
    scale."""
    u = [_unit(a + b) for a, b in zip(A, B)]
    return max([abs(A[i][j] - B[i][j]) / (u[i] * u[j]) for i, j in _UPPER])


def _congruence(h0: Rows, step: Step) -> Rows:
    """A^T h0 A, A = [[P, t], [0, 1]], for h0 = [[H0, b0], [b0^T, gamma0]]:

        H = P^T H0 P,  b = P^T (H0 t + b0),  gamma = t^T (H0 t + b0) + b0^T t + gamma0,

    summed in the order of the product (A^T h0) A: the rows m of P^T H0,
    and u = H0 t + b0, first."""
    ((p, q), (r, s)), (t1, t2) = step
    (h11, h12, b1), (_, h22, b2), (_, _, g) = h0
    m11, m12 = p * h11 + r * h12, p * h12 + r * h22
    m21, m22 = q * h11 + s * h12, q * h12 + s * h22
    u1, u2 = t1 * h11 + t2 * h12 + b1, t1 * h12 + t2 * h22 + b2
    c12 = m11 * q + m12 * s
    c13 = m11 * t1 + m12 * t2 + (p * b1 + r * b2)
    c23 = m21 * t1 + m22 * t2 + (q * b1 + s * b2)
    return ((m11 * p + m12 * r, c12, c13), (c12, m21 * q + m22 * s, c23),
            (c13, c23, u1 * t1 + u2 * t2 + (t1 * b1 + t2 * b2 + g)))


def _compose(first: Step, second: Step) -> Step:
    """The step of the product [[P, t], [0, 1]] [[Q, s], [0, 1]] =
    [[P Q, P s + t], [0, 1]]."""
    ((p, q), (r, s)), (t1, t2) = first
    ((a, b), (c, d)), (s1, s2) = second
    return (((p * a + q * c, p * b + q * d), (r * a + s * c, r * b + s * d)),
            (p * s1 + q * s2 + t1, r * s1 + s * s2 + t2))


def _inverse(step: Step) -> Step:
    """The step of [[P, t], [0, 1]]^-1 = [[P^-1, -P^-1 t], [0, 1]]."""
    ((p, q), (r, s)), (t1, t2) = step
    d = p * s - q * r
    return (((s / d, -q / d), (-r / d, p / d)),
            ((q * t2 - s * t1) / d, (r * t1 - p * t2) / d))


def _exponent(*xs: float) -> int:
    """The e with 2^e max |x| in [1/2, 1): scaling by 2^e is exact, and
    leaves a product of such numbers inside the float range."""
    return -math.frexp(max(map(abs, xs)))[1]


def _strictly_lorentzian(C: Rows) -> bool:
    """Whether the symmetric matrix C has signature (2, 0, 1), with no
    tolerance band.  det C < 0 leaves one or three negative eigenvalues,
    and three exactly when C is negative definite, which Sylvester's
    criterion reads off the leading minors C00 and C00 C11 - C01^2."""
    (a, b, c), (_, d, e), (_, _, f) = C
    det = a * (d * f - e * e) - b * (b * f - c * e) + c * (b * e - c * d)
    return det < 0.0 and not (a < 0.0 and a * d - b * b > 0.0)


class _Reducer:
    """Accumulates automorphism steps of the classification basis as one
    step A = [[P, t], [0, 1]], and holds C = A^T h0 A as rows of Python
    floats, recomputed by _congruence from h0 and A after every step, so
    rounding is not carried from one step to the next."""

    def __init__(self, h0: Rows, tol: ToleranceConfig):
        self.tol = tol
        self.h0 = self.C = h0
        self.step: Step = (((1.0, 0.0), (0.0, 1.0)), (0.0, 0.0))

    def apply(self, step: Step) -> None:
        """Compose with the step (Q, s): P <- P Q, t <- P s + t."""
        self.step = _compose(self.step, step)
        self.C = _congruence(self.h0, self.step)

    def scale_translate(self, g: float, t: tuple[float, float] = (0.0, 0.0)) -> None:
        """Apply P = g I with translation t: a scaling of the plane with a
        translation of z, an automorphism of every family in its
        classification basis."""
        self.apply((((g, 0.0), (0.0, g)), t))

    def is_zero(self, i: int, j: int) -> bool:
        """|C_ij| / (u_i u_j) <= tol: the same verdict for every multiple of h."""
        C = self.C
        return abs(C[i][j]) / (_unit(C[i]) * _unit(C[j])) <= self.tol.classification_tol

    def plane_degenerate(self) -> bool:
        """Whether the plane block of C is singular to tolerance: its
        determinant in units, from the entries C_ij / (u_i u_j)."""
        row0, row1, _ = self.C
        u0, u1 = _unit(row0), _unit(row1)
        x, y, z = row0[0] / (u0 * u0), row0[1] / (u0 * u1), row1[1] / (u1 * u1)
        return abs(x * z - y * y) <= self.tol.classification_tol

    def clear_translation(self) -> None:
        """Translate z by -H^-1 b, so that b vanishes; the plane block H must
        be non-degenerate.  t has degree 0 in h: it is solved on H and b
        scaled by one power of two, so no product leaves the float range."""
        (h11, h12, b1), (_, h22, b2), _ = self.C
        e = _exponent(h11, h12, h22)
        h11, h12, h22 = math.ldexp(h11, e), math.ldexp(h12, e), math.ldexp(h22, e)
        b1, b2 = math.ldexp(b1, e), math.ldexp(b2, e)
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
        hjj = self.C[j][j]
        if self.is_zero(i, 2) or self.is_zero(j, j) or hjj < 0:
            raise DegenerateMetricError("pivot vanishes in degenerate branch")
        t = [0.0, 0.0]
        t[j] = -self.C[j][2] / hjj
        self.scale_translate(1.0 / self.C[i][2], t)
        t = [0.0, 0.0]
        t[i] = -self.C[2][2] / 2.0
        self.scale_translate(1.0, t)
        return self.C[j][j]


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
                         cf._canonical_matrix, cf._witness, cf.basis_label)


def _reduce(tag: FamilyTag, h: MetricTensor,
            tol: ToleranceConfig) -> CanonicalForm:
    target = classification_basis(tag)
    if h.basis_label not in (target, BasisLabel.NATURAL):
        raise ValueError(f"metric basis {h.basis_label} not usable for {tag}")
    # a basis change keeps the signature but can blur it: read it on h as given
    _, reason = _signature(_eigen(h)[0], tol)
    if reason is not None:
        raise DegenerateMetricError(reason)
    h_cls = h if h.basis_label == target else to_adapted_basis(tag, h)

    red = _Reducer(h_cls._entries, tol)
    form_id, params = _FAMILY_REDUCERS[tag.family_key()](tag, red)
    canon = get_form_spec(tag, form_id).matrix(tag, params)
    # A^T h A is congruent to the validated input, so this strict test stands
    # in for a sign test per reducer branch; a banded test refuses good forms
    if not _strictly_lorentzian(canon):
        raise DegenerateMetricError("inconsistent signature in reduction")
    # the residual reads the witness returned, its step on h's rows, not
    # the rows the steps held
    gap = _entrywise_gap(_congruence(red.h0, red.step), canon)
    if gap > 100 * tol.classification_tol:
        raise DegenerateMetricError(
            f"reduction residual {gap:g} too large for form {form_id}")
    return CanonicalForm(tag, form_id, params, canon, step_matrix(red.step), target)


# --------------------------------------------------------------------------
# family GI (natural basis, GL(2) block automorphisms)

def _reduce_gi(tag: FamilyTag, red: _Reducer) -> tuple[str, dict[str, float]]:
    swap = automorphism_step(tag, block=((0.0, 1.0), (1.0, 0.0)))
    if not red.is_zero(0, 1):
        (h11, h12, _), (_, h22, _), _ = red.C
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
    if red.C[0][0] < 0 < red.C[1][1]:
        red.apply(swap)
    (h11, _, _), (_, h22, _), _ = red.C
    red.apply(automorphism_step(tag, block=((1.0 / math.sqrt(abs(h11)), 0.0),
                                            (0.0, 1.0 / math.sqrt(abs(h22))))))
    _, (_, e2, _), (_, _, g) = red.C
    if e2 < 0:
        return "GI.1", {"mu": g}
    return "GI.2", {"mu": -g}


# --------------------------------------------------------------------------
# family Gc with c > 1 (natural basis, (alpha, beta) automorphisms)

def _reduce_gc_gt1(tag: FamilyTag, red: _Reducer) -> tuple[str, dict[str, float]]:
    cpar = tag.c
    if red.plane_degenerate():
        if not red.is_zero(0, 1):
            (h11, h12, _), _, _ = red.C
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
    # lands in the canonical domain, and no second step is needed.  The
    # roots are projective: the quadratic is formed on H scaled by one
    # power of two, so bq^2 stays inside the float range.
    red.clear_translation()
    (h11, h12, _), (_, h22, _), _ = red.C
    e = _exponent(h11, h12, h22)
    g11, g12, g22 = math.ldexp(h11, e), math.ldexp(h12, e), math.ldexp(h22, e)
    aq = g11 - g12
    bq = (cpar - 2.0) * g11 + 2.0 * g12 - g22
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
            if t <= cpar + red.tol.classification_tol * cpar and (best is None or t > best[0]):
                best = (t, alpha / math.sqrt(m), beta / math.sqrt(m))
    if best is None:
        raise DegenerateMetricError("inconsistent signature in reduction")
    red.apply(automorphism_step(tag, alpha=best[1], beta=best[2]))
    _, (_, t, _), (_, _, g) = red.C
    if t < 1.0:
        return "Gc_gt1.2", {"mu": g, "tau": t}
    return "Gc_gt1.3", {"mu": -g, "nu": min(t, cpar)}


# --------------------------------------------------------------------------
# family Gc with c = 1 (Q-adapted basis, unipotent-diagonal automorphisms)

def _reduce_g1(tag: FamilyTag, red: _Reducer) -> tuple[str, dict[str, float]]:
    if red.plane_degenerate():
        if not red.is_zero(0, 1):
            if red.is_zero(0, 0):
                raise DegenerateMetricError("pivot vanishes in degenerate branch")
            (h11, h12, _), _, _ = red.C
            m = max(abs(h11), abs(h12))
            red.apply(automorphism_step(tag, gamma=h11 / m, delta=-h12 / m))
        i = red.null_index()
        return ("G1.1", "G1.2")[i], {"mu": red.null_tail(i)}

    red.clear_translation()

    if not red.is_zero(0, 0):
        if not red.is_zero(0, 1):
            (h11, h12, _), _, _ = red.C
            m = max(abs(h11), abs(h12))
            red.apply(automorphism_step(tag, gamma=h11 / m, delta=-h12 / m))
        red.scale_translate(1.0 / math.sqrt(abs(red.C[0][0])))
        (d1, _, _), (_, d2, _), (_, _, d3) = red.C
        if d1 > 0 and d2 < 0:
            return "G1.3", {"nu": -d2, "mu": d3}
        if d1 > 0:
            return "G1.4", {"nu": d2, "mu": -d3}
        return "G1.5", {"nu": d2, "mu": d3}

    # h11 = 0 with non-degenerate block: h12 != 0
    red.scale_translate(1.0 / math.sqrt(abs(red.C[0][1])))
    (_, h12, _), (_, h22, _), _ = red.C
    sgn = 1.0 if h12 > 0 else -1.0
    red.apply(automorphism_step(tag, gamma=1.0, delta=-sgn * h22 / 2.0))
    return ("G1.6" if sgn > 0 else "G1.7"), {"mu": red.C[2][2]}


# --------------------------------------------------------------------------
# family Gc with c < 1 (P-adapted basis, diagonal automorphisms)

def _reduce_gc_lt1(tag: FamilyTag, red: _Reducer) -> tuple[str, dict[str, float]]:
    if red.plane_degenerate():
        if not red.is_zero(0, 1):
            if red.is_zero(0, 0) or red.is_zero(1, 1):
                raise DegenerateMetricError("pivot vanishes in degenerate branch")
            (h11, h12, _), _, _ = red.C
            red.apply(automorphism_step(tag, gamma=h12 / h11, delta=1.0))
            (h11, h12, _), _, _ = red.C
            a = 0.5 * (h11 + h12)  # the block is a multiple of ones
            if a <= 0:
                raise DegenerateMetricError("inconsistent signature in reduction")
            red.scale_translate(1.0 / math.sqrt(a))
            (_, _, nu_), (_, _, lam), (_, _, g) = red.C
            if abs(lam - nu_) <= red.tol.classification_tol * max(abs(lam), abs(nu_)):
                raise DegenerateMetricError("pivot vanishes in degenerate branch")
            red.scale_translate(1.0, ((nu_ ** 2 - 2 * nu_ * lam + g) / (2 * (lam - nu_)),
                                      (nu_ ** 2 - g) / (2 * (lam - nu_))))
            mu = red.C[1][2]
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

    (h11, h12, _), (_, h22, _), _ = red.C
    if red.is_zero(0, 1):
        red.apply(automorphism_step(tag, gamma=1.0 / math.sqrt(abs(h11)),
                                    delta=1.0 / math.sqrt(abs(h22))))
        (e1, _, _), (_, e2, _), (_, _, d3) = red.C
        if e1 > 0 and e2 > 0:
            return "Gc_lt1.4", {"mu": -d3}
        return ("Gc_lt1.5" if e1 > 0 else "Gc_lt1.6"), {"mu": d3}

    if red.is_zero(0, 0):
        if red.is_zero(1, 1):
            red.apply(automorphism_step(tag, gamma=1.0 / h12, delta=1.0))
            return "Gc_lt1.7", {"mu": red.C[2][2]}
        r = math.sqrt(abs(h22))
        red.apply(automorphism_step(tag, gamma=r / h12, delta=1.0 / r))
        _, (_, e2, _), (_, _, g) = red.C
        return ("Gc_lt1.8" if e2 > 0 else "Gc_lt1.9"), {"mu": g}

    r = math.sqrt(abs(h11))
    red.apply(automorphism_step(tag, gamma=1.0 / r, delta=r / h12))
    (eps, _, _), (_, t, _), (_, _, nu) = red.C
    if eps > 0:
        return (("Gc_lt1.10-1" if nu > 0 else "Gc_lt1.10-2"),
                {"nu": nu, "tau": t})
    return "Gc_lt1.11", {"mu": nu, "eta": -t}


_FAMILY_REDUCERS = {"GI": _reduce_gi, "Gc_gt1": _reduce_gc_gt1, "G1": _reduce_g1,
                    "Gc_lt1": _reduce_gc_lt1}


# --------------------------------------------------------------------------
# equivalence and constant curvature

def equivalent(tag: FamilyTag, h1: MetricTensor, h2: MetricTensor,
               tol: ToleranceConfig = DEFAULT_TOL) -> tuple[bool, Array | None]:
    """Decide whether two metrics are related by an automorphism.

    Returns (flag, witness); the witness W satisfies W^T [h1] W = [h2] in
    the common input basis (both metrics must be given in the same basis).
    """
    flag, W = _equivalence(tag, h1, h2, tol)
    return flag, None if W is None else array(W)


def _equivalence(tag: FamilyTag, h1: MetricTensor, h2: MetricTensor,
                 tol: ToleranceConfig) -> tuple[bool, Rows | None]:
    """equivalent's verdict, with the witness as rows."""
    if h1.basis_label != h2.basis_label:
        raise ValueError("metrics must be given in the same basis")
    cf1 = canonical_form(tag, h1, tol)
    cf2 = canonical_form(tag, h2, tol)
    if cf1.form_id != cf2.form_id:
        return False, None
    gap = _entrywise_gap(cf1._canonical_matrix, cf2._canonical_matrix)
    if gap > tol.classification_tol:
        return False, None
    # W = W1 W2^-1, composed as a step
    w = _compose(_step(cf1._witness), _inverse(_step(cf2._witness)))
    if h1.basis_label == BasisLabel.NATURAL and cf1.basis_label != BasisLabel.NATURAL:
        # to the natural basis, U W T: both are [[B, 0], [0, 1]]
        U, T = _adapted_blocks(tag)
        w = _compose(_compose((U, (0.0, 0.0)), w), (T, (0.0, 0.0)))
    got, want = _congruence(h1._entries, w), h2._entries
    res = max([abs(x - y) for g, r in zip(got, want) for x, y in zip(g, r)])
    if res > tol.classification_tol * max(map(abs, itertools.chain(*want))) * 100:
        raise ArithmeticError(f"equivalence witness residual {res:g} too large")
    W = step_matrix(w)
    if not is_automorphism(make_family_algebra(tag, h1.basis_label), W, tol):
        raise ArithmeticError("equivalence witness is not an automorphism")
    return True, W


def _step(W: Rows) -> Step:
    """The (P, t) of a witness [[P, t], [0, 1]]."""
    (p, q, t1), (r, s, t2), _ = W
    return ((p, q), (r, s)), (t1, t2)


#: the curvature engine, imported by the first constant-curvature check,
#: not at module scope: a process that only reduces never loads it
_curvature = None


def _engine():
    global _curvature
    if _curvature is None:
        from . import curvature
        _curvature = curvature
    return _curvature


def __getattr__(name: str):
    """``riemann``, the engine's, which the constant-curvature check calls:
    ``lorcurv.canonical.riemann is lorcurv.curvature.riemann``."""
    if name == "riemann":
        return _engine().riemann
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    curvature = _engine()
    cf = canonical_form(tag, h, tol)
    conn, ric, s = curvature._connection(make_family_algebra(tag, h.basis_label), h, tol)
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = ric
    k = (r00 + r11 - r22) / 6.0
    # in units of the squared frame brackets, as curvature_report classifies
    band = tol.classification_tol * s
    # ric - 2k J, entry by entry
    if max(abs(r00 - 2.0 * k), abs(r01), abs(r02), abs(r10),
           abs(r11 - 2.0 * k), abs(r12), abs(r20), abs(r21),
           abs(r22 + 2.0 * k)) > band:
        return ConstantCurvatureClass.NON_CONSTANT, cf
    # R_{y_i, y_j} y_m against the model k (J_im y_j - J_jm y_i), all 27
    if max(abs(x - k * (_J[i][m] * y - _J[j][m] * z))
           for (i, u), (j, v), (m, w) in _AXIS_TRIPLES
           for x, y, z in zip(curvature.riemann(conn, u, v, w), v, u)) > band:
        return ConstantCurvatureClass.NON_CONSTANT, cf
    if abs(k) <= band:
        return ConstantCurvatureClass.FLAT, cf
    if k > 0:
        return ConstantCurvatureClass.POSITIVE, cf
    return ConstantCurvatureClass.NEGATIVE, cf
