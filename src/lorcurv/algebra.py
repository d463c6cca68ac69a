"""Three-dimensional Lie algebras with a distinguished codimension-one
abelian ideal, together with their automorphism groups.

Two families are supported, parametrised on the natural basis (x, y, z):

* ``GI``:   [z, x] = x,        [z, y] = y,          [x, y] = 0
* ``Gc``:   [z, x] = y,        [z, y] = -c x + 2 y,  [x, y] = 0   (c != 1)

For ``Gc`` with c <= 1 a reduction-friendly ("adapted") basis is available
in which ad(x3) acts triangularly on span(x1, x2); the transition matrices
live here as well.  Structure constants and automorphisms are Python
floats; an algebra also holds its cross form M, [u, v] = M (u x v), which
a basis change rewrites by the cofactors of the new basis.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import sys
from dataclasses import dataclass, field
from enum import Enum

from .arrays import Array, ArrayField, Rows, array, float_rows, matmul, transpose
from .tolerance import DEFAULT_TOL, ToleranceConfig


#: a 2x2 block as the rows of Python floats
Block = tuple[tuple[float, float], tuple[float, float]]
#: an automorphism [[P, t], [0, 1]] of a family in its natural or adapted
#: basis, as floats: the rows of its 2x2 block P and its translation t
Step = tuple[Block, tuple[float, float]]


class BasisLabel(str, Enum):
    NATURAL = "natural"
    Q_ADAPTED = "Q_adapted"   # adapted basis for c = 1
    P_ADAPTED = "P_adapted"   # adapted basis for c < 1
    CUSTOM = "custom"


@dataclass(frozen=True)
class FamilyTag:
    """Identifies which Lie algebra family a computation refers to.

    kind is "GI" or "Gc"; c is the real family parameter for "Gc", stored
    as a float (any value except 1 is a genuinely two-step-solvable
    algebra, c = 1 included here as the degenerate double-root case).
    """

    kind: str
    c: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("GI", "Gc"):
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.kind == "Gc":
            if self.c is None:
                raise ValueError("family Gc requires a parameter c")
            # bools are ints, so they are excluded explicitly
            if (isinstance(self.c, bool) or not isinstance(self.c, numbers.Real)
                    or not abs(self.c) <= sys.float_info.max):
                raise ValueError("family Gc requires a finite real c")
            object.__setattr__(self, "c", float(self.c))
        elif self.c is not None:
            raise ValueError("family GI takes no parameter")

    @property
    def w(self) -> float:
        """sqrt(1 - c), defined for c < 1 (distinct real eigenvalues of ad z)."""
        if self.kind != "Gc" or self.c >= 1:
            raise ValueError("w is defined only for Gc with c < 1")
        return math.sqrt(1.0 - self.c)

    def family_key(self) -> str:
        """Coarse key used for canonical-form ids: GI, Gc_gt1, G1, Gc_lt1."""
        if self.kind == "GI":
            return "GI"
        if self.c > 1:
            return "Gc_gt1"
        if self.c == 1:
            return "G1"
        return "Gc_lt1"


#: every index triple (i, j, k), in lexicographic order
_TRIPLES = tuple(itertools.product(range(3), repeat=3))


@dataclass(frozen=True, eq=False)
class LieAlgebra3:
    """A 3-dimensional Lie algebra given by structure constants.

    structure_constants has shape (3, 3, 3) with
    [e_i, e_j] = sum_k structure_constants[i, j, k] e_k.
    Antisymmetry in (i, j) is enforced at construction.  Equality is
    identity, so an algebra can key what is derived from it.
    """

    structure_constants: Array = ArrayField(
        3, "structure constants must have shape (3, 3, 3)")
    #: the nonzero constants (i, j, k, c[i, j, k]) as Python floats, read
    #: once, at construction
    _nonzero: tuple[tuple[int, int, int, float], ...] = field(init=False, repr=False)
    #: the matrix M of the antisymmetric part, [u, v] = M (u x v) with the
    #: Euclidean cross product: column l is [e_(l+1), e_(l+2)], indices mod 3
    _cross: Rows = field(init=False, repr=False)

    def __post_init__(self) -> None:
        c = self._structure_constants
        if not all(abs(c[i][j][k] + c[j][i][k]) <= 1e-5 * abs(c[j][i][k])
                   for i, j, k in _TRIPLES):
            raise ValueError("structure constants must be antisymmetric in (i, j)")
        object.__setattr__(self, "_nonzero", tuple(
            (i, j, k, c[i][j][k]) for i, j, k in _TRIPLES if c[i][j][k]))
        object.__setattr__(self, "_cross", _cross_form(c))

    def bracket(self, u, v) -> Array:
        """[u, v] for coordinate vectors u, v in this basis."""
        u, v = float_rows(u, 1), float_rows(v, 1)
        c = self._structure_constants
        return array([sum(u[i] * v[j] * c[i][j][k] for i in range(3) for j in range(3))
                      for k in range(3)])

    def jacobi_residual(self) -> float:
        """Max-norm of the Jacobi identity over the basis triples:
        t[i, j, k] = [e_i, [e_j, e_k]] summed over the cyclic shifts of
        (i, j, k)."""
        c = self._structure_constants

        def t(i, j, k, l):
            return sum(c[j][k][m] * c[i][m][l] for m in range(3))
        return max(abs(t(i, j, k, l) + t(k, i, j, l) + t(j, k, i, l))
                   for (i, j, k), l in itertools.product(_TRIPLES, range(3)))


def _cross_form(c) -> Rows:
    """The cross form M of constants c, from their antisymmetric part."""
    return transpose(tuple(tuple(0.5 * (x - y) for x, y in zip(c[i][j], c[j][i]))
                           for i, j in ((1, 2), (2, 0), (0, 1))))


def _constants_from_pairs(pairs: dict[tuple[int, int], list[float]]):
    """Build (3,3,3) antisymmetric constants from brackets [e_i, e_j] = vec."""
    c = [[[0.0] * 3 for _ in range(3)] for _ in range(3)]
    for (i, j), vec in pairs.items():
        if i == j:
            raise ValueError("pairs must be keyed with i != j")
        c[i][j] = list(vec)
        c[j][i] = [-x for x in vec]
    return c


def make_family_algebra(tag: FamilyTag,
                        basis_label: BasisLabel = BasisLabel.NATURAL) -> LieAlgebra3:
    """Structure constants of GI or Gc in the requested basis.

    Natural basis order is (x, y, z).  Adapted bases (x1, x2, x3) satisfy

    * Q_adapted (c = 1):  [x3, x1] = x1,           [x3, x2] = x1 + x2
    * P_adapted (c < 1):  [x3, x1] = (1 + w) x1,   [x3, x2] = (1 - w) x2

    The algebra is a fixed object of (tag, basis_label), so it is built
    once and shared: its constants are read-only.
    """
    return _family_algebra(tag, basis_label)


@functools.lru_cache(maxsize=64)
def _family_algebra(tag: FamilyTag, basis_label: BasisLabel) -> LieAlgebra3:
    if basis_label == BasisLabel.NATURAL:
        if tag.kind == "GI":
            pairs = {(2, 0): [1.0, 0.0, 0.0], (2, 1): [0.0, 1.0, 0.0]}
        else:
            pairs = {(2, 0): [0.0, 1.0, 0.0], (2, 1): [-tag.c, 2.0, 0.0]}
    elif basis_label == BasisLabel.Q_ADAPTED:
        if classification_basis(tag) != basis_label:
            raise ValueError("Q_adapted basis exists only for Gc with c = 1")
        pairs = {(2, 0): [1.0, 0.0, 0.0], (2, 1): [1.0, 1.0, 0.0]}
    elif basis_label == BasisLabel.P_ADAPTED:
        if classification_basis(tag) != basis_label:
            raise ValueError("P_adapted basis exists only for Gc with c < 1")
        w = tag.w
        pairs = {(2, 0): [1.0 + w, 0.0, 0.0], (2, 1): [0.0, 1.0 - w, 0.0]}
    else:
        raise ValueError(f"cannot synthesise structure constants for {basis_label}")
    return LieAlgebra3(_constants_from_pairs(pairs))


def _cofactors(S: Rows) -> tuple[Rows, float]:
    """The cofactor matrix K of S, whose column l is the cross product of
    the columns l + 1 and l + 2 of S, and det S."""
    (a, b, c), (d, e, f), (g, h, i) = S
    K = ((e * i - f * h, f * g - d * i, d * h - e * g),
         (c * h - b * i, a * i - c * g, b * g - a * h),
         (b * f - c * e, c * d - a * f, a * e - b * d))
    return K, a * K[0][0] + b * K[0][1] + c * K[0][2]


def cross_rewrite(M: Rows, S: Rows) -> Rows:
    """The matrix M' = K^T M K / det S of the brackets in the basis e'_j =
    S e_j, for M with [u, v] = M (u x v) and K the cofactors of S:
    [S u, S v] = M (S u x S v) = M K (u x v), and S^-1 = K^T / det S.
    M' is homogeneous of degree 1 in S, so S is first scaled exactly by a
    power of two to max|entry| in [1/2, 1) and M' scaled back: no cofactor
    overflows, and a frame 2^k S gives exactly 2^k M'."""
    k = math.frexp(max(abs(x) for row in S for x in row))[1]
    K, det = _cofactors(tuple(tuple(math.ldexp(x, -k) for x in row) for row in S))
    if not det:
        raise ValueError("the basis change matrix is singular")
    return tuple(tuple(math.ldexp(x / det, k) for x in row)
                 for row in matmul(matmul(transpose(K), M), K))


def _from_cross(M: Rows):
    """The structure constants c[i][j][k] of the cross form M."""
    cols = transpose(M)
    zero = (0.0, 0.0, 0.0)
    neg = tuple(tuple(-x for x in col) for col in cols)
    return ((zero, cols[2], neg[1]), (neg[2], zero, cols[0]), (cols[1], neg[0], zero))


def change_basis(alg: LieAlgebra3, S) -> LieAlgebra3:
    """Structure constants in the basis e'_j = S e_j (columns of S are the
    new basis vectors written in the old coordinates)."""
    return LieAlgebra3(_from_cross(cross_rewrite(alg._cross, float_rows(S))))


def classification_basis(tag: FamilyTag) -> BasisLabel:
    """Basis in which metrics of the family are reduced to canonical form:
    natural for GI and c > 1, Q-adapted for c = 1, P-adapted for c < 1."""
    key = tag.family_key()
    if key in ("GI", "Gc_gt1"):
        return BasisLabel.NATURAL
    return BasisLabel.Q_ADAPTED if key == "G1" else BasisLabel.P_ADAPTED


def _adapted_blocks(tag: FamilyTag) -> tuple[Block, Block]:
    """The 2x2 blocks (U, T) of adapted_basis_vectors and
    adapted_transition, as Python floats: both matrices are [[B, 0],
    [0, 1]], and U T = I."""
    if classification_basis(tag) == BasisLabel.NATURAL:
        raise ValueError("adapted bases exist only for Gc with c <= 1")
    if tag.c == 1:
        return ((-1.0, -1.0), (1.0, 2.0)), ((-2.0, -1.0), (1.0, 1.0))
    w = tag.w
    return (((w - 1.0, -(1.0 + w)), (1.0, 1.0)),
            ((1.0 / (2 * w), (1.0 + w) / (2 * w)),
             (-1.0 / (2 * w), (w - 1.0) / (2 * w))))


def adapted_transition(tag: FamilyTag) -> Array:
    """Matrix T with columns = natural basis vectors in adapted coordinates,
    i.e. [v]_adapted = T [v]_natural.  Defined for c <= 1."""
    return array(step_matrix((_adapted_blocks(tag)[1], (0.0, 0.0))))


def adapted_basis_vectors(tag: FamilyTag) -> Array:
    """Columns = adapted basis vectors in natural coordinates: the exact
    inverse of adapted_transition.  Defined for c <= 1."""
    return array(step_matrix((_adapted_blocks(tag)[0], (0.0, 0.0))))


def automorphism_step(tag: FamilyTag, *, block=None, alpha: float | None = None,
                      beta: float | None = None, gamma: float | None = None,
                      delta: float | None = None,
                      translation: tuple[float, float] = (0.0, 0.0)) -> Step:
    """The block P and translation t of an automorphism [[P, t], [0, 1]].

    In the natural basis, GI takes an arbitrary invertible 2x2 ``block``
    and Gc the (alpha, beta) block [[beta - alpha, -c alpha], [alpha,
    beta + alpha]], beta^2 + (c - 1) alpha^2 != 0.  Given gamma and delta,
    the block is written in the adapted basis (c <= 1):

    c = 1:  [[gamma, delta], [0, gamma]],  gamma != 0
    c < 1:  [[gamma, 0], [0, delta]],      gamma delta != 0
    """
    t1, t2 = translation
    t = (float(t1), float(t2))
    if gamma is not None:
        if classification_basis(tag) == BasisLabel.NATURAL:
            raise ValueError("adapted automorphisms exist only for Gc with c <= 1")
        g, d = float(gamma), float(delta)
        if tag.c == 1:
            if g == 0.0:
                raise ValueError("gamma must be nonzero")
            return ((g, d), (0.0, g)), t
        if g * d == 0.0:
            raise ValueError("gamma and delta must be nonzero")
        return ((g, 0.0), (0.0, d)), t
    if tag.kind == "GI":
        if block is None:
            raise ValueError("GI automorphisms require a 2x2 block")
        try:
            (p, q), (r, s) = block
            p, q, r, s = float(p), float(q), float(r), float(s)
        except (TypeError, ValueError):
            raise ValueError("block must be 2x2") from None
        if p * s - q * r == 0.0:
            raise ValueError("block must be invertible")
        return ((p, q), (r, s)), t
    if alpha is None or beta is None:
        raise ValueError("Gc automorphisms require alpha and beta")
    c = tag.c
    a, b = float(alpha), float(beta)
    if b * b + (c - 1.0) * a * a == 0.0:
        raise ValueError("degenerate (alpha, beta) pair")
    return ((b - a, -c * a), (a, b + a)), t


def step_matrix(step: Step) -> Rows:
    """The 3x3 matrix [[P, t], [0, 1]] of an automorphism step, as rows."""
    ((p, q), (r, s)), (t1, t2) = step
    return (p, q, t1), (r, s, t2), (0.0, 0.0, 1.0)


def automorphism_matrix(tag: FamilyTag, *, block=None, alpha: float | None = None,
                        beta: float | None = None,
                        translation: tuple[float, float] = (0.0, 0.0)) -> Array:
    """Assemble the 3x3 automorphism matrix in the natural basis: GI takes
    a 2x2 block, Gc an (alpha, beta) pair (see automorphism_step).  Both
    act trivially on z up to the translation part (t1, t2) in the last
    column.
    """
    return array(step_matrix(automorphism_step(tag, block=block, alpha=alpha,
                                               beta=beta, translation=translation)))


def adapted_automorphism(tag: FamilyTag, gamma: float, delta: float,
                         translation: tuple[float, float] = (0.0, 0.0)) -> Array:
    """Automorphism written in the adapted basis (c <= 1).

    c = 1:  [[gamma, delta, t1], [0, gamma, t2], [0, 0, 1]],  gamma != 0
    c < 1:  [[gamma, 0, t1], [0, delta, t2], [0, 0, 1]],      gamma delta != 0
    """
    return array(step_matrix(automorphism_step(tag, gamma=gamma, delta=delta,
                                               translation=translation)))


def is_automorphism(alg: LieAlgebra3, A,
                    tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Check A [u, v] = [A u, A v] on all basis pairs, to tolerance.

    The work is on Python floats.  det A is the closed-form cofactor
    expansion along the first row.  Each band is in the unit of what it
    tests.  det A is linear in each column, and an automorphism's columns
    differ in size by up to c (the -c alpha of a Gc block), so its band is
    classification_tol times the product of the column maxima, not
    max|A|^3; a NaN det, which any NaN or infinite entry gives, fails it
    too.  The residual is quadratic in A and linear in the constants, so
    its band is classification_tol max|A|^2 max|c|.  It is taken over the
    algebra's nonzero constants, for the pairs (i, j) = (0, 1), (0, 2),
    (1, 2): the constants may be antisymmetric only to 1e-5, so the other
    pairs are not implied by these."""
    try:
        rows = float_rows(A)
    except (TypeError, ValueError):
        return False
    (a, b, c), (d, e, f), (g, h, i) = rows
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    cols = (max(abs(a), abs(d), abs(g)), max(abs(b), abs(e), abs(h)),
            max(abs(c), abs(f), abs(i)))
    if not abs(det) > tol.classification_tol * cols[0] * cols[1] * cols[2]:
        return False
    # res[3 p + k]: component k of A [e_i, e_j] - [A e_i, A e_j] for the
    # p-th pair (i, j) = (0, 1), (0, 2), (1, 2), p = i + j - 1
    res = [0.0] * 9
    cmax = 0.0
    for r, s, k, v in alg._nonzero:
        # the term of [A e_i, A e_j] in [e_r, e_s], for every pair
        (x0, x1, _), (_, y1, y2) = rows[r], rows[s]
        res[k] -= v * x0 * y1
        res[3 + k] -= v * x0 * y2
        res[6 + k] -= v * x1 * y2
        if r < s:           # (r, s) is a pair: the term of A [e_r, e_s]
            p = 3 * (r + s - 1)
            res[p] += v * rows[0][k]
            res[p + 1] += v * rows[1][k]
            res[p + 2] += v * rows[2][k]
        cmax = max(cmax, abs(v))
    amax = max(cols)
    band = tol.classification_tol * amax * amax * cmax
    # entry by entry, so that a NaN from an overflow fails
    return all(abs(x) <= band for x in res)
