"""Three-dimensional Lie algebras with a distinguished codimension-one
abelian ideal, together with their automorphism groups.

Two families are supported, parametrised on the natural basis (x, y, z):

* ``GI``:   [z, x] = x,        [z, y] = y,          [x, y] = 0
* ``Gc``:   [z, x] = y,        [z, y] = -c x + 2 y,  [x, y] = 0   (c != 1)

For ``Gc`` with c <= 1 a reduction-friendly ("adapted") basis is available
in which ad(x3) acts triangularly on span(x1, x2); the transition matrices
live here as well.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .tolerance import DEFAULT_TOL, ToleranceConfig


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


@dataclass(frozen=True, eq=False)
class LieAlgebra3:
    """A 3-dimensional Lie algebra given by structure constants.

    structure_constants has shape (3, 3, 3) with
    [e_i, e_j] = sum_k structure_constants[i, j, k] e_k.
    Antisymmetry in (i, j) is enforced at construction.  Equality is
    identity, so an algebra can key what is derived from it.
    """

    structure_constants: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.structure_constants, dtype=float)
        if c.shape != (3, 3, 3):
            raise ValueError("structure constants must have shape (3, 3, 3)")
        ct = c.transpose(1, 0, 2)
        if not (np.abs(c + ct) <= 1e-5 * np.abs(ct)).all():
            raise ValueError("structure constants must be antisymmetric in (i, j)")
        object.__setattr__(self, "structure_constants", c)

    def bracket(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """[u, v] for coordinate vectors u, v in this basis."""
        return np.einsum("i,j,ijk->k", np.asarray(u, float), np.asarray(v, float),
                         self.structure_constants)

    def jacobi_residual(self) -> float:
        """Max-norm of the Jacobi identity over the basis triples:
        t[i, j, k] = [e_i, [e_j, e_k]] summed over the cyclic shifts of
        (i, j, k)."""
        c = self.structure_constants
        t = np.einsum("jkm,iml->ijkl", c, c)
        s = t + t.transpose(1, 2, 0, 3) + t.transpose(2, 0, 1, 3)
        return float(np.abs(s).max())


def _constants_from_pairs(pairs: dict[tuple[int, int], list[float]]) -> np.ndarray:
    """Build a (3,3,3) antisymmetric array from brackets [e_i, e_j] = vec."""
    c = np.zeros((3, 3, 3))
    for (i, j), vec in pairs.items():
        if i == j:
            raise ValueError("pairs must be keyed with i != j")
        c[i, j] = vec
        c[j, i] = -c[i, j]
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
    alg = LieAlgebra3(_constants_from_pairs(pairs))
    alg.structure_constants.setflags(write=False)
    return alg


def bracket_constants(c: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Structure constants c rewritten in the basis e'_j = S e_j, exactly
    antisymmetric in (i, j):
    c'[i, j, k] = sum S[a, i] S[b, j] c[a, b, m] inv(S)[k, m].
    The pair (a, b) -> (i, j) is one 9x9 matrix, so the rewrite is two
    matrix products."""
    SS = (S[:, None, :, None] * S[None, :, None, :]).reshape(9, 9)
    consts = SS.T.dot(c.reshape(9, 3)).dot(np.linalg.inv(S).T).reshape(3, 3, 3)
    return 0.5 * (consts - consts.transpose(1, 0, 2))


def change_basis(alg: LieAlgebra3, S: np.ndarray) -> LieAlgebra3:
    """Structure constants in the basis e'_j = S e_j (columns of S are the
    new basis vectors written in the old coordinates)."""
    return LieAlgebra3(bracket_constants(alg.structure_constants,
                                         np.asarray(S, dtype=float)))


def classification_basis(tag: FamilyTag) -> BasisLabel:
    """Basis in which metrics of the family are reduced to canonical form:
    natural for GI and c > 1, Q-adapted for c = 1, P-adapted for c < 1."""
    key = tag.family_key()
    if key in ("GI", "Gc_gt1"):
        return BasisLabel.NATURAL
    return BasisLabel.Q_ADAPTED if key == "G1" else BasisLabel.P_ADAPTED


def adapted_transition(tag: FamilyTag) -> np.ndarray:
    """Matrix T with columns = natural basis vectors in adapted coordinates,
    i.e. [v]_adapted = T [v]_natural.  Defined for c <= 1."""
    if classification_basis(tag) == BasisLabel.NATURAL:
        raise ValueError("adapted bases exist only for Gc with c <= 1")
    if tag.c == 1:
        return np.array([[-2.0, -1.0, 0.0],
                         [1.0, 1.0, 0.0],
                         [0.0, 0.0, 1.0]])
    w = tag.w
    return np.array([[1.0 / (2 * w), (1.0 + w) / (2 * w), 0.0],
                     [-1.0 / (2 * w), (w - 1.0) / (2 * w), 0.0],
                     [0.0, 0.0, 1.0]])


def adapted_basis_vectors(tag: FamilyTag) -> np.ndarray:
    """Columns = adapted basis vectors in natural coordinates: the exact
    inverse of adapted_transition.  Defined for c <= 1."""
    if classification_basis(tag) == BasisLabel.NATURAL:
        raise ValueError("adapted bases exist only for Gc with c <= 1")
    if tag.c == 1:
        return np.array([[-1.0, -1.0, 0.0],
                         [1.0, 2.0, 0.0],
                         [0.0, 0.0, 1.0]])
    w = tag.w
    return np.array([[w - 1.0, -(1.0 + w), 0.0],
                     [1.0, 1.0, 0.0],
                     [0.0, 0.0, 1.0]])


#: an automorphism [[P, t], [0, 1]] of a family in its natural or adapted
#: basis, as floats: the rows of its 2x2 block P and its translation t
Step = tuple[tuple[tuple[float, float], tuple[float, float]], tuple[float, float]]


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


def step_matrix(step: Step) -> np.ndarray:
    """The 3x3 matrix [[P, t], [0, 1]] of an automorphism step."""
    ((p, q), (r, s)), (t1, t2) = step
    return np.array([[p, q, t1], [r, s, t2], [0.0, 0.0, 1.0]])


def automorphism_matrix(tag: FamilyTag, *, block=None, alpha: float | None = None,
                        beta: float | None = None,
                        translation: tuple[float, float] = (0.0, 0.0)) -> np.ndarray:
    """Assemble the 3x3 automorphism matrix in the natural basis: GI takes
    a 2x2 block, Gc an (alpha, beta) pair (see automorphism_step).  Both
    act trivially on z up to the translation part (t1, t2) in the last
    column.
    """
    return step_matrix(automorphism_step(tag, block=block, alpha=alpha, beta=beta,
                                         translation=translation))


def adapted_automorphism(tag: FamilyTag, gamma: float, delta: float,
                         translation: tuple[float, float] = (0.0, 0.0)) -> np.ndarray:
    """Automorphism written in the adapted basis (c <= 1).

    c = 1:  [[gamma, delta, t1], [0, gamma, t2], [0, 0, 1]],  gamma != 0
    c < 1:  [[gamma, 0, t1], [0, delta, t2], [0, 0, 1]],      gamma delta != 0
    """
    return step_matrix(automorphism_step(tag, gamma=gamma, delta=delta,
                                         translation=translation))


#: the basis pairs (i, j) = (0, 1), (0, 2), (1, 2) and their rows 3 i + j
#: of the constants reshaped to (9, 3)
_PAIR_I = np.array([0, 0, 1])
_PAIR_J = np.array([1, 2, 2])
_PAIR_ROWS = 3 * _PAIR_I + _PAIR_J


def is_automorphism(alg: LieAlgebra3, A: np.ndarray,
                    tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Check A [u, v] = [A u, A v] on all basis pairs, to tolerance."""
    A = np.asarray(A, dtype=float)
    if A.shape != (3, 3):
        return False
    # each band in the unit of what it tests.  det A is linear in each
    # column, and an automorphism's columns differ in size by up to c
    # (the -c alpha of a Gc block), so its unit is the product of the
    # column maxima, not max|A|^3.  The residual is quadratic in A and
    # linear in the constants.
    cols = np.abs(A).max(axis=0).tolist()
    if abs(np.linalg.det(A)) <= tol.classification_tol * cols[0] * cols[1] * cols[2]:
        return False
    a = max(cols)
    c = alg.structure_constants.reshape(9, 3)
    # rows (i, j) = (0, 1), (0, 2), (1, 2) of A [e_i, e_j] against
    # [A e_i, A e_j]; the constants may be antisymmetric only to 1e-5, so
    # the other rows are not implied by these.  AA[(k, l), p] = A[k, i] A[l, j]
    # for the p-th pair (i, j)
    AA = (A[:, None, _PAIR_I] * A[None, :, _PAIR_J]).reshape(9, 3)
    res = float(np.abs(c[_PAIR_ROWS] @ A.T - AA.T @ c).max())
    return res <= tol.classification_tol * a * a * float(np.abs(c).max())
