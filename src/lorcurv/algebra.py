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

import math
from dataclasses import dataclass, field
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

    kind is "GI" or "Gc"; c is the real family parameter for "Gc"
    (any value except 1 is a genuinely two-step-solvable algebra, c = 1
    included here as the degenerate double-root case).
    """

    kind: str
    c: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("GI", "Gc"):
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.kind == "Gc":
            if self.c is None:
                raise ValueError("family Gc requires a parameter c")
        elif self.c is not None:
            raise ValueError("family GI takes no parameter")

    @property
    def w(self) -> float:
        """sqrt(1 - c), defined for c < 1 (distinct real eigenvalues of ad z)."""
        if self.kind != "Gc" or self.c is None or self.c >= 1:
            raise ValueError("w is defined only for Gc with c < 1")
        return math.sqrt(1.0 - self.c)

    @property
    def z_param(self) -> float:
        """sqrt(c - 1), defined for c > 1 (complex eigenvalues of ad z)."""
        if self.kind != "Gc" or self.c is None or self.c <= 1:
            raise ValueError("z_param is defined only for Gc with c > 1")
        return math.sqrt(self.c - 1.0)

    def family_key(self) -> str:
        """Coarse key used for canonical-form ids: GI, Gc_gt1, G1, Gc_lt1."""
        if self.kind == "GI":
            return "GI"
        assert self.c is not None
        if self.c > 1:
            return "Gc_gt1"
        if self.c == 1:
            return "G1"
        return "Gc_lt1"


@dataclass(frozen=True)
class LieAlgebra3:
    """A 3-dimensional Lie algebra given by structure constants.

    structure_constants has shape (3, 3, 3) with
    [e_i, e_j] = sum_k structure_constants[i, j, k] e_k.
    Antisymmetry in (i, j) is enforced at construction.
    """

    structure_constants: np.ndarray
    family: FamilyTag | None = None
    basis_label: BasisLabel = BasisLabel.CUSTOM

    def __post_init__(self) -> None:
        c = np.asarray(self.structure_constants, dtype=float)
        if c.shape != (3, 3, 3):
            raise ValueError("structure constants must have shape (3, 3, 3)")
        if not np.allclose(c, -np.transpose(c, (1, 0, 2)), atol=0.0):
            raise ValueError("structure constants must be antisymmetric in (i, j)")
        object.__setattr__(self, "structure_constants", c)

    def bracket(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """[u, v] for coordinate vectors u, v in this basis."""
        return np.einsum("i,j,ijk->k", np.asarray(u, float), np.asarray(v, float),
                         self.structure_constants)

    def jacobi_residual(self) -> float:
        """Max-norm of the Jacobi identity over the basis triples."""
        worst = 0.0
        e = np.eye(3)
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    s = (self.bracket(e[i], self.bracket(e[j], e[k]))
                         + self.bracket(e[j], self.bracket(e[k], e[i]))
                         + self.bracket(e[k], self.bracket(e[i], e[j])))
                    worst = max(worst, float(np.max(np.abs(s))))
        return worst


def _constants_from_pairs(pairs: dict[tuple[int, int], np.ndarray]) -> np.ndarray:
    """Build a (3,3,3) antisymmetric array from brackets given for i < j."""
    c = np.zeros((3, 3, 3))
    for (i, j), vec in pairs.items():
        if not i < j:
            raise ValueError("pairs must be keyed with i < j")
        c[i, j] = np.asarray(vec, dtype=float)
        c[j, i] = -c[i, j]
    return c


def make_family_algebra(tag: FamilyTag,
                        basis_label: BasisLabel = BasisLabel.NATURAL) -> LieAlgebra3:
    """Structure constants of GI or Gc in the requested basis.

    Natural basis order is (x, y, z).  Adapted bases (x1, x2, x3) satisfy

    * Q_adapted (c = 1):  [x3, x1] = x1,           [x3, x2] = x1 + x2
    * P_adapted (c < 1):  [x3, x1] = (1 + w) x1,   [x3, x2] = (1 - w) x2
    """
    if basis_label == BasisLabel.NATURAL:
        if tag.kind == "GI":
            pairs = {(2, 0): [1.0, 0.0, 0.0], (2, 1): [0.0, 1.0, 0.0]}
        else:
            c = float(tag.c)  # type: ignore[arg-type]
            pairs = {(2, 0): [0.0, 1.0, 0.0], (2, 1): [-c, 2.0, 0.0]}
        consts = np.zeros((3, 3, 3))
        for (i, j), vec in pairs.items():
            consts[i, j] = vec
            consts[j, i] = [-v for v in vec]
        return LieAlgebra3(consts, family=tag, basis_label=basis_label)

    if basis_label == BasisLabel.Q_ADAPTED:
        if tag.kind != "Gc" or tag.c != 1:
            raise ValueError("Q_adapted basis exists only for Gc with c = 1")
        consts = _constants_from_pairs({})
        consts[2, 0] = [1.0, 0.0, 0.0]
        consts[0, 2] = [-1.0, 0.0, 0.0]
        consts[2, 1] = [1.0, 1.0, 0.0]
        consts[1, 2] = [-1.0, -1.0, 0.0]
        return LieAlgebra3(consts, family=tag, basis_label=basis_label)

    if basis_label == BasisLabel.P_ADAPTED:
        if tag.kind != "Gc" or tag.c is None or tag.c >= 1:
            raise ValueError("P_adapted basis exists only for Gc with c < 1")
        w = tag.w
        consts = np.zeros((3, 3, 3))
        consts[2, 0] = [1.0 + w, 0.0, 0.0]
        consts[0, 2] = [-(1.0 + w), 0.0, 0.0]
        consts[2, 1] = [0.0, 1.0 - w, 0.0]
        consts[1, 2] = [0.0, -(1.0 - w), 0.0]
        return LieAlgebra3(consts, family=tag, basis_label=basis_label)

    raise ValueError(f"cannot synthesise structure constants for {basis_label}")


def change_basis(alg: LieAlgebra3, S: np.ndarray,
                 basis_label: BasisLabel = BasisLabel.CUSTOM) -> LieAlgebra3:
    """Structure constants in the basis e'_j = S e_j (columns of S are the
    new basis vectors written in the old coordinates)."""
    S = np.asarray(S, dtype=float)
    S_inv = np.linalg.inv(S)
    consts = np.zeros((3, 3, 3))
    for i in range(3):
        for j in range(i + 1, 3):
            vec = S_inv @ alg.bracket(S[:, i], S[:, j])
            consts[i, j] = vec
            consts[j, i] = -vec
    return LieAlgebra3(consts, family=alg.family, basis_label=basis_label)


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
    if tag.kind != "Gc" or tag.c is None or tag.c > 1:
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
    """Columns = adapted basis vectors in natural coordinates (the inverse
    of adapted_transition)."""
    return np.linalg.inv(adapted_transition(tag))


@dataclass(frozen=True)
class AutomorphismParams:
    """Parameters of an automorphism in the natural basis.

    GI uses an arbitrary invertible 2x2 block acting on span(x, y);
    Gc uses the two-parameter (alpha, beta) block
    [[beta - alpha, -c alpha], [alpha, beta + alpha]] subject to
    beta^2 + (c - 1) alpha^2 != 0.  Both act trivially on z up to the
    translation part (t1, t2) in the last column.
    """

    block: np.ndarray | None = None          # GI: 2x2 invertible
    alpha: float | None = None               # Gc
    beta: float | None = None                # Gc
    translation: tuple[float, float] = (0.0, 0.0)


def automorphism_matrix(tag: FamilyTag, params: AutomorphismParams) -> np.ndarray:
    """Assemble the 3x3 automorphism matrix in the natural basis."""
    A = np.eye(3)
    if tag.kind == "GI":
        if params.block is None:
            raise ValueError("GI automorphisms require a 2x2 block")
        block = np.asarray(params.block, dtype=float)
        if block.shape != (2, 2):
            raise ValueError("block must be 2x2")
        if abs(np.linalg.det(block)) == 0.0:
            raise ValueError("block must be invertible")
        A[:2, :2] = block
    else:
        if params.alpha is None or params.beta is None:
            raise ValueError("Gc automorphisms require alpha and beta")
        c = float(tag.c)  # type: ignore[arg-type]
        a, b = float(params.alpha), float(params.beta)
        if b * b + (c - 1.0) * a * a == 0.0:
            raise ValueError("degenerate (alpha, beta) pair")
        A[0, 0] = b - a
        A[0, 1] = -c * a
        A[1, 0] = a
        A[1, 1] = b + a
    A[0, 2], A[1, 2] = params.translation
    return A


def adapted_automorphism(tag: FamilyTag, gamma: float, delta: float,
                         translation: tuple[float, float] = (0.0, 0.0)) -> np.ndarray:
    """Automorphism written in the adapted basis (c <= 1).

    c = 1:  [[gamma, delta, t1], [0, gamma, t2], [0, 0, 1]],  gamma != 0
    c < 1:  [[gamma, 0, t1], [0, delta, t2], [0, 0, 1]],      gamma delta != 0
    """
    if tag.kind != "Gc" or tag.c is None or tag.c > 1:
        raise ValueError("adapted automorphisms exist only for Gc with c <= 1")
    A = np.eye(3)
    if tag.c == 1:
        if gamma == 0.0:
            raise ValueError("gamma must be nonzero")
        A[0, 0] = A[1, 1] = gamma
        A[0, 1] = delta
    else:
        if gamma * delta == 0.0:
            raise ValueError("gamma and delta must be nonzero")
        A[0, 0] = gamma
        A[1, 1] = delta
    A[0, 2], A[1, 2] = translation
    return A


def is_automorphism(alg: LieAlgebra3, A: np.ndarray,
                    tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Check A [u, v] = [A u, A v] on all basis pairs, to tolerance."""
    A = np.asarray(A, dtype=float)
    if A.shape != (3, 3):
        return False
    if abs(np.linalg.det(A)) <= tol.abs_tol:
        return False
    scale = 1.0 + float(np.max(np.abs(A))) ** 2 * float(
        np.max(np.abs(alg.structure_constants)) + 1.0)
    e = np.eye(3)
    for i in range(3):
        for j in range(i + 1, 3):
            lhs = A @ alg.bracket(e[i], e[j])
            rhs = alg.bracket(A[:, i], A[:, j])
            if np.max(np.abs(lhs - rhs)) > tol.abs_tol * scale + tol.abs_tol:
                return False
    return True
