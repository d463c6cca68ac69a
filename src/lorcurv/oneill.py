"""Segre-type classification of operators that are self-adjoint with
respect to the frame inner product J = diag(1, 1, -1).

Unlike the Riemannian case such an operator need not be diagonalisable;
the possible types are

* ``{11,1}``  real diagonalisable (orthonormal eigenbasis),
* ``{1zz}``   one real and a complex-conjugate pair of eigenvalues,
* ``{21}``    a double root with a 2-dimensional invariant block that is
              a single Jordan cell (normal form has a unit off-diagonal
              pair in the (2,3) block),
* ``{3}``     a triple root with a single Jordan cell of size 3.

The classifier returns a transition matrix in O(2,1) conjugating the
input to its normal form, plus eigen-data and, when the input already
has one of the two recognisable block shapes, the block discriminant.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .metric import J21, frame_inner
from .tolerance import DEFAULT_TOL, ToleranceConfig


class ONeillType(str, Enum):
    DIAGONAL = "{11,1}"
    COMPLEX = "{1zz}"
    DOUBLE = "{21}"
    TRIPLE = "{3}"


@dataclass(frozen=True)
class EigenDatum:
    value: complex
    algebraic_multiplicity: int
    geometric_multiplicity: int


@dataclass(frozen=True)
class ONeillClassification:
    type_tag: ONeillType
    normal_form: np.ndarray
    transition: np.ndarray              # in O(2,1); normal = inv(T) A T
    eigen_data: tuple[EigenDatum, ...]
    discriminant: float | None = None   # (b-d)^2 - 4 r^2 for block shapes
    epsilon: int | None = None          # {21}: +1 if (2,2) entry is the larger one
    boundary_warning: bool = False


def boost(theta: float) -> np.ndarray:
    """Hyperbolic rotation in the (y2, y3) plane; lies in O(2,1)."""
    c, s = np.cosh(theta), np.sinh(theta)
    return np.array([[1.0, 0.0, 0.0],
                     [0.0, c, s],
                     [0.0, s, c]])


def _rotation12(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s, 0.0],
                     [s, c, 0.0],
                     [0.0, 0.0, 1.0]])


def _perm(order: tuple[int, int, int]) -> np.ndarray:
    P = np.zeros((3, 3))
    for new, old in enumerate(order):
        P[old, new] = 1.0
    return P


def _eigen_data(T: np.ndarray, band: float) -> tuple[EigenDatum, ...]:
    """Cluster eigenvalues and attach geometric multiplicities (SVD rank).

    A defective eigenvalue of Jordan size k is only computable to
    O((machine eps)^(1/k)), so exact multiples of a generic (conjugated)
    {21} or {3} operator come back scattered far beyond the nominal
    tolerance band.  Clustering therefore uses perturbation-aware widths:
    sqrt(eps) for pairs, cbrt(eps) for a full merge.
    """
    lam = np.linalg.eigvals(T)
    scale = max(1.0, float(np.max(np.abs(lam))))
    eps = float(np.finfo(float).eps)
    band2 = max(band, 20.0 * (eps * scale) ** 0.5)
    band3 = max(band, 20.0 * (eps * scale) ** (1.0 / 3.0))
    vals_r = sorted(float(v.real) for v in lam)
    if vals_r[2] - vals_r[0] <= band3:
        # all three merge: distinguish {11,1}/{21}/{3} by nullspace rank
        mean = sum(vals_r) / 3.0
        g = _null_dim(T, mean, band3)
        return (EigenDatum(complex(mean, 0.0), 3, g),)
    if float(np.max(np.abs(lam.imag))) > band2:
        # one real value and a conjugate pair
        real_idx = int(np.argmin(np.abs(lam.imag)))
        pair = [lam[i] for i in range(3) if i != real_idx]
        mu = pair[0] if pair[0].imag > 0 else pair[1]
        lam_r = float(lam[real_idx].real)
        g = _null_dim(T, lam_r, band)
        data = [EigenDatum(complex(lam_r, 0.0), 1, g),
                EigenDatum(complex(mu), 1, 1),
                EigenDatum(complex(mu.conjugate()), 1, 1)]
        data.sort(key=lambda d: (d.value.real, d.value.imag))
        return tuple(data)
    vals = vals_r
    clusters: list[list[float]] = [[vals[0]]]
    for v in vals[1:]:
        if abs(v - clusters[-1][-1]) <= band2:
            clusters[-1].append(v)
        else:
            clusters.append([v])
    data = []
    for cl in clusters:
        mean = sum(cl) / len(cl)
        data.append(EigenDatum(complex(mean, 0.0), len(cl),
                               _null_dim(T, mean, band2 if len(cl) > 1
                                         else band)))
    return tuple(data)


def _null_dim(T: np.ndarray, lam: float, band: float) -> int:
    sv = np.linalg.svd(T - lam * np.eye(3), compute_uv=False)
    scale = max(1.0, float(sv[0]))
    return int(np.sum(sv <= band * scale * 10))


def _null_basis(T: np.ndarray, lam: float, dim: int) -> np.ndarray:
    _, _, vt = np.linalg.svd(T - lam * np.eye(3))
    return vt[3 - dim:].T


def _orthonormalize(B: np.ndarray, band: float) -> list[tuple[np.ndarray, int]]:
    """J-orthonormalise the columns of B; returns (unit vector, sign) pairs,
    skipping near-null directions.  Works because J restricted to any
    subspace is symmetric, so its Gram matrix can be eigen-diagonalised."""
    gram = B.T @ J21 @ B
    vals, vecs = np.linalg.eigh(gram)
    out = []
    for k in range(B.shape[1]):
        if abs(vals[k]) <= band * max(1.0, float(np.max(np.abs(vals)))):
            continue
        v = B @ vecs[:, k]
        v = v / np.sqrt(abs(vals[k]))
        out.append((v, 1 if vals[k] > 0 else -1))
    return out


def _split_complement(v: np.ndarray, band: float) -> tuple[np.ndarray, np.ndarray]:
    """For a spacelike unit v, return (p, q): a J-orthonormal basis of the
    J-orthogonal complement with p spacelike, q timelike."""
    w = J21 @ v
    # nullspace of w^T via SVD
    _, _, vt = np.linalg.svd(w.reshape(1, 3))
    B = vt[1:].T
    pairs = _orthonormalize(B, band)
    if len(pairs) != 2 or {s for _, s in pairs} != {1, -1}:
        raise ArithmeticError("complement of spacelike vector must be Lorentzian")
    p = next(u for u, s in pairs if s == 1)
    q = next(u for u, s in pairs if s == -1)
    return p, q


def _block_boost_2x2(b: float, r: float, d: float, kind: str) -> float:
    """Boost angle normalising the block [[b, r], [-r, d]] in a (+,-) plane.

    Conjugation by a boost with parameter theta sends
      r      -> r cosh(2 theta) + ((b - d)/2) sinh(2 theta)
      b - d  -> (b - d) cosh(2 theta) + 2 r sinh(2 theta)
    kind selects the target: "diag" kills r (needs D > 0), "equal" equates
    the diagonal (needs D < 0), "unit" rescales a D = 0 block so r' = 1.
    """
    if kind == "diag":
        return 0.5 * float(np.arctanh(2 * r / (d - b)))
    if kind == "equal":
        return 0.5 * float(np.arctanh((d - b) / (2 * r)))
    # kind == "unit": here b - d = 2 eps r up to the tolerance band
    eps = 1 if (b - d) >= 0 else -1
    # with r > 0 enforced by the caller: r' = r * exp(2 eps theta)
    return -eps * 0.5 * float(np.log(r))


def _reflect_then_boost(b: float, r: float, d: float,
                        kind: str | None) -> np.ndarray:
    """O(2,1) transition for the block [[b, r], [-r, d]] on the (y2, y3)
    plane: reflecting the timelike axis when r < 0 flips the sign of r and
    stays in O(2,1); the boost for kind follows (none when kind is None)."""
    F = np.diag([1.0, 1.0, -1.0]) if r < 0 else np.eye(3)
    if kind is None:
        return F
    return F @ boost(_block_boost_2x2(b, abs(r), d, kind))


def classify_self_adjoint(T: np.ndarray,
                          tol: ToleranceConfig = DEFAULT_TOL
                          ) -> ONeillClassification:
    """Classify a J-self-adjoint operator and produce its normal form.

    Raises ValueError if J T is not symmetric (T not self-adjoint), and
    ArithmeticError if the constructive path and the eigenvalue analysis
    disagree outside the declared boundary band.
    """
    T = np.asarray(T, dtype=float)
    if T.shape != (3, 3):
        raise ValueError("operator must be 3x3")
    norm = float(np.max(np.abs(T)))
    sym_res = float(np.max(np.abs(J21 @ T - (J21 @ T).T)))
    if sym_res > tol.classification_tol * (1.0 + norm):
        raise ValueError(f"operator is not J-self-adjoint (residual {sym_res:g})")

    band = tol.classification_tol * (1.0 + norm)
    eigen = _eigen_data(T, band)

    shape = _match_block_shape(T, band)
    if shape is not None:
        result = _classify_from_shape(T, shape, eigen, tol)
        if not result.boundary_warning:
            etype = _type_from_eigen(eigen)
            if etype != result.type_tag:
                raise ArithmeticError(
                    f"shape path gave {result.type_tag.value} but eigenvalue "
                    f"analysis gave {etype.value}")
        return result

    ttype = _type_from_eigen(eigen)
    C = _construct_transition(T, ttype, eigen, band)
    normal = np.linalg.inv(C) @ T @ C
    eps = _arrangement(normal, band) if ttype == ONeillType.DOUBLE else None
    _check_transition(T, C, normal, ttype, tol)
    return ONeillClassification(ttype, normal, C, eigen, None, eps, False)


def _type_from_eigen(eigen: tuple[EigenDatum, ...]) -> ONeillType:
    if any(abs(d.value.imag) > 0 for d in eigen):
        return ONeillType.COMPLEX
    total_geo = sum(d.geometric_multiplicity for d in eigen)
    if total_geo == 3:
        return ONeillType.DIAGONAL
    if len(eigen) == 1 and eigen[0].geometric_multiplicity == 1:
        return ONeillType.TRIPLE
    return ONeillType.DOUBLE


def _match_block_shape(T: np.ndarray, band: float):
    """Detect the two recognisable sparsity patterns.

    "mixed" patterns have a decoupled spacelike entry a and a 2x2 block on
    a (+,-) plane with skew part; "spacelike" has the block on the (1,2)
    plane (then it is symmetric and plain rotation diagonalises it).
    Returns (pattern, axis) or None.
    """
    def z(i, j):
        return abs(T[i, j]) <= band

    if z(0, 1) and z(1, 0) and z(0, 2) and z(2, 0):
        if abs(T[1, 2] + T[2, 1]) <= band:
            return ("mixed", 0)
    if z(0, 1) and z(1, 0) and z(1, 2) and z(2, 1):
        if abs(T[0, 2] + T[2, 0]) <= band:
            return ("mixed", 1)
    if z(0, 2) and z(2, 0) and z(1, 2) and z(2, 1):
        if abs(T[0, 1] - T[1, 0]) <= band:
            return ("spacelike", 2)
    return None


def _classify_from_shape(T, shape, eigen, tol: ToleranceConfig
                         ) -> ONeillClassification:
    pattern, axis = shape
    norm = float(np.max(np.abs(T)))
    band = tol.classification_tol * (1.0 + norm)

    if pattern == "spacelike":
        b, cc, d = T[0, 0], 0.5 * (T[0, 1] + T[1, 0]), T[1, 1]
        theta = 0.5 * np.arctan2(2 * cc, b - d) if abs(cc) > 0 else 0.0
        C = _rotation12(theta)
        normal = np.linalg.inv(C) @ T @ C
        _check_transition(T, C, normal, ONeillType.DIAGONAL, tol)
        return ONeillClassification(ONeillType.DIAGONAL, normal, C, eigen,
                                    None, None, False)

    # mixed pattern: decoupled spacelike slot `axis`, block on the other two
    if axis == 0:
        P = np.eye(3)
        i, j = 1, 2
    else:
        P = _perm((1, 0, 2))
        i, j = 0, 2
    b, d = T[i, i], T[j, j]
    r = 0.5 * (T[i, j] - T[j, i])
    D = (b - d) ** 2 - 4 * r * r
    D_band = tol.classification_tol * (1.0 + norm * norm)

    boundary = False
    if abs(r) <= band:
        ttype, kind = ONeillType.DIAGONAL, None
    elif abs(D) <= D_band:
        ttype, kind = ONeillType.DOUBLE, "unit"
        boundary = bool(abs(D) > 0.0)
    elif D > 0:
        ttype, kind = ONeillType.DIAGONAL, "diag"
    else:
        ttype, kind = ONeillType.COMPLEX, "equal"
    C = P @ _reflect_then_boost(b, r, d, kind)

    normal = np.linalg.inv(C) @ T @ C
    eps = _arrangement(normal, band) if ttype == ONeillType.DOUBLE else None
    _check_transition(T, C, normal, ttype, tol, lenient=boundary)
    return ONeillClassification(ttype, normal, C, eigen, float(D), eps, boundary)


def _arrangement(normal: np.ndarray, band: float) -> int:
    """{21} arrangement sign: +1 when the (2,2) diagonal entry exceeds the
    (3,3) one in the boosted form [[a,0,0],[0,m+e,1],[0,-1,m-e]]."""
    return 1 if normal[1, 1] >= normal[2, 2] else -1


def _construct_transition(T: np.ndarray, ttype: ONeillType,
                          eigen: tuple[EigenDatum, ...], band: float) -> np.ndarray:
    if ttype == ONeillType.DIAGONAL:
        spacelike, timelike = [], None
        pairs = []
        for d in eigen:
            lam = d.value.real
            B = _null_basis(T, lam, d.geometric_multiplicity)
            pairs.extend((v, s, lam) for v, s in _orthonormalize(B, band))
        pairs.sort(key=lambda p: p[2])
        for v, s, _ in pairs:
            if s > 0:
                spacelike.append(v)
            else:
                timelike = v
        if len(spacelike) != 2 or timelike is None:
            raise ArithmeticError("diagonalisable case must split as (+,+,-)")
        return np.column_stack(spacelike + [timelike])

    if ttype == ONeillType.COMPLEX:
        real_d = min(eigen, key=lambda d: abs(d.value.imag))
        lam = real_d.value.real
        B = _null_basis(T, lam, 1)
        v = B[:, 0]
        nv = frame_inner(v, v)
        if nv <= 0:
            raise ArithmeticError("real eigenvector of a {1zz} operator "
                                  "must be spacelike")
        v = v / np.sqrt(nv)
        p, q = _split_complement(v, band)
        C0 = np.column_stack([v, p, q])
        T1 = np.linalg.inv(C0) @ T @ C0
        r = 0.5 * (T1[1, 2] - T1[2, 1])
        return C0 @ _reflect_then_boost(T1[1, 1], r, T1[2, 2], "equal")

    if ttype == ONeillType.DOUBLE:
        # find a spacelike eigenvector; the remaining invariant plane is
        # Lorentzian and carries the Jordan block
        v = None
        for d in eigen:
            B = _null_basis(T, d.value.real, d.geometric_multiplicity)
            for u, s in _orthonormalize(B, band):
                if s > 0:
                    v = u
                    break
            if v is not None:
                break
        if v is None:
            raise ArithmeticError("no spacelike eigenvector found for {21}")
        p, q = _split_complement(v, band)
        C0 = np.column_stack([v, p, q])
        T1 = np.linalg.inv(C0) @ T @ C0
        r = 0.5 * (T1[1, 2] - T1[2, 1])
        if abs(r) <= band:
            raise ArithmeticError("{21} block has no skew part")
        return C0 @ _reflect_then_boost(T1[1, 1], r, T1[2, 2], "unit")

    # ONeillType.TRIPLE: build the Jordan chain basis realising the exact
    # normal form [[a,1,-1],[1,a,0],[1,0,a]] with Gram matrix J.
    lam = eigen[0].value.real
    N = T - lam * np.eye(3)
    candidates = [np.eye(3)[:, k] for k in range(3)]
    u0 = max(candidates, key=lambda u: float(np.linalg.norm(N @ N @ u)))
    if float(np.linalg.norm(N @ N @ u0)) <= band:
        raise ArithmeticError("{3} operator has no length-3 chain")
    m0 = frame_inner(u0, u0)
    m1 = frame_inner(u0, N @ u0)
    m2 = frame_inner(N @ u0, N @ u0)
    if m2 <= 0:
        raise ArithmeticError("chain Gram coefficient must be positive for {3}")
    x = 2.0 / np.sqrt(m2)
    y = -x * m1 / (2.0 * m2)
    zc = -(x * x * m0 + 2 * x * y * m1 + y * y * m2) / (2.0 * x * m2)
    u = x * u0 + y * (N @ u0) + zc * (N @ N @ u0)
    y1 = (N @ u) / 2.0
    p = (N @ N @ u) / 2.0
    y2 = (p + u) / 2.0
    y3 = (p - u) / 2.0
    return np.column_stack([y1, y2, y3])


def _check_transition(T, C, normal, ttype, tol: ToleranceConfig,
                      lenient: bool = False) -> None:
    norm = float(np.max(np.abs(T)))
    band = tol.classification_tol * (1.0 + norm)
    slack = 1e3 if lenient else 1.0
    gram_res = float(np.max(np.abs(C.T @ J21 @ C - J21)))
    if gram_res > band * 100:
        raise ArithmeticError(f"transition is not in O(2,1) (residual {gram_res:g})")
    res = _pattern_residual(normal, ttype)
    if res > band * 100 * slack:
        raise ArithmeticError(
            f"normal form residual {res:g} too large for type {ttype.value}")


def _pattern_residual(normal: np.ndarray, ttype: ONeillType) -> float:
    a = normal
    if ttype == ONeillType.DIAGONAL:
        return float(np.max(np.abs(a - np.diag(np.diag(a)))))
    if ttype == ONeillType.COMPLEX:
        model = np.zeros((3, 3))
        model[0, 0] = a[0, 0]
        m = 0.5 * (a[1, 1] + a[2, 2])
        r = 0.5 * (a[1, 2] - a[2, 1])
        model[1, 1] = model[2, 2] = m
        model[1, 2], model[2, 1] = r, -r
        return float(np.max(np.abs(a - model)))
    if ttype == ONeillType.DOUBLE:
        model = np.zeros((3, 3))
        model[0, 0] = a[0, 0]
        m = 0.5 * (a[1, 1] + a[2, 2])
        eps = 1.0 if a[1, 1] >= a[2, 2] else -1.0
        model[1, 1], model[2, 2] = m + eps, m - eps
        sgn = 1.0 if a[1, 2] >= 0 else -1.0
        model[1, 2], model[2, 1] = sgn, -sgn
        return float(np.max(np.abs(a - model)))
    # {3}
    lam = np.trace(a) / 3.0
    model = lam * np.eye(3)
    model[0, 1], model[0, 2] = 1.0, -1.0
    model[1, 0], model[2, 0] = 1.0, 1.0
    return float(np.max(np.abs(a - model)))
