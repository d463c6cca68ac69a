"""Shared helpers: random automorphisms, random O(2,1) elements, the
parameter grids used by the table-reproduction tests, and a counter of
the package's eigensolver calls."""

from __future__ import annotations

import numpy as np
import pytest

import lorcurv.metric
from lorcurv import FamilyTag, adapted_automorphism, automorphism_matrix
from lorcurv.oneill import boost


ALL_TAGS = [
    FamilyTag("GI"),
    FamilyTag("Gc", 2.0),
    FamilyTag("Gc", 5.0),
    FamilyTag("Gc", 1.0),
    FamilyTag("Gc", -3.0),   # w = 2
    FamilyTag("Gc", 0.0),    # w = 1
    FamilyTag("Gc", 0.75),   # w = 1/2
]

#: grids wide enough to hit every form of every family
SWEEP_GRID = {
    "mu": [0.5, 1.0, 2.0, 5.0],
    "nu": [0.5, 1.0, 2.0, 5.0, 1.5, -0.5, -1.0, -2.0],
    "tau": [-2.0, 0.0, 0.5, 1.5, 2.0, 3.0],
    "eta": [-1.0, 0.0, 0.5],
}


def rand_automorphism(tag: FamilyTag, rng: np.random.Generator) -> np.ndarray:
    """A random, well-conditioned automorphism of the family algebra, in
    the family's classification basis."""
    t = rng.normal(size=2)
    if tag.kind == "GI":
        while True:
            B = rng.normal(size=(2, 2))
            if abs(np.linalg.det(B)) > 0.1:
                return automorphism_matrix(tag, block=B, translation=t)
    c = tag.c
    if c == 1 or c < 1:
        while True:
            g, d = rng.normal(), rng.normal()
            if abs(g) > 0.1 and (c == 1 or abs(d) > 0.1):
                return adapted_automorphism(tag, g, d, t)
    while True:
        a, b = rng.normal(), rng.normal()
        if b * b + (c - 1) * a * a > 0.1:
            return automorphism_matrix(tag, alpha=a, beta=b, translation=t)


def rand_o21(rng: np.random.Generator) -> np.ndarray:
    """Random element of O(2,1): rotation * boost * rotation * signs."""
    def rot(theta):
        c, s = np.cos(theta), np.sin(theta)
        return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])

    A = rot(rng.uniform(0, 2 * np.pi)) @ boost(rng.uniform(-1.5, 1.5)) \
        @ rot(rng.uniform(0, 2 * np.pi))
    signs = np.diag(rng.choice([-1.0, 1.0], size=3))
    return A @ signs


def jacobi_calls(monkeypatch, call):
    """The result of call() and the number of calls it made to the
    package's Jacobi eigensolver, metric._jacobi, as {"jacobi": n}, or {}
    for none.  The package names numpy only in arrays.array
    (tests/test_hygiene.py), so it has no other eigensolver and makes no
    LAPACK call."""
    calls = []
    jacobi = lorcurv.metric._jacobi
    with monkeypatch.context() as m:
        m.setattr(lorcurv.metric, "_jacobi", lambda rows: calls.append(rows) or jacobi(rows))
        result = call()
    return result, {"jacobi": len(calls)} if calls else {}


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260823)
