"""Seeded inputs for the benchmark workloads, with the oracle values that
go with them.

The samplers here are the benchmark's own, modelled on the test helpers
but not imported from them, so that editing a test cannot change a
workload.  Every input carries its source cell: the canonical form, its
parameters and the closed-form atlas values (scalar curvature, Ricci
operator type, constant-curvature class).  The oracle in ``oracle.py``
checks answers against these values, which come from the atlas formulas
and not from the curvature engine or the reduction being timed.

Everything in this module runs before timing starts.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

import lorcurv as L
from lorcurv import BasisLabel, ConstantCurvatureClass, FamilyTag, ONeillType

#: the seven families of the test suite's sweep
TAGS = (FamilyTag("GI"), FamilyTag("Gc", 2.0), FamilyTag("Gc", 5.0),
        FamilyTag("Gc", 1.0), FamilyTag("Gc", -3.0), FamilyTag("Gc", 0.0),
        FamilyTag("Gc", 0.75))

#: parameter grid wide enough to reach every form of every family
SWEEP_GRID = {
    "mu": [0.5, 1.0, 2.0, 5.0],
    "nu": [0.5, 1.0, 2.0, 5.0, 1.5, -0.5, -1.0, -2.0],
    "tau": [-2.0, 0.0, 0.5, 1.5, 2.0, 3.0],
    "eta": [-1.0, 0.0, 0.5],
}

#: the robustness grid: c cells, and the scales lambda applied to each metric
EDGE_CELLS = (("GI", FamilyTag("GI")), ("c2", FamilyTag("Gc", 2.0)),
              ("c0.75", FamilyTag("Gc", 0.75)), ("c1", FamilyTag("Gc", 1.0)),
              ("c1-below", FamilyTag("Gc", 1.0 - 1e-6)),
              ("c1-above", FamilyTag("Gc", 1.0 + 1e-6)),
              ("c50", FamilyTag("Gc", 50.0)), ("c1e4", FamilyTag("Gc", 1e4)))
EDGE_LAMBDAS = (("lam1", 1.0), ("lam1e-4", 1e-4), ("lam1e4", 1e4))


def grid_arg(grid: dict[str, list[float]]) -> str:
    """The grid in the CLI's ``--grid`` syntax."""
    return ";".join(f"{k}=" + ",".join(repr(v) for v in vs)
                    for k, vs in grid.items())


# --------------------------------------------------------------------------
# own copies of the family structure, for samplers and the oracle

def adapted_basis_vectors(tag: FamilyTag) -> np.ndarray:
    """Columns are the adapted basis vectors (c <= 1) in natural
    coordinates; the identity for families reduced in the natural basis."""
    if tag.kind == "GI" or tag.c > 1:
        return np.eye(3)
    if tag.c == 1:
        T = np.array([[-2.0, -1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    else:
        w = float(np.sqrt(1.0 - tag.c))
        T = np.array([[1.0 / (2 * w), (1.0 + w) / (2 * w), 0.0],
                      [-1.0 / (2 * w), (w - 1.0) / (2 * w), 0.0],
                      [0.0, 0.0, 1.0]])
    return np.linalg.inv(T)


def structure_constants(tag: FamilyTag, adapted: bool) -> np.ndarray:
    """consts[i, j] = [e_i, e_j] in the natural basis, or in the adapted
    basis when ``adapted`` (and the family has one)."""
    C = np.zeros((3, 3, 3))
    if tag.kind == "GI":
        C[2, 0], C[2, 1] = [1.0, 0, 0], [0, 1.0, 0]      # [z,x] = x, [z,y] = y
    else:
        C[2, 0], C[2, 1] = [0, 1.0, 0], [-tag.c, 2.0, 0]  # [z,x] = y, [z,y] = -cx + 2y
    C[0, 2], C[1, 2] = -C[2, 0], -C[2, 1]
    if not adapted:
        return C
    U = adapted_basis_vectors(tag)
    Ui = np.linalg.inv(U)
    return np.einsum("ai,bj,abk,lk->ijl", U, U, C, Ui)


def rand_automorphism(tag: FamilyTag, rng: np.random.Generator) -> np.ndarray:
    """A random, well-conditioned automorphism in the family's
    classification basis (natural for GI and c > 1, adapted for c <= 1)."""
    A = np.eye(3)
    A[:2, 2] = rng.normal(size=2)
    if tag.kind == "GI":
        while True:
            B = rng.normal(size=(2, 2))
            if abs(np.linalg.det(B)) > 0.1:
                A[:2, :2] = B
                return A
    c = tag.c
    if c <= 1:
        while True:
            g, d = rng.normal(), rng.normal()
            if abs(g) > 0.1 and (c == 1 or abs(d) > 0.1):
                A[:2, :2] = [[g, d], [0.0, g]] if c == 1 else [[g, 0.0], [0.0, d]]
                return A
    while True:
        a, b = rng.normal(), rng.normal()
        if b * b + (c - 1) * a * a > 0.1:
            A[:2, :2] = [[b - a, -c * a], [a, b + a]]
            return A


def rand_lorentzian(rng: np.random.Generator) -> np.ndarray:
    """Q diag(+, +, -) Q^T with Q orthogonal and |eigenvalues| in [0.1, 3]."""
    Q, R = np.linalg.qr(rng.normal(size=(3, 3)))
    Q = Q * np.sign(np.diag(R))
    e = rng.uniform(0.1, 3.0, size=3) * np.array([1.0, 1.0, -1.0])
    H = Q @ np.diag(e) @ Q.T
    return 0.5 * (H + H.T)


# --------------------------------------------------------------------------
# source cells: every canonical form at every grid point in its domain

@dataclass(frozen=True)
class Cell:
    index: int
    tag: FamilyTag
    basis: BasisLabel
    form_id: str
    params: dict
    canonical: np.ndarray
    rho: float
    ric_scale: float                  # max |closed-form Ricci operator|
    oneill: ONeillType
    constant: ConstantCurvatureClass


def expected_constant_class(ric_op: np.ndarray, rho: float) -> ConstantCurvatureClass:
    """In dimension three a metric has constant curvature iff it is
    Einstein: Ric = (rho / 3) I."""
    band = 1e-9 * (1.0 + float(np.max(np.abs(ric_op))))
    if float(np.max(np.abs(ric_op - rho / 3.0 * np.eye(3)))) > band:
        return ConstantCurvatureClass.NON_CONSTANT
    if abs(rho) <= band:
        return ConstantCurvatureClass.FLAT
    return ConstantCurvatureClass.POSITIVE if rho > 0 else ConstantCurvatureClass.NEGATIVE


def sweep_cells() -> list[Cell]:
    cells = []
    for tag in TAGS:
        basis = L.classification_basis(tag)
        for spec in L.form_specs(tag):
            names = spec.param_names
            for values in itertools.product(*(sorted(SWEEP_GRID[n]) for n in names)):
                params = {n: float(v) for n, v in zip(names, values)}
                try:
                    closed = L.closed_form_report(tag, spec.form_id, params)
                except ValueError:          # outside the form's domain
                    continue
                ric = np.asarray(closed.ricci_op, dtype=float)
                cells.append(Cell(
                    len(cells), tag, basis, spec.form_id, params,
                    L.canonical_matrix(tag, spec.form_id, params),
                    closed.rho, float(np.max(np.abs(ric))), closed.oneill_type,
                    expected_constant_class(ric, closed.rho)))
    return cells


#: the least share of max(1, largest entry) that a nonzero entry in the
#: plane rows (the rows of the first two basis vectors) of an image may
#: have in the ``survey``, ``orbits`` and ``cli`` workloads; see
#: ``well_scaled``
PIVOT_FLOOR = 0.02


def well_scaled(h: np.ndarray) -> bool:
    """False if an entry in the first two rows of ``h`` is nonzero but
    below PIVOT_FLOOR of max(1, largest entry of ``h``).

    The reducer divides by, or rescales with, those entries.  Its zero
    band is relative to 1 + the largest entry, so a rescaling step can
    push an entry that is small on that scale into the band, and the
    reducer then rejects a valid metric ("rank-deficient plane block",
    "pivot vanishes in degenerate branch"; about one survey op in 20 000
    with the samplers above).  The ``survey``, ``orbits`` and ``cli``
    workloads take only well-scaled images, so that their ops do not fail;
    the ``edge`` workload's ``squeezed`` cell takes only images that are
    not (``squeezed_natural``) and counts those failures.  Exact zeros are
    the canonical form's own and stay allowed.
    """
    top = float(np.max(np.abs(h)))
    rows = np.abs(h[:2]).ravel()
    return all(x <= 1e-12 * top or x >= PIVOT_FLOOR * max(1.0, top)
               for x in rows)


def congruent(h: np.ndarray, tag: FamilyTag,
              rng: np.random.Generator) -> np.ndarray:
    """B^T h B for a random automorphism B, redrawn until the image is
    well-scaled."""
    while True:
        B = rand_automorphism(tag, rng)
        h2 = B.T @ h @ B
        if well_scaled(h2):
            return h2


def image(cell: Cell, rng: np.random.Generator) -> np.ndarray:
    return congruent(cell.canonical, cell.tag, rng)


# --------------------------------------------------------------------------
# one pass of each workload: a list of items, each with its op arguments
# (JSON-able once arrays become lists, so that a fresh interpreter can replay
# the first one) and what the oracle needs to check the answer

@dataclass
class Item:
    args: dict
    cell: Cell | None = None
    expect: dict | None = None
    kind: str = ""                    # cli subcommand, or edge cell name
    result: object = None             # set by the run: the op's return value
    seconds: float = 0.0              # set by the run: the op's duration
    outcome: str = ""                 # set by the run: oracle outcome class
    note: str = ""                    # set by the run: why it is not ok


def _tagj(tag: FamilyTag):
    return [tag.kind, tag.c]


def survey_pass(cells, rng) -> list[Item]:
    return [Item({"tag": _tagj(c.tag), "basis": c.basis.value,
                  "h": image(c, rng)}, c) for c in cells]


def orbits_pass(cells, rng) -> list[Item]:
    by_family: dict[FamilyTag, list[Cell]] = {}
    for c in cells:
        by_family.setdefault(c.tag, []).append(c)
    items = []
    for c in cells:
        h = image(c, rng)
        h_image = congruent(h, c.tag, rng)
        others = [o for o in by_family[c.tag] if o is not c]
        other = others[rng.integers(len(others))]
        items.append(Item({"tag": _tagj(c.tag), "basis": c.basis.value,
                           "h": h, "h_image": h_image,
                           "h_other": image(other, rng)}, c))
    return items


def _edge_group(name: str, tag: FamilyTag, H: np.ndarray,
                cell: Cell | None = None) -> list[Item]:
    """H at every lambda; the lambda = 1 item comes first and the others
    hold it as ``expect["base"]``."""
    items, base = [], None
    for lam_name, lam in EDGE_LAMBDAS:
        item = Item({"tag": _tagj(tag), "h": lam * H}, cell,
                    expect={"lam": lam, "lam_name": lam_name, "base": base},
                    kind=name)
        base = base or item
        items.append(item)
    return items


#: the plane block of the automorphism behind a ``squeezed`` edge item is
#: shrunk by a factor drawn log-uniformly from this range
SQUEEZE = (0.03, 0.15)


def squeezed_natural(cells, rng) -> tuple[Cell, np.ndarray]:
    """An image of a random sweep cell under an automorphism whose plane
    block is shrunk by a factor in SQUEEZE (still an automorphism in every
    family), redrawn until it is not well-scaled; in the natural basis."""
    while True:
        cell = cells[rng.integers(len(cells))]
        A = rand_automorphism(cell.tag, rng)
        A[:2, :2] *= np.exp(rng.uniform(*np.log(SQUEEZE)))
        h = A.T @ cell.canonical @ A
        if not well_scaled(h):
            Ui = np.linalg.inv(adapted_basis_vectors(cell.tag))
            h = Ui.T @ h @ Ui
            return cell, 0.5 * (h + h.T)


def edge_pass(cells, rng, per_cell: int) -> list[Item]:
    """per_cell random metrics for every c cell, and per_cell squeezed
    images of sweep cells (cell ``squeezed``), each at every lambda."""
    items = []
    for name, tag in EDGE_CELLS:
        for _ in range(per_cell):
            items += _edge_group(name, tag, rand_lorentzian(rng))
    for _ in range(per_cell):
        cell, h = squeezed_natural(cells, rng)
        items += _edge_group("squeezed", cell.tag, h, cell)
    return items


#: malformed input that the CLI should refuse with exit 2: name, argv, documents
PROBES = (
    ("nan-tolerance", ["classify", "{0}"],
     ['{"family": "GI", "metric": [[1, 0, 0], [0, 1, 0], [0, 0, -1]], '
      '"tolerance": {"abs_tol": NaN}}']),
    ("non-numeric-metric", ["classify", "{0}"],
     ['{"family": "GI", "metric": [[1, 0, 0], [0, "a", 0], [0, 0, -1]]}']),
    ("tiny-classification-tol", ["curvature", "{0}"],
     ['{"family": {"Gc": 2}, "metric": [[-1, -1, 0], [-1, 0, 0], [0, 0, 4]], '
      '"tolerance": {"classification_tol": 1e-20}}']),
    ("atlas-c-nan", ["atlas", "--family", "Gc", "--c", "nan", "--grid", "mu=1"], []),
    ("bool-c", ["classify", "{0}"],
     ['{"family": {"Gc": true}, "metric": [[1, 0, 0], [0, 1, 0], [0, 0, -1]]}']),
)


def _doc(cell: Cell, h: np.ndarray) -> str:
    family = "GI" if cell.tag.kind == "GI" else {"Gc": cell.tag.c}
    return json.dumps({"family": family, "basis": cell.basis.value,
                       "metric": np.asarray(h).tolist()})


#: cells per family in one CLI pass: enough that the atlas tables stay
#: under a tenth of the checked ops, so that the 90th percentile falls among
#: the many short ops and not at the edge of the few long ones
CLI_CELLS_PER_FAMILY = 3


def _cli_cell_items(c: Cell, rng) -> list[Item]:
    h = image(c, rng)
    h2 = congruent(h, c.tag, rng)
    items = [Item({"argv": [sub, "{0}"], "docs": [_doc(c, h)]}, c, {"h": h}, sub)
             for sub in ("classify", "curvature", "constcurv")]
    items.append(Item({"argv": ["equiv", "{0}", "{1}"],
                       "docs": [_doc(c, h), _doc(c, h2)]},
                      c, {"h": h, "h2": h2}, "equiv"))
    return items


def cli_pass(cells, rng) -> list[Item]:
    """CLI_CELLS_PER_FAMILY cell images per family through classify,
    curvature, constcurv and equiv; one atlas table per family.  An item's
    ``args`` holds the argv after ``python -m lorcurv.cli`` with ``{0}``,
    ``{1}`` standing for the documents in ``args["docs"]``."""
    items = []
    for tag in TAGS:
        family = [c for c in cells if c.tag == tag]
        picked = rng.choice(len(family), CLI_CELLS_PER_FAMILY, replace=False)
        for c in (family[i] for i in picked):
            items += _cli_cell_items(c, rng)
    for tag in TAGS:
        argv = ["atlas", "--family", tag.kind]
        if tag.kind == "Gc":
            argv += ["--c", repr(tag.c)]
        argv += ["--grid", grid_arg(SWEEP_GRID)]
        items.append(Item({"argv": argv, "docs": []},
                          expect={"cells": [c for c in cells if c.tag == tag]},
                          kind="atlas"))
    return items


def probes_pass() -> list[Item]:
    """The malformed probes, as ``cli_pass`` items."""
    return [Item({"argv": argv, "docs": docs}, expect={"probe": name},
                 kind="probe")
            for name, argv, docs in PROBES]
