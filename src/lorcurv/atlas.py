"""Registry of the canonical forms and their closed-form curvature atlas.

Each canonical form is keyed once, by its FormSpec.  The spec records, as
explicit formulas in the form parameters: the canonical matrix in the
classification basis of the family, a distinguished orthonormal frame,
the Ricci operator in that frame and a non-null eigenvector of it.  Each
formula is a callable of the FamilyTag (its c and, for c < 1, w) and the
parameters.  In dimension three the Ricci operator fixes the rest of the
curvature: rho = tr Ric and the three frame sectional curvatures follow
by Milnor's identity (curvature.milnor_sectional), and the operator type
by the engine's discriminant rule, applied here without calling the engine.
cross_check() evaluates the formulas on a parameter point and compares
them against the numerical curvature engine, reporting per-cell residuals
instead of raising, so systematic discrepancies (e.g. transcription slips
in the source material for these formulas) surface as data.  Cells where
the formula implemented here deliberately differs from its printed source
carry a ``notes`` entry with the printed variant.  The formulas return
rows of Python floats, and neither the tables nor the cross-check import
numpy; ``canonical_matrix`` and the entries' Ricci operators hand out
arrays.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Callable

from .algebra import FamilyTag, classification_basis, cross_rewrite, make_family_algebra
from .arrays import Array, ArrayField, Rows, array, float_rows, matmul, transpose
from .curvature import _ricci_operator, curvature_report, milnor_sectional
from .metric import _I3, MetricTensor, OrthonormalFrame
from .oneill import ONeillType
from .tolerance import DEFAULT_TOL, ToleranceConfig

_S2 = math.sqrt(2.0)
#: 1 / sqrt(2), the entries of a null pair's frame vectors
_R = 1.0 / _S2
_ZERO: Rows = ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))


@dataclass(frozen=True)
class FormSpec:
    form_id: str
    param_names: tuple[str, ...]
    domain: Callable          # (tag, p) -> bool
    matrix: Callable          # (tag, p) -> rows of the 3x3 canonical matrix
    frame: Callable           # (tag, p) -> rows of the 3x3 column matrix
    ric: Callable             # (tag, p) -> rows of the 3x3 Ricci operator
    #: (tag, p) -> a non-null eigenvector of ric, in the frame
    eigenvector: Callable = lambda tag, p: (1.0, 0.0, 0.0)
    notes: dict[str, str] = field(default_factory=dict)


def _cols(*vectors) -> Rows:
    """The matrix with these columns, as rows."""
    return transpose(vectors)


def _diag(a, b, c) -> Rows:
    return (a, 0.0, 0.0), (0.0, b, 0.0), (0.0, 0.0, c)


# --------------------------------------------------------------------------
# formulas too long for a lambda, or shared by two forms

def _gc_gt1_2_ric(tag, p):
    c, t, mu = tag.c, p["tau"], p["mu"]
    den = 2.0 * (1.0 - t) * mu
    r = (c - t) / (mu * math.sqrt(1.0 - t))
    return ((t * t + (4 - 2 * c) * t + (c * c - 4)) / den, 0.0, 0.0), \
        (0.0, (t * t + 2 * t - (c * c - 2 * c + 4)) / den, -r), \
        (0.0, r, -(t * t - 6 * t - (c * c - 2 * c - 4)) / den)


def _gc_gt1_3_ric(tag, p):
    c, nu, mu = tag.c, p["nu"], p["mu"]
    den = 2.0 * (nu - 1.0) * mu
    r = (c - nu) / (mu * math.sqrt(nu - 1.0))
    return ((nu * nu + 2 * nu - (c * c - 2 * c + 4)) / den, r, 0.0), \
        (r, -(nu * nu - 6 * nu - (c * c - 2 * c - 4)) / den, 0.0), \
        (0.0, 0.0, ((nu - c) ** 2 + 4 * (nu - 1)) / den)


def _lt1_10_matrix(tag, p):
    return (1.0, 1.0, 0.0), (1.0, p["tau"], 0.0), (0.0, 0.0, p["nu"])


def _lt1_10_1_ric(tag, p):
    w, t, nu = tag.w, p["tau"], p["nu"]
    den = nu * (1.0 - t)
    r = 2 * w * (1 + w) / (nu * math.sqrt(1.0 - t))
    return (-2 * (w * w + w + 1 - (1 + w) * t) / den, 0.0, -r), \
        (0.0, 2 * (w * w * t + t - 1) / den, 0.0), \
        (r, 0.0, 2 * (w * w + w - 1 + (1 - w) * t) / den)


def _lt1_10_2_ric(tag, p):
    w, t, nu = tag.w, p["tau"], p["nu"]
    den = nu * (t - 1.0)
    r = 2 * w * (1 + w) / (nu * math.sqrt(t - 1.0))
    return (2 * (w * w + w + 1 - (1 + w) * t) / den, -r, 0.0), \
        (-r, -2 * (w * w + w - 1 + (1 - w) * t) / den, 0.0), \
        (0.0, 0.0, -2 * (w * w * t + t - 1) / den)


def _lt1_11_ric(tag, p):
    w, e, mu = tag.w, p["eta"], p["mu"]
    den = mu * (1.0 - e)
    r = 2 * w * (1 + w) / (mu * math.sqrt(1.0 - e))
    return (2 * (w * w * e + e - 1) / den, 0.0, 0.0), \
        (0.0, 2 * (w * w + w - 1 + e - w * e) / den, r), \
        (0.0, -r, -2 * (w * w + w + 1 - (1 + w) * e) / den)


def _null_pair_ric(x):
    """The Ricci operator [[0, 0, 0], [0, -x, x], [0, -x, x]]."""
    return (0.0, 0.0, 0.0), (0.0, -x, x), (0.0, -x, x)


#: every canonical form by id, in table order; the prefix of an id before
#: its first "." is the FamilyTag.family_key() of its family
_FORMS: dict[str, FormSpec] = {spec.form_id: spec for spec in (
    # family GI
    FormSpec(
        "GI.1", ("mu",),
        domain=lambda tag, p: p["mu"] > 0,
        matrix=lambda tag, p: _diag(1.0, -1.0, p["mu"]),
        frame=lambda tag, p: _cols((1.0, 0.0, 0.0), (0.0, 0.0, 1.0 / math.sqrt(p["mu"])),
                                   (0.0, 1.0, 0.0)),
        ric=lambda tag, p: _diag(*[-(2.0 / p["mu"])] * 3),
    ),
    FormSpec(
        "GI.2", ("mu",),
        domain=lambda tag, p: p["mu"] > 0,
        matrix=lambda tag, p: _diag(1.0, 1.0, -p["mu"]),
        frame=lambda tag, p: _diag(1.0, 1.0, 1.0 / math.sqrt(p["mu"])),
        ric=lambda tag, p: _diag(*[2.0 / p["mu"]] * 3),
    ),
    FormSpec(
        "GI.3", (),
        domain=lambda tag, p: True,
        matrix=lambda tag, p: ((1.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.0, 1.0, 0.0)),
        frame=lambda tag, p: _cols((1.0, 0.0, 0.0), (0.0, _R, _R), (0.0, _R, -_R)),
        ric=lambda tag, p: _ZERO,
    ),
    # family Gc, c > 1
    FormSpec(
        "Gc_gt1.1", ("mu",),
        domain=lambda tag, p: p["mu"] > 0,
        matrix=lambda tag, p: ((p["mu"], 0.0, 0.0), (0.0, 0.0, 1.0), (0.0, 1.0, 0.0)),
        frame=lambda tag, p: _cols((1.0 / math.sqrt(p["mu"]), 0.0, 0.0),
                                   (0.0, _R, _R), (0.0, _R, -_R)),
        ric=lambda tag, p: (
            (-tag.c ** 2 * p["mu"] / 2, 0.0, 0.0),
            (0.0, tag.c * (tag.c * p["mu"] + 1) / 2, -tag.c / 2),
            (0.0, tag.c / 2, tag.c * (tag.c * p["mu"] - 1) / 2)),
    ),
    FormSpec(
        "Gc_gt1.2", ("mu", "tau"),
        domain=lambda tag, p: p["mu"] > 0 and p["tau"] < 1,
        matrix=lambda tag, p: ((1.0, 1.0, 0.0), (1.0, p["tau"], 0.0), (0.0, 0.0, p["mu"])),
        frame=lambda tag, p: _cols(
            (0.0, 0.0, 1.0 / math.sqrt(p["mu"])), (1.0, 0.0, 0.0),
            (1.0 / math.sqrt(1.0 - p["tau"]), -1.0 / math.sqrt(1.0 - p["tau"]), 0.0)),
        ric=_gc_gt1_2_ric,
        notes={"kappa31": "printed without the factor 4 in the denominator"},
    ),
    FormSpec(
        "Gc_gt1.3", ("mu", "nu"),
        domain=lambda tag, p: p["mu"] > 0 and 1 < p["nu"] <= tag.c,
        matrix=lambda tag, p: ((1.0, 1.0, 0.0), (1.0, p["nu"], 0.0), (0.0, 0.0, -p["mu"])),
        frame=lambda tag, p: _cols(
            (1.0, 0.0, 0.0),
            (1.0 / math.sqrt(p["nu"] - 1.0), -1.0 / math.sqrt(p["nu"] - 1.0), 0.0),
            (0.0, 0.0, 1.0 / math.sqrt(p["mu"]))),
        ric=_gc_gt1_3_ric,
        eigenvector=lambda tag, p: (0.0, 0.0, 1.0),
        notes={"ric11": "printed with an overall minus sign"},
    ),
    # family Gc, c = 1 (Q-adapted basis)
    FormSpec(
        "G1.1", ("mu",),
        domain=lambda tag, p: p["mu"] > 0,
        matrix=lambda tag, p: ((0.0, 0.0, 1.0), (0.0, p["mu"], 0.0), (1.0, 0.0, 0.0)),
        frame=lambda tag, p: _cols((0.0, 1.0 / math.sqrt(p["mu"]), 0.0),
                                   (_R, 0.0, _R), (_R, 0.0, -_R)),
        ric=lambda tag, p: _ZERO,
    ),
    FormSpec(
        "G1.2", ("mu",),
        domain=lambda tag, p: p["mu"] > 0,
        matrix=lambda tag, p: ((p["mu"], 0.0, 0.0), (0.0, 0.0, 1.0), (0.0, 1.0, 0.0)),
        frame=lambda tag, p: _cols((1.0 / math.sqrt(p["mu"]), 0.0, 0.0),
                                   (0.0, _R, _R), (0.0, _R, -_R)),
        ric=lambda tag, p: (
            (-p["mu"] / 2, math.sqrt(p["mu"] / 2), -math.sqrt(p["mu"] / 2)),
            (math.sqrt(p["mu"] / 2), p["mu"] / 2, 0.0),
            (math.sqrt(p["mu"] / 2), 0.0, p["mu"] / 2)),
        eigenvector=lambda tag, p: (
            p["mu"], -math.sqrt(p["mu"] / 2), -math.sqrt(p["mu"] / 2)),
    ),
    FormSpec(
        "G1.3", ("mu", "nu"),
        domain=lambda tag, p: p["mu"] > 0 and p["nu"] > 0,
        matrix=lambda tag, p: _diag(1.0, -p["nu"], p["mu"]),
        frame=lambda tag, p: _cols((1.0, 0.0, 0.0), (0.0, 0.0, 1.0 / math.sqrt(p["mu"])),
                                   (0.0, 1.0 / math.sqrt(p["nu"]), 0.0)),
        ric=lambda tag, p: (
            (-(4 * p["nu"] + 1) / (2 * p["mu"] * p["nu"]), 0.0,
             -1.0 / (p["mu"] * math.sqrt(p["nu"]))),
            (0.0, (1 - 4 * p["nu"]) / (2 * p["mu"] * p["nu"]), 0.0),
            (1.0 / (p["mu"] * math.sqrt(p["nu"])), 0.0,
             (1 - 4 * p["nu"]) / (2 * p["mu"] * p["nu"]))),
        eigenvector=lambda tag, p: (0.0, 1.0, 0.0),
    ),
    FormSpec(
        "G1.4", ("mu", "nu"),
        domain=lambda tag, p: p["mu"] > 0 and p["nu"] > 0,
        matrix=lambda tag, p: _diag(1.0, p["nu"], -p["mu"]),
        frame=lambda tag, p: _diag(1.0, 1.0 / math.sqrt(p["nu"]), 1.0 / math.sqrt(p["mu"])),
        ric=lambda tag, p: (
            ((4 * p["nu"] - 1) / (2 * p["mu"] * p["nu"]),
             1.0 / (p["mu"] * math.sqrt(p["nu"])), 0.0),
            (1.0 / (p["mu"] * math.sqrt(p["nu"])),
             (4 * p["nu"] + 1) / (2 * p["mu"] * p["nu"]), 0.0),
            (0.0, 0.0, (4 * p["nu"] + 1) / (2 * p["mu"] * p["nu"]))),
        eigenvector=lambda tag, p: (0.0, 0.0, 1.0),
        notes={"ric22": "printed as (4 mu + 1)/(2 mu nu)",
               "ric33": "printed as (4 mu + 1)/(2 mu nu)"},
    ),
    FormSpec(
        "G1.5", ("mu", "nu"),
        domain=lambda tag, p: p["mu"] > 0 and p["nu"] > 0,
        matrix=lambda tag, p: _diag(-1.0, p["nu"], p["mu"]),
        frame=lambda tag, p: _cols((0.0, 1.0 / math.sqrt(p["nu"]), 0.0),
                                   (0.0, 0.0, 1.0 / math.sqrt(p["mu"])), (1.0, 0.0, 0.0)),
        ric=lambda tag, p: (
            ((1 - 4 * p["nu"]) / (2 * p["mu"] * p["nu"]), 0.0,
             1.0 / (p["mu"] * math.sqrt(p["nu"]))),
            (0.0, (1 - 4 * p["nu"]) / (2 * p["mu"] * p["nu"]), 0.0),
            (-1.0 / (p["mu"] * math.sqrt(p["nu"])), 0.0,
             -(4 * p["nu"] + 1) / (2 * p["mu"] * p["nu"]))),
        eigenvector=lambda tag, p: (0.0, 1.0, 0.0),
        notes={"ric22": "printed as (1 - 4 mu)/(2 mu nu)",
               "ric33": "printed as -(4 mu + 1)/(2 mu nu)"},
    ),
    FormSpec(
        "G1.6", ("mu",),
        domain=lambda tag, p: p["mu"] > 0,
        matrix=lambda tag, p: ((0.0, 1.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, p["mu"])),
        frame=lambda tag, p: _cols((0.0, 0.0, 1.0 / math.sqrt(p["mu"])),
                                   (_R, _R, 0.0), (_R, -_R, 0.0)),
        ric=lambda tag, p: ((-2 / p["mu"], 0.0, 0.0),
                            (0.0, -3 / p["mu"], 1 / p["mu"]),
                            (0.0, -1 / p["mu"], -1 / p["mu"])),
    ),
    FormSpec(
        "G1.7", ("mu",),
        domain=lambda tag, p: p["mu"] > 0,
        matrix=lambda tag, p: ((0.0, -1.0, 0.0), (-1.0, 0.0, 0.0), (0.0, 0.0, p["mu"])),
        frame=lambda tag, p: _cols((0.0, 0.0, 1.0 / math.sqrt(p["mu"])),
                                   (_R, -_R, 0.0), (_R, _R, 0.0)),
        ric=lambda tag, p: ((-2 / p["mu"], 0.0, 0.0),
                            (0.0, -1 / p["mu"], -1 / p["mu"]),
                            (0.0, 1 / p["mu"], -3 / p["mu"])),
    ),
    # family Gc, c < 1 (P-adapted basis)
    FormSpec(
        "Gc_lt1.1", (),
        domain=lambda tag, p: True,
        matrix=lambda tag, p: ((0.0, 0.0, 1.0), (0.0, 1.0, 0.0), (1.0, 0.0, 0.0)),
        frame=lambda tag, p: _cols((0.0, 1.0, 0.0), (_R, 0.0, _R), (_R, 0.0, -_R)),
        ric=lambda tag, p: _null_pair_ric(tag.w * (tag.w - 1)),
    ),
    FormSpec(
        "Gc_lt1.2", (),
        domain=lambda tag, p: True,
        matrix=lambda tag, p: ((1.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.0, 1.0, 0.0)),
        frame=lambda tag, p: _cols((1.0, 0.0, 0.0), (0.0, _R, _R), (0.0, _R, -_R)),
        ric=lambda tag, p: _null_pair_ric(tag.w * (tag.w + 1)),
    ),
    FormSpec(
        "Gc_lt1.3", ("mu",),
        domain=lambda tag, p: p["mu"] > 0,
        matrix=lambda tag, p: ((1.0, 1.0, 0.0), (1.0, 1.0, p["mu"]), (0.0, p["mu"], 0.0)),
        frame=lambda tag, p: _cols((1.0, 0.0, 0.0), (1.0, -1.0, -1.0 / (2 * p["mu"])),
                                   (1.0, -1.0, 1.0 / (2 * p["mu"]))),
        ric=lambda tag, p: (
            (-2 * tag.w ** 2 / p["mu"] ** 2,
             tag.w * (1 + tag.w) / p["mu"] ** 2,
             -tag.w * (1 + tag.w) / p["mu"] ** 2),
            (tag.w * (1 + tag.w) / p["mu"] ** 2,
             tag.w * (3 * tag.w - 1) / (2 * p["mu"] ** 2),
             tag.w * (1 + tag.w) / (2 * p["mu"] ** 2)),
            (tag.w * (1 + tag.w) / p["mu"] ** 2,
             -tag.w * (1 + tag.w) / (2 * p["mu"] ** 2),
             tag.w * (1 + 5 * tag.w) / (2 * p["mu"] ** 2))),
        eigenvector=lambda tag, p: (4 * tag.w, -(1 + tag.w), -(1 + tag.w)),
        notes={"ric33": "printed as z(1+5w)/(2 mu^2)"},
    ),
    FormSpec(
        "Gc_lt1.4", ("mu",),
        domain=lambda tag, p: p["mu"] > 0,
        matrix=lambda tag, p: _diag(1.0, 1.0, -p["mu"]),
        frame=lambda tag, p: _diag(1.0, 1.0, 1.0 / math.sqrt(p["mu"])),
        ric=lambda tag, p: _diag(2 * (1 + tag.w) / p["mu"], 2 * (1 - tag.w) / p["mu"],
                                 2 * (1 + tag.w ** 2) / p["mu"]),
    ),
    FormSpec(
        "Gc_lt1.5", ("mu",),
        domain=lambda tag, p: p["mu"] > 0,
        matrix=lambda tag, p: _diag(1.0, -1.0, p["mu"]),
        frame=lambda tag, p: _cols((1.0, 0.0, 0.0), (0.0, 0.0, 1.0 / math.sqrt(p["mu"])),
                                   (0.0, 1.0, 0.0)),
        ric=lambda tag, p: _diag(-2 * (1 + tag.w) / p["mu"], -2 * (1 + tag.w ** 2) / p["mu"],
                                 2 * (tag.w - 1) / p["mu"]),
        notes={"ric33": "printed as 2(1-w)/mu"},
    ),
    FormSpec(
        "Gc_lt1.6", ("mu",),
        domain=lambda tag, p: p["mu"] > 0,
        matrix=lambda tag, p: _diag(-1.0, 1.0, p["mu"]),
        frame=lambda tag, p: _cols((0.0, 1.0, 0.0), (0.0, 0.0, 1.0 / math.sqrt(p["mu"])),
                                   (1.0, 0.0, 0.0)),
        ric=lambda tag, p: _diag(2 * (tag.w - 1) / p["mu"], -2 * (1 + tag.w ** 2) / p["mu"],
                                 -2 * (1 + tag.w) / p["mu"]),
    ),
    FormSpec(
        "Gc_lt1.7", ("mu",),
        domain=lambda tag, p: p["mu"] > 0,
        matrix=lambda tag, p: ((0.0, 1.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, p["mu"])),
        frame=lambda tag, p: _cols((0.0, 0.0, 1.0 / math.sqrt(p["mu"])),
                                   (_R, _R, 0.0), (_R, -_R, 0.0)),
        ric=lambda tag, p: _diag(*[-(2.0 / p["mu"])] * 3),
    ),
    FormSpec(
        "Gc_lt1.8", ("mu",),
        domain=lambda tag, p: p["mu"] > 0,
        matrix=lambda tag, p: ((0.0, 1.0, 0.0), (1.0, 1.0, 0.0), (0.0, 0.0, p["mu"])),
        frame=lambda tag, p: _cols((0.0, 0.0, 1.0 / math.sqrt(p["mu"])), (0.0, 1.0, 0.0),
                                   (1.0, -1.0, 0.0)),
        ric=lambda tag, p: (
            (-2 / p["mu"], 0.0, 0.0),
            (0.0, -2 * (tag.w ** 2 - tag.w + 1) / p["mu"],
             2 * tag.w * (tag.w - 1) / p["mu"]),
            (0.0, -2 * tag.w * (tag.w - 1) / p["mu"],
             2 * (tag.w ** 2 - tag.w - 1) / p["mu"])),
    ),
    FormSpec(
        "Gc_lt1.9", ("mu",),
        domain=lambda tag, p: p["mu"] > 0,
        matrix=lambda tag, p: ((0.0, 1.0, 0.0), (1.0, -1.0, 0.0), (0.0, 0.0, p["mu"])),
        frame=lambda tag, p: _cols((0.0, 0.0, 1.0 / math.sqrt(p["mu"])), (1.0, 1.0, 0.0),
                                   (0.0, 1.0, 0.0)),
        ric=lambda tag, p: (
            (-2 / p["mu"], 0.0, 0.0),
            (0.0, 2 * (tag.w ** 2 - tag.w - 1) / p["mu"],
             2 * tag.w * (tag.w - 1) / p["mu"]),
            (0.0, -2 * tag.w * (tag.w - 1) / p["mu"],
             -2 * (tag.w ** 2 - tag.w + 1) / p["mu"])),
    ),
    FormSpec(
        "Gc_lt1.10-1", ("nu", "tau"),
        domain=lambda tag, p: p["nu"] > 0 and p["tau"] < 1,
        matrix=_lt1_10_matrix,
        frame=lambda tag, p: _cols(
            (1.0, 0.0, 0.0), (0.0, 0.0, 1.0 / math.sqrt(p["nu"])),
            (1.0 / math.sqrt(1.0 - p["tau"]), -1.0 / math.sqrt(1.0 - p["tau"]), 0.0)),
        ric=_lt1_10_1_ric,
        eigenvector=lambda tag, p: (0.0, 1.0, 0.0),
        notes={"ric33": "printed with denominator nu sqrt(1-tau)"},
    ),
    FormSpec(
        "Gc_lt1.10-2", ("nu", "tau"),
        domain=lambda tag, p: p["nu"] < 0 and p["tau"] > 1,
        matrix=_lt1_10_matrix,
        frame=lambda tag, p: _cols(
            (1.0, 0.0, 0.0),
            (1.0 / math.sqrt(p["tau"] - 1.0), -1.0 / math.sqrt(p["tau"] - 1.0), 0.0),
            (0.0, 0.0, 1.0 / math.sqrt(-p["nu"]))),
        ric=_lt1_10_2_ric,
        eigenvector=lambda tag, p: (0.0, 0.0, 1.0),
        notes={"domain": "constraint column printed nu > 0; the matching "
                         "Lorentzian branch requires nu < 0"},
    ),
    FormSpec(
        "Gc_lt1.11", ("mu", "eta"),
        domain=lambda tag, p: p["mu"] > 0 and p["eta"] < 1,
        matrix=lambda tag, p: ((-1.0, 1.0, 0.0), (1.0, -p["eta"], 0.0), (0.0, 0.0, p["mu"])),
        frame=lambda tag, p: _cols(
            (0.0, 0.0, 1.0 / math.sqrt(p["mu"])),
            (1.0 / math.sqrt(1.0 - p["eta"]), 1.0 / math.sqrt(1.0 - p["eta"]), 0.0),
            (1.0, 0.0, 0.0)),
        ric=_lt1_11_ric,
    ),
)}

#: the parameter names that some canonical form takes
PARAM_NAMES = frozenset(n for spec in _FORMS.values() for n in spec.param_names)


def form_specs(tag: FamilyTag) -> list[FormSpec]:
    family = tag.family_key()
    return [spec for form_id, spec in _FORMS.items()
            if form_id.partition(".")[0] == family]


def get_form_spec(tag: FamilyTag, form_id: str) -> FormSpec:
    """The spec of a form of the tag's family; ValueError for an id that
    names no form of that family, whether unknown or of another family."""
    family = tag.family_key()
    spec = _FORMS.get(form_id)
    if spec is None or form_id.partition(".")[0] != family:
        raise ValueError(f"{form_id!r} is not a canonical form of family {family}")
    return spec


def canonical_matrix(tag: FamilyTag, form_id: str, params: dict[str, float]) -> Array:
    """Exact canonical matrix of a form, in its classification basis."""
    return array(get_form_spec(tag, form_id).matrix(tag, params))


def _spec_in_domain(tag: FamilyTag, form_id: str,
                    params: dict[str, float]) -> FormSpec:
    spec = get_form_spec(tag, form_id)
    if not spec.domain(tag, params):
        raise ValueError(f"parameters {params} outside the domain of {form_id}")
    return spec


def paper_frame(tag: FamilyTag, form_id: str,
                params: dict[str, float]) -> OrthonormalFrame:
    """The distinguished orthonormal frame of a canonical form (columns in
    the classification basis of the family)."""
    return OrthonormalFrame(_spec_in_domain(tag, form_id, params).frame(tag, params))


def _operator_type(T: Rows, v, s: float, tol: ToleranceConfig) -> ONeillType:
    """The O'Neill type of a J-self-adjoint T with non-null eigenvector v, by
    the bands of oneill.classify_self_adjoint in curvature_report's unit s.
    A timelike v leaves a spacelike complement, where T is symmetric.  Else
    N = (T - m I) P, P the J-projector onto v's complement and m the mean of
    T's eigenvalues there, is [[e, r], [-r, -e]] on that plane, e = (b - d)/2,
    so D = 2 tr N^2 = (b - d)^2 - 4 r^2 comes without cancellation."""
    Jv = (v[0], v[1], -v[2])
    hvv = sum(x * y for x, y in zip(v, Jv))
    if hvv < 0.0:
        return ONeillType.DIAGONAL
    lam = sum(x * r * y for x, row in zip(Jv, T) for r, y in zip(row, v)) / hvv
    m = 0.5 * (T[0][0] + T[1][1] + T[2][2] - lam)
    N = matmul(tuple(tuple(x - m * e for x, e in zip(row, unit)) for row, unit in zip(T, _I3)),
               tuple(tuple(e - x * y / hvv for e, y in zip(unit, Jv))
                     for x, unit in zip(v, _I3)))
    D = 2.0 * sum(N[i][j] * N[j][i] for i in range(3) for j in range(3))
    n = max(abs(x) for row in N for x in row)
    if n <= tol.classification_tol * (s + max(abs(x) for row in T for x in row)):
        return ONeillType.DIAGONAL
    if abs(D) <= tol.classification_tol * (2.0 * n) ** 2:
        return ONeillType.DOUBLE
    return ONeillType.DIAGONAL if D > 0 else ONeillType.COMPLEX


@dataclass(frozen=True)
class ClosedFormCurvature:
    form_id: str
    params: dict[str, float]
    ricci_op: Array = ArrayField()
    rho: float
    kappas: tuple[float, float, float]
    oneill_type: ONeillType


def closed_form_report(tag: FamilyTag, form_id: str, params: dict[str, float],
                       tol: ToleranceConfig = DEFAULT_TOL) -> ClosedFormCurvature:
    spec = _spec_in_domain(tag, form_id, params)
    alg = make_family_algebra(tag, classification_basis(tag))
    top = max(abs(x) for row in cross_rewrite(alg._cross, spec.frame(tag, params))
              for x in row)
    return _closed_form(spec, tag, params, top * top, tol)


def _closed_form(spec: FormSpec, tag: FamilyTag, params: dict[str, float],
                 s: float, tol: ToleranceConfig) -> ClosedFormCurvature:
    """The closed-form curvature of a form in the domain; s, the squared
    largest bracket constant of its paper frame, is the unit in which the
    operator type is decided."""
    ric = float_rows(spec.ric(tag, params))
    rho = ric[0][0] + ric[1][1] + ric[2][2]
    form = _ricci_operator(ric)
    kappas = tuple(milnor_sectional(form, rho, _I3[i], _I3[j], tol)
                   for i, j in ((0, 1), (1, 2), (2, 0)))
    oneill_type = _operator_type(ric, float_rows(spec.eigenvector(tag, params), 1),
                                 s, tol)
    return ClosedFormCurvature(spec.form_id, dict(params), ric, rho, kappas,
                               oneill_type)


@dataclass(frozen=True)
class AtlasEntry:
    form_id: str
    params: dict[str, float]
    closed: ClosedFormCurvature
    engine_ricci_op: Array = ArrayField()
    engine_rho: float
    engine_kappas: tuple[float, float, float]
    engine_type: ONeillType
    max_residual: float
    flags: tuple[str, ...]
    notes: dict[str, str]


def cross_check(tag: FamilyTag, form_id: str, params: dict[str, float],
                tol: ToleranceConfig = DEFAULT_TOL) -> AtlasEntry:
    """Evaluate the closed forms and compare them against the engine.

    Residuals are |closed - engine| / s, in the unit s = max|frame
    brackets|^2 in which the engine classifies Ric; any cell exceeding
    classification_tol is flagged (not raised).  The paper frame and its
    brackets are built once, for the engine, and the closed forms take
    their unit s from the same brackets."""
    spec = _spec_in_domain(tag, form_id, params)
    basis = classification_basis(tag)
    alg = make_family_algebra(tag, basis)
    h = MetricTensor(spec.matrix(tag, params), basis_label=basis)
    frame = OrthonormalFrame(spec.frame(tag, params))
    report = curvature_report(alg, h, frame=frame, tol=tol)
    top = max(abs(x) for row in report.connection._brackets for vec in row for x in vec)
    s = top * top
    closed = _closed_form(spec, tag, params, s, tol)
    flags: list[str] = []
    worst = 0.0

    def check(label: str, closed_value: float, engine_value: float) -> None:
        nonlocal worst
        res = abs(closed_value - engine_value) / s
        worst = max(worst, res)
        if res > tol.classification_tol:
            flags.append(f"{label}: closed {closed_value!r} vs engine "
                         f"{engine_value!r}")

    for i in range(3):
        for j in range(3):
            check(f"ric{i + 1}{j + 1}", closed._ricci_op[i][j],
                  report._ricci_op[i][j])
    check("rho", closed.rho, report.scalar)
    for label, cv, ev in zip(("kappa12", "kappa23", "kappa31"),
                             closed.kappas, report.sectional):
        check(label, cv, ev)
    if closed.oneill_type != report.oneill.type_tag:
        flags.append(f"oneill: closed {closed.oneill_type.value} vs engine "
                     f"{report.oneill.type_tag.value}")

    return AtlasEntry(form_id, dict(params), closed, report._ricci_op,
                      report.scalar, report.sectional,
                      report.oneill.type_tag, worst, tuple(flags),
                      dict(_FORMS[form_id].notes))


def _param_grid(spec: FormSpec, tag: FamilyTag, grid: dict[str, list[float]]):
    """Cross product of grid values over the form's parameters, filtered
    by the form's domain, in deterministic order."""
    names = spec.param_names
    for values in itertools.product(*(sorted(grid.get(n, [])) for n in names)):
        params = {n: float(v) for n, v in zip(names, values)}
        if spec.domain(tag, params):
            yield params


def atlas_entries(tag: FamilyTag, grid: dict[str, list[float]],
                  tol: ToleranceConfig = DEFAULT_TOL) -> list[AtlasEntry]:
    entries = []
    for spec in form_specs(tag):
        for params in _param_grid(spec, tag, grid):
            entries.append(cross_check(tag, spec.form_id, params, tol))
    return entries


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


_CSV_HEADER = ["family", "c", "form_id", "params", "rho",
               "kappa12", "kappa23", "kappa31", "oneill_type",
               "max_residual", "flags"]


def emit_tables(tag: FamilyTag, grid: dict[str, list[float]],
                fmt: str = "csv", tol: ToleranceConfig = DEFAULT_TOL) -> str:
    """Render the atlas for one family over a parameter grid as CSV or JSON."""
    entries = atlas_entries(tag, grid, tol)
    if fmt == "json":
        payload = [{
            "family": tag.family_key(),
            "c": tag.c,
            "form_id": e.form_id,
            "params": e.params,
            "rho": e.closed.rho,
            "kappas": list(e.closed.kappas),
            "ricci_operator": e.closed._ricci_op,
            "oneill_type": e.closed.oneill_type.value,
            "max_residual": e.max_residual,
            "flags": list(e.flags),
            "notes": e.notes,
        } for e in entries]
        return json.dumps(payload, indent=2, sort_keys=True)
    if fmt != "csv":
        raise ValueError(f"unknown format {fmt!r}")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_HEADER)
    for e in entries:
        params = ";".join(f"{k}={_fmt(v)}" for k, v in sorted(e.params.items()))
        writer.writerow([
            tag.family_key(), "" if tag.c is None else _fmt(tag.c),
            e.form_id, params, _fmt(e.closed.rho),
            _fmt(e.closed.kappas[0]), _fmt(e.closed.kappas[1]),
            _fmt(e.closed.kappas[2]), e.closed.oneill_type.value,
            _fmt(e.max_residual), " | ".join(e.flags),
        ])
    return buf.getvalue()
