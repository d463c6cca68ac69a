"""Registry of the canonical forms and their closed-form curvature atlas.

Each canonical form is keyed once, by its FormSpec.  The spec records, as
explicit formulas in the form parameters: the canonical matrix in the
classification basis of the family, a distinguished orthonormal frame,
the Ricci operator in that frame, the scalar curvature, the three frame
sectional curvatures and the operator type.  cross_check() evaluates the
formulas on a parameter point and compares them against the numerical
curvature engine, reporting per-cell residuals instead of raising, so
systematic discrepancies (e.g. transcription slips in the source material
for these formulas) surface as data.  Cells where the formula implemented
here deliberately differs from its printed source carry a ``notes`` entry
with the printed variant.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .algebra import FamilyTag, classification_basis, make_family_algebra
from .curvature import curvature_report
from .metric import MetricTensor, OrthonormalFrame
from .oneill import ONeillType
from .tolerance import DEFAULT_TOL, ToleranceConfig

_S2 = math.sqrt(2.0)


def _tri(x: float, band: float) -> ONeillType:
    """Operator-type trichotomy driven by a discriminant expression."""
    if abs(x) <= band:
        return ONeillType.DOUBLE
    return ONeillType.DIAGONAL if x > 0 else ONeillType.COMPLEX


@dataclass(frozen=True)
class FormSpec:
    form_id: str
    param_names: tuple[str, ...]
    domain: Callable          # (ctx, p) -> bool
    matrix: Callable          # (ctx, p) -> 3x3 canonical matrix
    frame: Callable           # (ctx, p) -> 3x3 column matrix
    ric: Callable             # (ctx, p) -> 3x3 Ricci operator
    rho: Callable             # (ctx, p) -> float
    kappas: Callable          # (ctx, p) -> (k12, k23, k31)
    oneill: Callable          # (ctx, p, band) -> ONeillType
    notes: dict[str, str] = field(default_factory=dict)


def _ctx(tag: FamilyTag) -> SimpleNamespace:
    w = tag.w if (tag.kind == "Gc" and tag.c is not None and tag.c < 1) else None
    return SimpleNamespace(c=tag.c, w=w)


def _cols(*vectors) -> np.ndarray:
    return np.column_stack([np.asarray(v, dtype=float) for v in vectors])


_E = np.eye(3)


# --------------------------------------------------------------------------
# family GI

_GI_FORMS = [
    FormSpec(
        "GI.1", ("mu",),
        domain=lambda ctx, p: p["mu"] > 0,
        matrix=lambda ctx, p: np.diag([1.0, -1.0, p["mu"]]),
        frame=lambda ctx, p: _cols(_E[0], _E[2] / math.sqrt(p["mu"]), _E[1]),
        ric=lambda ctx, p: -(2.0 / p["mu"]) * np.eye(3),
        rho=lambda ctx, p: -6.0 / p["mu"],
        kappas=lambda ctx, p: (-1.0 / p["mu"],) * 3,
        oneill=lambda ctx, p, band: ONeillType.DIAGONAL,
    ),
    FormSpec(
        "GI.2", ("mu",),
        domain=lambda ctx, p: p["mu"] > 0,
        matrix=lambda ctx, p: np.diag([1.0, 1.0, -p["mu"]]),
        frame=lambda ctx, p: _cols(_E[0], _E[1], _E[2] / math.sqrt(p["mu"])),
        ric=lambda ctx, p: (2.0 / p["mu"]) * np.eye(3),
        rho=lambda ctx, p: 6.0 / p["mu"],
        kappas=lambda ctx, p: (1.0 / p["mu"],) * 3,
        oneill=lambda ctx, p, band: ONeillType.DIAGONAL,
    ),
    FormSpec(
        "GI.3", (),
        domain=lambda ctx, p: True,
        matrix=lambda ctx, p: np.array([[1.0, 0, 0], [0, 0, 1.0], [0, 1.0, 0]]),
        frame=lambda ctx, p: _cols(_E[0], (_E[1] + _E[2]) / _S2,
                                   (_E[1] - _E[2]) / _S2),
        ric=lambda ctx, p: np.zeros((3, 3)),
        rho=lambda ctx, p: 0.0,
        kappas=lambda ctx, p: (0.0, 0.0, 0.0),
        oneill=lambda ctx, p, band: ONeillType.DIAGONAL,
    ),
]


# --------------------------------------------------------------------------
# family Gc, c > 1

def _gc_gt1_2_ric(ctx, p):
    c, t, mu = ctx.c, p["tau"], p["mu"]
    den = 2.0 * (1.0 - t) * mu
    r = (c - t) / (mu * math.sqrt(1.0 - t))
    return np.array([
        [(t * t + (4 - 2 * c) * t + (c * c - 4)) / den, 0.0, 0.0],
        [0.0, (t * t + 2 * t - (c * c - 2 * c + 4)) / den, -r],
        [0.0, r, -(t * t - 6 * t - (c * c - 2 * c - 4)) / den],
    ])


def _gc_gt1_3_ric(ctx, p):
    c, nu, mu = ctx.c, p["nu"], p["mu"]
    den = 2.0 * (nu - 1.0) * mu
    r = (c - nu) / (mu * math.sqrt(nu - 1.0))
    return np.array([
        [(nu * nu + 2 * nu - (c * c - 2 * c + 4)) / den, r, 0.0],
        [r, -(nu * nu - 6 * nu - (c * c - 2 * c - 4)) / den, 0.0],
        [0.0, 0.0, ((nu - c) ** 2 + 4 * (nu - 1)) / den],
    ])


_GC_GT1_FORMS = [
    FormSpec(
        "Gc_gt1.1", ("mu",),
        domain=lambda ctx, p: p["mu"] > 0,
        matrix=lambda ctx, p: np.array([[p["mu"], 0, 0], [0, 0, 1.0], [0, 1.0, 0]]),
        frame=lambda ctx, p: _cols(_E[0] / math.sqrt(p["mu"]),
                                   (_E[1] + _E[2]) / _S2, (_E[1] - _E[2]) / _S2),
        ric=lambda ctx, p: np.array(
            [[-ctx.c ** 2 * p["mu"] / 2, 0, 0],
             [0, ctx.c * (ctx.c * p["mu"] + 1) / 2, -ctx.c / 2],
             [0, ctx.c / 2, ctx.c * (ctx.c * p["mu"] - 1) / 2]]),
        rho=lambda ctx, p: ctx.c ** 2 * p["mu"] / 2,
        kappas=lambda ctx, p: (-ctx.c * (ctx.c * p["mu"] - 2) / 4,
                               3 * ctx.c ** 2 * p["mu"] / 4,
                               -ctx.c * (ctx.c * p["mu"] + 2) / 4),
        oneill=lambda ctx, p, band: ONeillType.DOUBLE,
    ),
    FormSpec(
        "Gc_gt1.2", ("mu", "tau"),
        domain=lambda ctx, p: p["mu"] > 0 and p["tau"] < 1,
        matrix=lambda ctx, p: np.array([[1.0, 1.0, 0], [1.0, p["tau"], 0],
                                        [0, 0, p["mu"]]]),
        frame=lambda ctx, p: _cols(
            _E[2] / math.sqrt(p["mu"]), _E[0],
            (_E[0] - _E[1]) / math.sqrt(1.0 - p["tau"])),
        ric=_gc_gt1_2_ric,
        rho=lambda ctx, p: (p["tau"] ** 2 - 2 * (ctx.c - 6) * p["tau"]
                            + ctx.c ** 2 - 12) / (2 * (1 - p["tau"]) * p["mu"]),
        kappas=lambda ctx, p: (
            (3 * p["tau"] ** 2 - 2 * ctx.c * p["tau"]
             - (ctx.c ** 2 - 4 * ctx.c + 4)) / (4 * (1 - p["tau"]) * p["mu"]),
            -(p["tau"] ** 2 - 2 * (ctx.c + 2) * p["tau"] + ctx.c ** 2 + 4)
            / (4 * (1 - p["tau"]) * p["mu"]),
            -(p["tau"] ** 2 + 2 * (ctx.c - 4) * p["tau"]
              - (3 * ctx.c ** 2 - 4 * ctx.c - 4)) / (4 * (1 - p["tau"]) * p["mu"])),
        oneill=lambda ctx, p, band: _tri((ctx.c + p["tau"]) ** 2 - 4 * ctx.c, band),
        notes={"kappa31": "printed without the factor 4 in the denominator"},
    ),
    FormSpec(
        "Gc_gt1.3", ("mu", "nu"),
        domain=lambda ctx, p: p["mu"] > 0 and 1 < p["nu"] <= ctx.c,
        matrix=lambda ctx, p: np.array([[1.0, 1.0, 0], [1.0, p["nu"], 0],
                                        [0, 0, -p["mu"]]]),
        frame=lambda ctx, p: _cols(
            _E[0], (_E[0] - _E[1]) / math.sqrt(p["nu"] - 1.0),
            _E[2] / math.sqrt(p["mu"])),
        ric=_gc_gt1_3_ric,
        rho=lambda ctx, p: ((p["nu"] - ctx.c) ** 2 + 12 * (p["nu"] - 1))
        / (2 * (p["nu"] - 1) * p["mu"]),
        kappas=lambda ctx, p: (
            -(p["nu"] ** 2 - (2 * ctx.c + 4) * p["nu"] + ctx.c ** 2 + 4)
            / (4 * (p["nu"] - 1) * p["mu"]),
            -(p["nu"] ** 2 + 2 * (ctx.c - 4) * p["nu"]
              - (3 * ctx.c ** 2 - 4 * ctx.c - 4)) / (4 * (p["nu"] - 1) * p["mu"]),
            (3 * p["nu"] ** 2 - 2 * ctx.c * p["nu"]
             - (ctx.c ** 2 - 4 * ctx.c + 4)) / (4 * (p["nu"] - 1) * p["mu"])),
        oneill=lambda ctx, p, band: ONeillType.DIAGONAL,
        notes={"ric11": "printed with an overall minus sign"},
    ),
]


# --------------------------------------------------------------------------
# family Gc, c = 1 (Q-adapted basis)

_G1_FORMS = [
    FormSpec(
        "G1.1", ("mu",),
        domain=lambda ctx, p: p["mu"] > 0,
        matrix=lambda ctx, p: np.array([[0, 0, 1.0], [0, p["mu"], 0], [1.0, 0, 0]]),
        frame=lambda ctx, p: _cols(_E[1] / math.sqrt(p["mu"]),
                                   (_E[0] + _E[2]) / _S2, (_E[0] - _E[2]) / _S2),
        ric=lambda ctx, p: np.zeros((3, 3)),
        rho=lambda ctx, p: 0.0,
        kappas=lambda ctx, p: (0.0, 0.0, 0.0),
        oneill=lambda ctx, p, band: ONeillType.DIAGONAL,
    ),
    FormSpec(
        "G1.2", ("mu",),
        domain=lambda ctx, p: p["mu"] > 0,
        matrix=lambda ctx, p: np.array([[p["mu"], 0, 0], [0, 0, 1.0], [0, 1.0, 0]]),
        frame=lambda ctx, p: _cols(_E[0] / math.sqrt(p["mu"]),
                                   (_E[1] + _E[2]) / _S2, (_E[1] - _E[2]) / _S2),
        ric=lambda ctx, p: np.array(
            [[-p["mu"] / 2, math.sqrt(p["mu"] / 2), -math.sqrt(p["mu"] / 2)],
             [math.sqrt(p["mu"] / 2), p["mu"] / 2, 0.0],
             [math.sqrt(p["mu"] / 2), 0.0, p["mu"] / 2]]),
        rho=lambda ctx, p: p["mu"] / 2,
        kappas=lambda ctx, p: (-p["mu"] / 4, 3 * p["mu"] / 4, -p["mu"] / 4),
        oneill=lambda ctx, p, band: ONeillType.DOUBLE,
    ),
    FormSpec(
        "G1.3", ("mu", "nu"),
        domain=lambda ctx, p: p["mu"] > 0 and p["nu"] > 0,
        matrix=lambda ctx, p: np.diag([1.0, -p["nu"], p["mu"]]),
        frame=lambda ctx, p: _cols(_E[0], _E[2] / math.sqrt(p["mu"]),
                                   _E[1] / math.sqrt(p["nu"])),
        ric=lambda ctx, p: np.array(
            [[-(4 * p["nu"] + 1) / (2 * p["mu"] * p["nu"]), 0.0,
              -1.0 / (p["mu"] * math.sqrt(p["nu"]))],
             [0.0, (1 - 4 * p["nu"]) / (2 * p["mu"] * p["nu"]), 0.0],
             [1.0 / (p["mu"] * math.sqrt(p["nu"])), 0.0,
              (1 - 4 * p["nu"]) / (2 * p["mu"] * p["nu"])]]),
        rho=lambda ctx, p: (1 - 12 * p["nu"]) / (2 * p["mu"] * p["nu"]),
        kappas=lambda ctx, p: (-(1 + 4 * p["nu"]) / (4 * p["mu"] * p["nu"]),
                               (3 - 4 * p["nu"]) / (4 * p["mu"] * p["nu"]),
                               -(1 + 4 * p["nu"]) / (4 * p["mu"] * p["nu"])),
        oneill=lambda ctx, p, band: _tri(1 - 4 * p["nu"], band),
    ),
    FormSpec(
        "G1.4", ("mu", "nu"),
        domain=lambda ctx, p: p["mu"] > 0 and p["nu"] > 0,
        matrix=lambda ctx, p: np.diag([1.0, p["nu"], -p["mu"]]),
        frame=lambda ctx, p: _cols(_E[0], _E[1] / math.sqrt(p["nu"]),
                                   _E[2] / math.sqrt(p["mu"])),
        ric=lambda ctx, p: np.array(
            [[(4 * p["nu"] - 1) / (2 * p["mu"] * p["nu"]),
              1.0 / (p["mu"] * math.sqrt(p["nu"])), 0.0],
             [1.0 / (p["mu"] * math.sqrt(p["nu"])),
              (4 * p["nu"] + 1) / (2 * p["mu"] * p["nu"]), 0.0],
             [0.0, 0.0, (4 * p["nu"] + 1) / (2 * p["mu"] * p["nu"])]]),
        rho=lambda ctx, p: (1 + 12 * p["nu"]) / (2 * p["mu"] * p["nu"]),
        kappas=lambda ctx, p: ((4 * p["nu"] - 1) / (4 * p["mu"] * p["nu"]),
                               (4 * p["nu"] + 3) / (4 * p["mu"] * p["nu"]),
                               (4 * p["nu"] - 1) / (4 * p["mu"] * p["nu"])),
        oneill=lambda ctx, p, band: ONeillType.DIAGONAL,
        notes={"ric22": "printed as (4 mu + 1)/(2 mu nu)",
               "ric33": "printed as (4 mu + 1)/(2 mu nu)"},
    ),
    FormSpec(
        "G1.5", ("mu", "nu"),
        domain=lambda ctx, p: p["mu"] > 0 and p["nu"] > 0,
        matrix=lambda ctx, p: np.diag([-1.0, p["nu"], p["mu"]]),
        frame=lambda ctx, p: _cols(_E[1] / math.sqrt(p["nu"]),
                                   _E[2] / math.sqrt(p["mu"]), _E[0]),
        ric=lambda ctx, p: np.array(
            [[(1 - 4 * p["nu"]) / (2 * p["mu"] * p["nu"]), 0.0,
              1.0 / (p["mu"] * math.sqrt(p["nu"]))],
             [0.0, (1 - 4 * p["nu"]) / (2 * p["mu"] * p["nu"]), 0.0],
             [-1.0 / (p["mu"] * math.sqrt(p["nu"])), 0.0,
              -(4 * p["nu"] + 1) / (2 * p["mu"] * p["nu"])]]),
        rho=lambda ctx, p: (1 - 12 * p["nu"]) / (2 * p["mu"] * p["nu"]),
        kappas=lambda ctx, p: ((3 - 4 * p["nu"]) / (4 * p["mu"] * p["nu"]),
                               -(1 + 4 * p["nu"]) / (4 * p["mu"] * p["nu"]),
                               -(1 + 4 * p["nu"]) / (4 * p["mu"] * p["nu"])),
        oneill=lambda ctx, p, band: _tri(1 - 4 * p["nu"], band),
        notes={"ric22": "printed as (1 - 4 mu)/(2 mu nu)",
               "ric33": "printed as -(4 mu + 1)/(2 mu nu)"},
    ),
    FormSpec(
        "G1.6", ("mu",),
        domain=lambda ctx, p: p["mu"] > 0,
        matrix=lambda ctx, p: np.array([[0, 1.0, 0], [1.0, 0, 0], [0, 0, p["mu"]]]),
        frame=lambda ctx, p: _cols(_E[2] / math.sqrt(p["mu"]),
                                   (_E[0] + _E[1]) / _S2, (_E[0] - _E[1]) / _S2),
        ric=lambda ctx, p: np.array([[-2 / p["mu"], 0, 0],
                                     [0, -3 / p["mu"], 1 / p["mu"]],
                                     [0, -1 / p["mu"], -1 / p["mu"]]]),
        rho=lambda ctx, p: -6.0 / p["mu"],
        kappas=lambda ctx, p: (-2 / p["mu"], -1 / p["mu"], 0.0),
        oneill=lambda ctx, p, band: ONeillType.DOUBLE,
    ),
    FormSpec(
        "G1.7", ("mu",),
        domain=lambda ctx, p: p["mu"] > 0,
        matrix=lambda ctx, p: np.array([[0, -1.0, 0], [-1.0, 0, 0], [0, 0, p["mu"]]]),
        frame=lambda ctx, p: _cols(_E[2] / math.sqrt(p["mu"]),
                                   (_E[0] - _E[1]) / _S2, (_E[0] + _E[1]) / _S2),
        ric=lambda ctx, p: np.array([[-2 / p["mu"], 0, 0],
                                     [0, -1 / p["mu"], -1 / p["mu"]],
                                     [0, 1 / p["mu"], -3 / p["mu"]]]),
        rho=lambda ctx, p: -6.0 / p["mu"],
        kappas=lambda ctx, p: (0.0, -1 / p["mu"], -2 / p["mu"]),
        oneill=lambda ctx, p, band: ONeillType.DOUBLE,
    ),
]


# --------------------------------------------------------------------------
# family Gc, c < 1 (P-adapted basis)

def _lt1_10_matrix(ctx, p):
    return np.array([[1.0, 1.0, 0], [1.0, p["tau"], 0], [0, 0, p["nu"]]])


def _lt1_10_1_ric(ctx, p):
    w, t, nu = ctx.w, p["tau"], p["nu"]
    den = nu * (1.0 - t)
    r = 2 * w * (1 + w) / (nu * math.sqrt(1.0 - t))
    return np.array([
        [-2 * (w * w + w + 1 - (1 + w) * t) / den, 0.0, -r],
        [0.0, 2 * (w * w * t + t - 1) / den, 0.0],
        [r, 0.0, 2 * (w * w + w - 1 + (1 - w) * t) / den],
    ])


def _lt1_10_2_ric(ctx, p):
    w, t, nu = ctx.w, p["tau"], p["nu"]
    den = nu * (t - 1.0)
    r = 2 * w * (1 + w) / (nu * math.sqrt(t - 1.0))
    return np.array([
        [2 * (w * w + w + 1 - (1 + w) * t) / den, -r, 0.0],
        [-r, -2 * (w * w + w - 1 + (1 - w) * t) / den, 0.0],
        [0.0, 0.0, -2 * (w * w * t + t - 1) / den],
    ])


def _lt1_11_ric(ctx, p):
    w, e, mu = ctx.w, p["eta"], p["mu"]
    den = mu * (1.0 - e)
    r = 2 * w * (1 + w) / (mu * math.sqrt(1.0 - e))
    return np.array([
        [2 * (w * w * e + e - 1) / den, 0.0, 0.0],
        [0.0, 2 * (w * w + w - 1 + e - w * e) / den, r],
        [0.0, -r, -2 * (w * w + w + 1 - (1 + w) * e) / den],
    ])


_GC_LT1_FORMS = [
    FormSpec(
        "Gc_lt1.1", (),
        domain=lambda ctx, p: True,
        matrix=lambda ctx, p: np.array([[0, 0, 1.0], [0, 1.0, 0], [1.0, 0, 0]]),
        frame=lambda ctx, p: _cols(_E[1], (_E[0] + _E[2]) / _S2,
                                   (_E[0] - _E[2]) / _S2),
        ric=lambda ctx, p: np.array(
            [[0, 0, 0],
             [0, -ctx.w * (ctx.w - 1), ctx.w * (ctx.w - 1)],
             [0, -ctx.w * (ctx.w - 1), ctx.w * (ctx.w - 1)]], dtype=float),
        rho=lambda ctx, p: 0.0,
        kappas=lambda ctx, p: (-ctx.w * (ctx.w - 1), 0.0, ctx.w * (ctx.w - 1)),
        oneill=lambda ctx, p, band: ONeillType.DIAGONAL
        if abs(ctx.w - 1) <= band else ONeillType.DOUBLE,
    ),
    FormSpec(
        "Gc_lt1.2", (),
        domain=lambda ctx, p: True,
        matrix=lambda ctx, p: np.array([[1.0, 0, 0], [0, 0, 1.0], [0, 1.0, 0]]),
        frame=lambda ctx, p: _cols(_E[0], (_E[1] + _E[2]) / _S2,
                                   (_E[1] - _E[2]) / _S2),
        ric=lambda ctx, p: np.array(
            [[0, 0, 0],
             [0, -ctx.w * (ctx.w + 1), ctx.w * (ctx.w + 1)],
             [0, -ctx.w * (ctx.w + 1), ctx.w * (ctx.w + 1)]], dtype=float),
        rho=lambda ctx, p: 0.0,
        kappas=lambda ctx, p: (-ctx.w * (ctx.w + 1), 0.0, ctx.w * (ctx.w + 1)),
        oneill=lambda ctx, p, band: ONeillType.DOUBLE,
    ),
    FormSpec(
        "Gc_lt1.3", ("mu",),
        domain=lambda ctx, p: p["mu"] > 0,
        matrix=lambda ctx, p: np.array([[1.0, 1.0, 0], [1.0, 1.0, p["mu"]],
                                        [0, p["mu"], 0]]),
        frame=lambda ctx, p: _cols(
            _E[0],
            _E[0] - _E[1] - _E[2] / (2 * p["mu"]),
            _E[0] - _E[1] + _E[2] / (2 * p["mu"])),
        ric=lambda ctx, p: np.array(
            [[-2 * ctx.w ** 2 / p["mu"] ** 2,
              ctx.w * (1 + ctx.w) / p["mu"] ** 2,
              -ctx.w * (1 + ctx.w) / p["mu"] ** 2],
             [ctx.w * (1 + ctx.w) / p["mu"] ** 2,
              ctx.w * (3 * ctx.w - 1) / (2 * p["mu"] ** 2),
              ctx.w * (1 + ctx.w) / (2 * p["mu"] ** 2)],
             [ctx.w * (1 + ctx.w) / p["mu"] ** 2,
              -ctx.w * (1 + ctx.w) / (2 * p["mu"] ** 2),
              ctx.w * (1 + 5 * ctx.w) / (2 * p["mu"] ** 2)]]),
        rho=lambda ctx, p: 2 * ctx.w ** 2 / p["mu"] ** 2,
        kappas=lambda ctx, p: (-ctx.w * (1 + 3 * ctx.w) / (2 * p["mu"] ** 2),
                               3 * ctx.w ** 2 / p["mu"] ** 2,
                               ctx.w * (1 - ctx.w) / (2 * p["mu"] ** 2)),
        oneill=lambda ctx, p, band: ONeillType.DIAGONAL
        if abs(ctx.w - 1) <= band else ONeillType.DOUBLE,
        notes={"ric33": "printed as z(1+5w)/(2 mu^2)"},
    ),
    FormSpec(
        "Gc_lt1.4", ("mu",),
        domain=lambda ctx, p: p["mu"] > 0,
        matrix=lambda ctx, p: np.diag([1.0, 1.0, -p["mu"]]),
        frame=lambda ctx, p: _cols(_E[0], _E[1], _E[2] / math.sqrt(p["mu"])),
        ric=lambda ctx, p: np.diag([2 * (1 + ctx.w) / p["mu"],
                                    2 * (1 - ctx.w) / p["mu"],
                                    2 * (1 + ctx.w ** 2) / p["mu"]]),
        rho=lambda ctx, p: 2 * (3 + ctx.w ** 2) / p["mu"],
        kappas=lambda ctx, p: ((1 - ctx.w ** 2) / p["mu"],
                               (1 - ctx.w) ** 2 / p["mu"],
                               (1 + ctx.w) ** 2 / p["mu"]),
        oneill=lambda ctx, p, band: ONeillType.DIAGONAL,
    ),
    FormSpec(
        "Gc_lt1.5", ("mu",),
        domain=lambda ctx, p: p["mu"] > 0,
        matrix=lambda ctx, p: np.diag([1.0, -1.0, p["mu"]]),
        frame=lambda ctx, p: _cols(_E[0], _E[2] / math.sqrt(p["mu"]), _E[1]),
        ric=lambda ctx, p: np.diag([-2 * (1 + ctx.w) / p["mu"],
                                    -2 * (1 + ctx.w ** 2) / p["mu"],
                                    2 * (ctx.w - 1) / p["mu"]]),
        rho=lambda ctx, p: -2 * (3 + ctx.w ** 2) / p["mu"],
        kappas=lambda ctx, p: (-(1 + ctx.w) ** 2 / p["mu"],
                               -(1 - ctx.w) ** 2 / p["mu"],
                               -(1 - ctx.w ** 2) / p["mu"]),
        oneill=lambda ctx, p, band: ONeillType.DIAGONAL,
        notes={"ric33": "printed as 2(1-w)/mu"},
    ),
    FormSpec(
        "Gc_lt1.6", ("mu",),
        domain=lambda ctx, p: p["mu"] > 0,
        matrix=lambda ctx, p: np.diag([-1.0, 1.0, p["mu"]]),
        frame=lambda ctx, p: _cols(_E[1], _E[2] / math.sqrt(p["mu"]), _E[0]),
        ric=lambda ctx, p: np.diag([2 * (ctx.w - 1) / p["mu"],
                                    -2 * (1 + ctx.w ** 2) / p["mu"],
                                    -2 * (1 + ctx.w) / p["mu"]]),
        rho=lambda ctx, p: -2 * (3 + ctx.w ** 2) / p["mu"],
        kappas=lambda ctx, p: (-(1 - ctx.w) ** 2 / p["mu"],
                               -(1 + ctx.w) ** 2 / p["mu"],
                               -(1 - ctx.w ** 2) / p["mu"]),
        oneill=lambda ctx, p, band: ONeillType.DIAGONAL,
    ),
    FormSpec(
        "Gc_lt1.7", ("mu",),
        domain=lambda ctx, p: p["mu"] > 0,
        matrix=lambda ctx, p: np.array([[0, 1.0, 0], [1.0, 0, 0], [0, 0, p["mu"]]]),
        frame=lambda ctx, p: _cols(_E[2] / math.sqrt(p["mu"]),
                                   (_E[0] + _E[1]) / _S2, (_E[0] - _E[1]) / _S2),
        ric=lambda ctx, p: -(2.0 / p["mu"]) * np.eye(3),
        rho=lambda ctx, p: -6.0 / p["mu"],
        kappas=lambda ctx, p: (-1.0 / p["mu"],) * 3,
        oneill=lambda ctx, p, band: ONeillType.DIAGONAL,
    ),
    FormSpec(
        "Gc_lt1.8", ("mu",),
        domain=lambda ctx, p: p["mu"] > 0,
        matrix=lambda ctx, p: np.array([[0, 1.0, 0], [1.0, 1.0, 0], [0, 0, p["mu"]]]),
        frame=lambda ctx, p: _cols(_E[2] / math.sqrt(p["mu"]), _E[1],
                                   _E[0] - _E[1]),
        ric=lambda ctx, p: np.array(
            [[-2 / p["mu"], 0, 0],
             [0, -2 * (ctx.w ** 2 - ctx.w + 1) / p["mu"],
              2 * ctx.w * (ctx.w - 1) / p["mu"]],
             [0, -2 * ctx.w * (ctx.w - 1) / p["mu"],
              2 * (ctx.w ** 2 - ctx.w - 1) / p["mu"]]]),
        rho=lambda ctx, p: -6.0 / p["mu"],
        kappas=lambda ctx, p: (-(2 * ctx.w ** 2 - 2 * ctx.w + 1) / p["mu"],
                               -1.0 / p["mu"],
                               (2 * ctx.w ** 2 - 2 * ctx.w - 1) / p["mu"]),
        oneill=lambda ctx, p, band: ONeillType.DIAGONAL
        if abs(ctx.w - 1) <= band else ONeillType.DOUBLE,
    ),
    FormSpec(
        "Gc_lt1.9", ("mu",),
        domain=lambda ctx, p: p["mu"] > 0,
        matrix=lambda ctx, p: np.array([[0, 1.0, 0], [1.0, -1.0, 0], [0, 0, p["mu"]]]),
        frame=lambda ctx, p: _cols(_E[2] / math.sqrt(p["mu"]), _E[0] + _E[1],
                                   _E[1]),
        ric=lambda ctx, p: np.array(
            [[-2 / p["mu"], 0, 0],
             [0, 2 * (ctx.w ** 2 - ctx.w - 1) / p["mu"],
              2 * ctx.w * (ctx.w - 1) / p["mu"]],
             [0, -2 * ctx.w * (ctx.w - 1) / p["mu"],
              -2 * (ctx.w ** 2 - ctx.w + 1) / p["mu"]]]),
        rho=lambda ctx, p: -6.0 / p["mu"],
        kappas=lambda ctx, p: ((2 * ctx.w ** 2 - 2 * ctx.w - 1) / p["mu"],
                               -1.0 / p["mu"],
                               -(2 * ctx.w ** 2 - 2 * ctx.w + 1) / p["mu"]),
        oneill=lambda ctx, p, band: ONeillType.DIAGONAL
        if abs(ctx.w - 1) <= band else ONeillType.DOUBLE,
    ),
    FormSpec(
        "Gc_lt1.10-1", ("nu", "tau"),
        domain=lambda ctx, p: p["nu"] > 0 and p["tau"] < 1,
        matrix=_lt1_10_matrix,
        frame=lambda ctx, p: _cols(
            _E[0], _E[2] / math.sqrt(p["nu"]),
            (_E[0] - _E[1]) / math.sqrt(1.0 - p["tau"])),
        ric=_lt1_10_1_ric,
        rho=lambda ctx, p: 2 * (ctx.w ** 2 * p["tau"] + 3 * p["tau"] - 3)
        / (p["nu"] * (1 - p["tau"])),
        kappas=lambda ctx, p: (
            ((ctx.w ** 2 + 2 * ctx.w + 1) * p["tau"]
             - (2 * ctx.w ** 2 + 2 * ctx.w + 1)) / (p["nu"] * (1 - p["tau"])),
            ((ctx.w ** 2 - 2 * ctx.w + 1) * p["tau"]
             + (2 * ctx.w ** 2 + 2 * ctx.w - 1)) / (p["nu"] * (1 - p["tau"])),
            -(ctx.w ** 2 * p["tau"] - p["tau"] + 1) / (p["nu"] * (1 - p["tau"]))),
        oneill=lambda ctx, p, band: _tri(
            p["tau"] * (p["tau"] - 1 + ctx.w ** 2), band),
        notes={"ric33": "printed with denominator nu sqrt(1-tau)"},
    ),
    FormSpec(
        "Gc_lt1.10-2", ("nu", "tau"),
        domain=lambda ctx, p: p["nu"] < 0 and p["tau"] > 1,
        matrix=_lt1_10_matrix,
        frame=lambda ctx, p: _cols(
            _E[0], (_E[0] - _E[1]) / math.sqrt(p["tau"] - 1.0),
            _E[2] / math.sqrt(-p["nu"])),
        ric=_lt1_10_2_ric,
        rho=lambda ctx, p: -2 * (ctx.w ** 2 * p["tau"] + 3 * p["tau"] - 3)
        / (p["nu"] * (p["tau"] - 1)),
        kappas=lambda ctx, p: (
            (ctx.w ** 2 * p["tau"] - p["tau"] + 1) / (p["nu"] * (p["tau"] - 1)),
            -((ctx.w ** 2 - 2 * ctx.w + 1) * p["tau"]
              + (2 * ctx.w ** 2 + 2 * ctx.w - 1)) / (p["nu"] * (p["tau"] - 1)),
            -((ctx.w ** 2 + 2 * ctx.w + 1) * p["tau"]
              - (2 * ctx.w ** 2 + 2 * ctx.w + 1)) / (p["nu"] * (p["tau"] - 1))),
        oneill=lambda ctx, p, band: ONeillType.DIAGONAL,
        notes={"domain": "constraint column printed nu > 0; the matching "
                         "Lorentzian branch requires nu < 0"},
    ),
    FormSpec(
        "Gc_lt1.11", ("mu", "eta"),
        domain=lambda ctx, p: p["mu"] > 0 and p["eta"] < 1,
        matrix=lambda ctx, p: np.array([[-1.0, 1.0, 0], [1.0, -p["eta"], 0],
                                        [0, 0, p["mu"]]]),
        frame=lambda ctx, p: _cols(
            _E[2] / math.sqrt(p["mu"]),
            (_E[0] + _E[1]) / math.sqrt(1.0 - p["eta"]), _E[0]),
        ric=_lt1_11_ric,
        rho=lambda ctx, p: 2 * (ctx.w ** 2 * p["eta"] + 3 * p["eta"] - 3)
        / (p["mu"] * (1 - p["eta"])),
        kappas=lambda ctx, p: (
            ((ctx.w ** 2 - 2 * ctx.w + 1) * p["eta"]
             + (2 * ctx.w ** 2 + 2 * ctx.w - 1)) / (p["mu"] * (1 - p["eta"])),
            -(1 - p["eta"] + ctx.w ** 2 * p["eta"]) / (p["mu"] * (1 - p["eta"])),
            ((ctx.w ** 2 + 2 * ctx.w + 1) * p["eta"]
             - (2 * ctx.w ** 2 + 2 * ctx.w + 1)) / (p["mu"] * (1 - p["eta"]))),
        oneill=lambda ctx, p, band: _tri(
            p["eta"] * (p["eta"] - 1 + ctx.w ** 2), band),
    ),
]

_FORMS: dict[str, list[FormSpec]] = {
    "GI": _GI_FORMS,
    "Gc_gt1": _GC_GT1_FORMS,
    "G1": _G1_FORMS,
    "Gc_lt1": _GC_LT1_FORMS,
}


def form_specs(tag: FamilyTag) -> list[FormSpec]:
    return list(_FORMS[tag.family_key()])


def get_form_spec(tag: FamilyTag, form_id: str) -> FormSpec:
    for spec in _FORMS[tag.family_key()]:
        if spec.form_id == form_id:
            return spec
    raise KeyError(form_id)


def canonical_matrix(tag: FamilyTag, form_id: str,
                     params: dict[str, float]) -> np.ndarray:
    """Exact canonical matrix of a form, in its classification basis."""
    family = tag.family_key()
    if form_id.partition(".")[0] != family:
        raise ValueError(f"form {form_id} does not belong to family {family}")
    return get_form_spec(tag, form_id).matrix(_ctx(tag), params)


def paper_frame(tag: FamilyTag, form_id: str,
                params: dict[str, float]) -> OrthonormalFrame:
    """The distinguished orthonormal frame of a canonical form (columns in
    the classification basis of the family)."""
    spec = get_form_spec(tag, form_id)
    ctx = _ctx(tag)
    if not spec.domain(ctx, params):
        raise ValueError(f"parameters {params} outside the domain of {form_id}")
    return OrthonormalFrame(spec.frame(ctx, params))


@dataclass(frozen=True)
class ClosedFormCurvature:
    form_id: str
    params: dict[str, float]
    ricci_op: np.ndarray
    rho: float
    kappas: tuple[float, float, float]
    oneill_type: ONeillType


def closed_form_report(tag: FamilyTag, form_id: str, params: dict[str, float],
                       tol: ToleranceConfig = DEFAULT_TOL) -> ClosedFormCurvature:
    spec = get_form_spec(tag, form_id)
    ctx = _ctx(tag)
    if not spec.domain(ctx, params):
        raise ValueError(f"parameters {params} outside the domain of {form_id}")
    ric = spec.ric(ctx, params)
    band = tol.classification_tol
    return ClosedFormCurvature(form_id, dict(params), ric,
                               float(spec.rho(ctx, params)),
                               tuple(float(k) for k in spec.kappas(ctx, params)),
                               spec.oneill(ctx, params, band))


@dataclass(frozen=True)
class AtlasEntry:
    form_id: str
    params: dict[str, float]
    closed: ClosedFormCurvature
    engine_ricci_op: np.ndarray
    engine_rho: float
    engine_kappas: tuple[float, float, float]
    engine_type: ONeillType
    max_residual: float
    flags: tuple[str, ...]
    notes: dict[str, str]


def cross_check(tag: FamilyTag, form_id: str, params: dict[str, float],
                tol: ToleranceConfig = DEFAULT_TOL) -> AtlasEntry:
    """Evaluate the closed forms and compare them against the engine.

    Residuals are relative, |closed - engine| / (1 + |closed|); any cell
    exceeding classification_tol is flagged (not raised)."""
    closed = closed_form_report(tag, form_id, params, tol)
    basis = classification_basis(tag)
    alg = make_family_algebra(tag, basis)
    h = MetricTensor(canonical_matrix(tag, form_id, params),
                     basis_label=basis, tolerance=tol)
    frame = paper_frame(tag, form_id, params)
    report = curvature_report(alg, h, frame=frame, tol=tol)

    flags: list[str] = []
    worst = 0.0

    def check(label: str, closed_value: float, engine_value: float) -> None:
        nonlocal worst
        res = abs(closed_value - engine_value) / (1.0 + abs(closed_value))
        worst = max(worst, res)
        if res > tol.classification_tol:
            flags.append(f"{label}: closed {closed_value!r} vs engine "
                         f"{engine_value!r}")

    for i in range(3):
        for j in range(3):
            check(f"ric{i + 1}{j + 1}", float(closed.ricci_op[i, j]),
                  float(report.ricci_op[i, j]))
    check("rho", closed.rho, report.scalar)
    for label, cv, ev in zip(("kappa12", "kappa23", "kappa31"),
                             closed.kappas, report.sectional):
        check(label, cv, ev)
    if closed.oneill_type != report.oneill.type_tag:
        flags.append(f"oneill: closed {closed.oneill_type.value} vs engine "
                     f"{report.oneill.type_tag.value}")

    spec = get_form_spec(tag, form_id)
    return AtlasEntry(form_id, dict(params), closed, report.ricci_op,
                      report.scalar, report.sectional,
                      report.oneill.type_tag, worst, tuple(flags),
                      dict(spec.notes))


def _param_grid(spec: FormSpec, ctx, grid: dict[str, list[float]]):
    """Cross product of grid values over the form's parameters, filtered
    by the form's domain, in deterministic order."""
    names = spec.param_names
    if not names:
        yield {}
        return
    pools = [sorted(grid.get(n, [])) for n in names]
    if any(not pool for pool in pools):
        return

    def rec(k: int, acc: dict):
        if k == len(names):
            if spec.domain(ctx, acc):
                yield dict(acc)
            return
        for v in pools[k]:
            acc[names[k]] = float(v)
            yield from rec(k + 1, acc)
        acc.pop(names[k], None)

    yield from rec(0, {})


def atlas_entries(tag: FamilyTag, grid: dict[str, list[float]],
                  tol: ToleranceConfig = DEFAULT_TOL) -> list[AtlasEntry]:
    ctx = _ctx(tag)
    entries = []
    for spec in _FORMS[tag.family_key()]:
        for params in _param_grid(spec, ctx, grid):
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
            "ricci_operator": e.closed.ricci_op.tolist(),
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
