"""Registry of the canonical forms: one FormSpec per form.

Each canonical form is keyed once, by its FormSpec.  The spec records, as
explicit formulas in the form parameters: its domain, the canonical
matrix in the classification basis of the family, a distinguished
orthonormal frame and the Ricci operator in that frame.  Each formula is
a callable of the FamilyTag (its c and, for c < 1, w) and the parameters,
and returns rows of Python floats.  Cells where a formula deliberately
differs from its printed source carry a ``notes`` entry with the printed
variant.

The reducer (``canonical``) reads the canonical matrices here, and the
closed-form curvature atlas (``atlas``) the frames and Ricci operators;
this module imports no curvature code, so a process that only reduces
metrics never loads the atlas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from .algebra import FamilyTag
from .arrays import Array, Rows, array, transpose
from .metric import OrthonormalFrame

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
