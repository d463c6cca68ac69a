import csv
import io
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
import sympy as sp

import lorcurv.atlas
import lorcurv.curvature
import lorcurv.metric
import lorcurv.oneill
from lorcurv import (
    DEFAULT_TOL,
    FamilyTag,
    MetricTensor,
    ONeillType,
    atlas_entries,
    canonical_matrix,
    change_basis,
    classification_basis,
    classify_self_adjoint,
    closed_form_report,
    cross_check,
    emit_tables,
    form_specs,
    get_form_spec,
    make_family_algebra,
    paper_frame,
    validate_metric,
)
from lorcurv.atlas import _param_grid
from lorcurv.metric import J21
from tests.conftest import ALL_TAGS, SWEEP_GRID


def _cells(tag):
    """(spec, params) of every sweep-grid cell of the tag's family."""
    for spec in form_specs(tag):
        for params in _param_grid(spec, tag, SWEEP_GRID):
            yield spec, params


@pytest.mark.parametrize("tag", ALL_TAGS, ids=lambda t: f"{t.kind}-{t.c}")
def test_closed_forms_match_engine(tag):
    """Every closed-form table cell is reproduced by the engine on the
    distinguished frame, over the sweep grids, with no flags."""
    entries = atlas_entries(tag, SWEEP_GRID)
    assert entries, "grid produced no entries"
    for e in entries:
        assert not e.flags, (tag.family_key(), e.form_id, e.params, e.flags)
        assert e.max_residual < 1e-7


# --------------------------------------------------------------------------
# the printed scalar and sectional curvatures, as the oracle for the rho
# and kappa columns that closed_form_report derives from the Ricci operator

def _printed_rho_kappas(tag, form_id, p):
    """The paper's scalar and frame sectional curvatures of a canonical
    form, as (rho, (k12, k23, k31)), with the catalogued corrections."""
    c = tag.c
    w = tag.w if form_id.startswith("Gc_lt1") else None
    mu, nu, t, e = (p.get(k) for k in ("mu", "nu", "tau", "eta"))
    table = {
        "GI.1": lambda: (-6 / mu, (-1 / mu,) * 3),
        "GI.2": lambda: (6 / mu, (1 / mu,) * 3),
        "GI.3": lambda: (0.0, (0.0, 0.0, 0.0)),
        "Gc_gt1.1": lambda: (c * c * mu / 2, (-c * (c * mu - 2) / 4,
                                              3 * c * c * mu / 4,
                                              -c * (c * mu + 2) / 4)),
        "Gc_gt1.2": lambda: (
            (t * t - 2 * (c - 6) * t + c * c - 12) / (2 * (1 - t) * mu),
            ((3 * t * t - 2 * c * t - (c * c - 4 * c + 4)) / (4 * (1 - t) * mu),
             -(t * t - 2 * (c + 2) * t + c * c + 4) / (4 * (1 - t) * mu),
             -(t * t + 2 * (c - 4) * t - (3 * c * c - 4 * c - 4))
             / (4 * (1 - t) * mu))),
        "Gc_gt1.3": lambda: (
            ((nu - c) ** 2 + 12 * (nu - 1)) / (2 * (nu - 1) * mu),
            (-(nu * nu - (2 * c + 4) * nu + c * c + 4) / (4 * (nu - 1) * mu),
             -(nu * nu + 2 * (c - 4) * nu - (3 * c * c - 4 * c - 4))
             / (4 * (nu - 1) * mu),
             (3 * nu * nu - 2 * c * nu - (c * c - 4 * c + 4))
             / (4 * (nu - 1) * mu))),
        "G1.1": lambda: (0.0, (0.0, 0.0, 0.0)),
        "G1.2": lambda: (mu / 2, (-mu / 4, 3 * mu / 4, -mu / 4)),
        "G1.3": lambda: ((1 - 12 * nu) / (2 * mu * nu),
                         (-(1 + 4 * nu) / (4 * mu * nu), (3 - 4 * nu) / (4 * mu * nu),
                          -(1 + 4 * nu) / (4 * mu * nu))),
        "G1.4": lambda: ((1 + 12 * nu) / (2 * mu * nu),
                         ((4 * nu - 1) / (4 * mu * nu), (4 * nu + 3) / (4 * mu * nu),
                          (4 * nu - 1) / (4 * mu * nu))),
        "G1.5": lambda: ((1 - 12 * nu) / (2 * mu * nu),
                         ((3 - 4 * nu) / (4 * mu * nu), -(1 + 4 * nu) / (4 * mu * nu),
                          -(1 + 4 * nu) / (4 * mu * nu))),
        "G1.6": lambda: (-6 / mu, (-2 / mu, -1 / mu, 0.0)),
        "G1.7": lambda: (-6 / mu, (0.0, -1 / mu, -2 / mu)),
        "Gc_lt1.1": lambda: (0.0, (-w * (w - 1), 0.0, w * (w - 1))),
        "Gc_lt1.2": lambda: (0.0, (-w * (w + 1), 0.0, w * (w + 1))),
        "Gc_lt1.3": lambda: (2 * w * w / mu ** 2,
                             (-w * (1 + 3 * w) / (2 * mu ** 2), 3 * w * w / mu ** 2,
                              w * (1 - w) / (2 * mu ** 2))),
        "Gc_lt1.4": lambda: (2 * (3 + w * w) / mu,
                             ((1 - w * w) / mu, (1 - w) ** 2 / mu, (1 + w) ** 2 / mu)),
        "Gc_lt1.5": lambda: (-2 * (3 + w * w) / mu,
                             (-(1 + w) ** 2 / mu, -(1 - w) ** 2 / mu,
                              -(1 - w * w) / mu)),
        "Gc_lt1.6": lambda: (-2 * (3 + w * w) / mu,
                             (-(1 - w) ** 2 / mu, -(1 + w) ** 2 / mu,
                              -(1 - w * w) / mu)),
        "Gc_lt1.7": lambda: (-6 / mu, (-1 / mu,) * 3),
        "Gc_lt1.8": lambda: (-6 / mu, (-(2 * w * w - 2 * w + 1) / mu, -1 / mu,
                                       (2 * w * w - 2 * w - 1) / mu)),
        "Gc_lt1.9": lambda: (-6 / mu, ((2 * w * w - 2 * w - 1) / mu, -1 / mu,
                                       -(2 * w * w - 2 * w + 1) / mu)),
        "Gc_lt1.10-1": lambda: (
            2 * (w * w * t + 3 * t - 3) / (nu * (1 - t)),
            (((w + 1) ** 2 * t - (2 * w * w + 2 * w + 1)) / (nu * (1 - t)),
             ((w - 1) ** 2 * t + (2 * w * w + 2 * w - 1)) / (nu * (1 - t)),
             -(w * w * t - t + 1) / (nu * (1 - t)))),
        "Gc_lt1.10-2": lambda: (
            -2 * (w * w * t + 3 * t - 3) / (nu * (t - 1)),
            ((w * w * t - t + 1) / (nu * (t - 1)),
             -((w - 1) ** 2 * t + (2 * w * w + 2 * w - 1)) / (nu * (t - 1)),
             -((w + 1) ** 2 * t - (2 * w * w + 2 * w + 1)) / (nu * (t - 1)))),
        "Gc_lt1.11": lambda: (
            2 * (w * w * e + 3 * e - 3) / (mu * (1 - e)),
            (((w - 1) ** 2 * e + (2 * w * w + 2 * w - 1)) / (mu * (1 - e)),
             -(1 - e + w * w * e) / (mu * (1 - e)),
             ((w + 1) ** 2 * e - (2 * w * w + 2 * w + 1)) / (mu * (1 - e)))),
    }
    return table[form_id]()


@pytest.mark.parametrize("tag", ALL_TAGS, ids=lambda t: f"{t.kind}-{t.c}")
def test_derived_rho_kappas_match_printed_tables(tag):
    cells = 0
    for spec, params in _cells(tag):
        closed = closed_form_report(tag, spec.form_id, params)
        rho, kappas = _printed_rho_kappas(tag, spec.form_id, params)
        for label, derived, printed in zip(
                ("rho", "kappa12", "kappa23", "kappa31"),
                (closed.rho, *closed.kappas), (rho, *kappas)):
            assert abs(derived - printed) <= 1e-12 * (1.0 + abs(printed)), \
                (spec.form_id, params, label, derived, printed)
        cells += 1
    assert cells > 0


# --------------------------------------------------------------------------
# the printed operator types, as the oracle for the type that
# closed_form_report derives from the Ricci operator

def _tri(x: float, band: float) -> ONeillType:
    """Operator-type trichotomy driven by a discriminant expression."""
    if abs(x) <= band:
        return ONeillType.DOUBLE
    return ONeillType.DIAGONAL if x > 0 else ONeillType.COMPLEX


#: the paper's operator type of each canonical form, (tag, p, band) -> type
_PRINTED_TYPES = {
    "GI.1": lambda tag, p, band: ONeillType.DIAGONAL,
    "GI.2": lambda tag, p, band: ONeillType.DIAGONAL,
    "GI.3": lambda tag, p, band: ONeillType.DIAGONAL,
    "Gc_gt1.1": lambda tag, p, band: ONeillType.DOUBLE,
    "Gc_gt1.2": lambda tag, p, band: _tri((tag.c + p["tau"]) ** 2 - 4 * tag.c, band),
    "Gc_gt1.3": lambda tag, p, band: ONeillType.DIAGONAL,
    "G1.1": lambda tag, p, band: ONeillType.DIAGONAL,
    "G1.2": lambda tag, p, band: ONeillType.DOUBLE,
    "G1.3": lambda tag, p, band: _tri(1 - 4 * p["nu"], band),
    "G1.4": lambda tag, p, band: ONeillType.DIAGONAL,
    "G1.5": lambda tag, p, band: _tri(1 - 4 * p["nu"], band),
    "G1.6": lambda tag, p, band: ONeillType.DOUBLE,
    "G1.7": lambda tag, p, band: ONeillType.DOUBLE,
    "Gc_lt1.1": lambda tag, p, band: ONeillType.DIAGONAL
    if abs(tag.w - 1) <= band else ONeillType.DOUBLE,
    "Gc_lt1.2": lambda tag, p, band: ONeillType.DOUBLE,
    "Gc_lt1.3": lambda tag, p, band: ONeillType.DIAGONAL
    if abs(tag.w - 1) <= band else ONeillType.DOUBLE,
    "Gc_lt1.4": lambda tag, p, band: ONeillType.DIAGONAL,
    "Gc_lt1.5": lambda tag, p, band: ONeillType.DIAGONAL,
    "Gc_lt1.6": lambda tag, p, band: ONeillType.DIAGONAL,
    "Gc_lt1.7": lambda tag, p, band: ONeillType.DIAGONAL,
    "Gc_lt1.8": lambda tag, p, band: ONeillType.DIAGONAL
    if abs(tag.w - 1) <= band else ONeillType.DOUBLE,
    "Gc_lt1.9": lambda tag, p, band: ONeillType.DIAGONAL
    if abs(tag.w - 1) <= band else ONeillType.DOUBLE,
    "Gc_lt1.10-1": lambda tag, p, band: _tri(
        p["tau"] * (p["tau"] - 1 + tag.w ** 2), band),
    "Gc_lt1.10-2": lambda tag, p, band: ONeillType.DIAGONAL,
    "Gc_lt1.11": lambda tag, p, band: _tri(
        p["eta"] * (p["eta"] - 1 + tag.w ** 2), band),
}


@pytest.mark.parametrize("tag", ALL_TAGS, ids=lambda t: f"{t.kind}-{t.c}")
def test_derived_types_match_printed_rules(tag):
    band = DEFAULT_TOL.classification_tol
    cells = 0
    for spec, params in _cells(tag):
        derived = closed_form_report(tag, spec.form_id, params).oneill_type
        printed = _PRINTED_TYPES[spec.form_id](tag, params, band)
        assert derived == printed, (spec.form_id, params, derived, printed)
        cells += 1
    assert cells > 0


@pytest.mark.parametrize("tag", ALL_TAGS, ids=lambda t: f"{t.kind}-{t.c}")
def test_spec_eigenvectors_are_non_null_eigenvectors(tag):
    """Each spec's eigenvector v is non-null and T v = lam v, with lam its
    Rayleigh quotient h(T v, v) / h(v, v), for T the spec's Ricci operator."""
    for spec, params in _cells(tag):
        T = spec.ric(tag, params)
        v = np.asarray(spec.eigenvector(tag, params), dtype=float)
        hvv = float(v @ J21 @ v)
        assert abs(hvv) > 1e-12 * float(v @ v), (spec.form_id, params)
        lam = float(v @ J21 @ T @ v) / hvv
        res = float(np.linalg.norm(T @ v - lam * v))
        assert res <= 1e-12 * float(np.abs(T).max()) * float(np.linalg.norm(v)), \
            (spec.form_id, params, res)


# --------------------------------------------------------------------------
# symbolic proof that each spec's eigenvector is a non-null eigenvector of
# its Ricci operator on the form's whole domain, not only on the sweep grid:
# then every Ricci operator on these groups has a spacelike eigenvector
# (a timelike one leaves a spacelike complement, where the operator is
# symmetric), and O'Neill's type {3} never occurs

_m, _n, _s, _w, _a = sp.symbols("m n s w a", positive=True)
_t = sp.Symbol("t", nonnegative=True)

#: each family's c (and w = sqrt(1 - c) for c < 1) on its whole range
_SYMBOLIC_FAMILIES = {"GI": (None, None), "Gc_gt1": (1 + _a ** 2, None),
                      "G1": (sp.Integer(1), None), "Gc_lt1": (1 - _w ** 2, _w)}
#: each form's domain by substitution, defaulting to mu = m > 0, nu = n > 0;
#: an entry "c" replaces the family's c
_SYMBOLIC_DOMAINS = {
    "Gc_gt1.2": {"tau": 1 - _s ** 2},
    "Gc_gt1.3": {"nu": 1 + _s ** 2, "c": 1 + _s ** 2 + _t ** 2},   # 1 < nu <= c
    "Gc_lt1.10-1": {"tau": 1 - _s ** 2},
    "Gc_lt1.10-2": {"nu": -_n, "tau": 1 + _s ** 2},
    "Gc_lt1.11": {"eta": 1 - _s ** 2},
}
_ALL_SPECS = [spec for tag in (FamilyTag("GI"), FamilyTag("Gc", 2.0),
                               FamilyTag("Gc", 1.0), FamilyTag("Gc", 0.0))
              for spec in form_specs(tag)]


def _symbolic_point(spec):
    """(tag stand-in with symbolic c and w, symbolic parameters) covering
    the form's domain."""
    c, w = _SYMBOLIC_FAMILIES[spec.form_id.partition(".")[0]]
    sub = {"mu": _m, "nu": _n, **_SYMBOLIC_DOMAINS.get(spec.form_id, {})}
    c = sub.pop("c", c)
    return SimpleNamespace(c=c, w=w), {name: sub[name] for name in spec.param_names}


def _exact(x) -> sp.Matrix:
    """A symbolic 3x3 or 3-vector, its float coefficients made rational."""
    return sp.Matrix(x).applyfunc(lambda e: sp.nsimplify(e, rational=True))


def test_symbolic_domains_lie_in_the_domains():
    """The substitutions land in each form's domain (checked at sample
    values of the free symbols)."""
    for spec in _ALL_SPECS:
        tag, params = _symbolic_point(spec)
        for value in (0.5, 2.0):
            at = {x: value for x in (_m, _n, _s, _w, _a, _t)}
            c = None if tag.c is None else float(tag.c.subs(at))
            num_tag = FamilyTag("GI") if c is None else FamilyTag("Gc", c)
            num_params = {k: float(v.subs(at)) for k, v in params.items()}
            assert spec.domain(num_tag, num_params), (spec.form_id, value)


def _symbolic_atlas(monkeypatch):
    """Swap the atlas's math.sqrt for sympy's: the formulas build their
    matrices as rows, which then hold sympy expressions."""
    monkeypatch.setattr(lorcurv.atlas, "math", SimpleNamespace(sqrt=sp.sqrt))


def _assert_parallel(u, v, where):
    for i, j in ((0, 1), (0, 2), (1, 2)):
        assert sp.simplify(u[i] * v[j] - u[j] * v[i]) == 0, (where, i, j)


@pytest.mark.parametrize("spec", _ALL_SPECS, ids=lambda spec: spec.form_id)
def test_eigenvector_is_non_null_on_domain(spec, monkeypatch):
    """spec.ric and spec.eigenvector evaluated on symbols, with the atlas's
    math.sqrt swapped for sympy's: Ric v is parallel to
    v identically, and h(v, v) is 1, -1, mu^2 or 16 w^2, nonzero on the
    whole domain."""
    _symbolic_atlas(monkeypatch)
    tag, params = _symbolic_point(spec)
    T = _exact(spec.ric(tag, params))
    v = _exact(list(spec.eigenvector(tag, params)))
    _assert_parallel(T * v, v, spec.form_id)
    hvv = sp.factor(v[0] ** 2 + v[1] ** 2 - v[2] ** 2)
    assert hvv in (1, -1, _m ** 2, 16 * _w ** 2), (spec.form_id, hvv)
    assert hvv.is_nonzero


#: the trace form tau(u) = tr ad_u in each family's classification basis:
#: span(x1, x2) is an abelian ideal, so tr ad vanishes on it, and
#: tr ad_{x3} is 1 + 1 (GI, c = 1), 0 + 2 (c > 1) or (1 + w) + (1 - w)
_TRACE_FORM = sp.Matrix([0, 0, 2])


def test_trace_form_is_the_engines():
    """_TRACE_FORM is tr ad of each family's classification basis."""
    for tag in ALL_TAGS:
        alg = make_family_algebra(tag, classification_basis(tag))
        tau = alg.structure_constants.trace(axis1=1, axis2=2)
        assert tau.tolist() == [float(x) for x in _TRACE_FORM], tag


@pytest.mark.parametrize("spec", _ALL_SPECS, ids=lambda spec: spec.form_id)
def test_trace_form_dual_is_a_ricci_eigenvector(spec, monkeypatch):
    """The eigenvector curvature_report hands the classifier: for F the
    paper frame, n = J F^T tau is the h-dual of the trace form in frame
    coordinates.  On the whole domain of each form n is nonzero and
    spec.ric n is parallel to n identically.  Every metric is an
    automorphism image of a canonical one, automorphisms fix tau, and the
    Ricci operator is read in a frame, so this covers every metric."""
    _symbolic_atlas(monkeypatch)
    tag, params = _symbolic_point(spec)
    F = _exact(spec.frame(tag, params))
    n = sp.diag(1, 1, -1) * F.T * _TRACE_FORM
    assert any(sp.simplify(x).is_nonzero for x in n), (spec.form_id, n)
    _assert_parallel(_exact(spec.ric(tag, params)) * n, n, spec.form_id)


@pytest.mark.parametrize("c", [1.0001, 1.0 + 1e-6])
def test_near_c1_type_is_the_engines(c):
    """Gc_gt1.2 at tau within 1e-8 of 1: the printed expression
    (c + tau)^2 - 4c is about -3e-8 at c = 1.0001, inside the absolute band
    of the printed rule, which types the cell {21}.  The Ricci block is far
    outside the engine's relative band: {1zz}, as the classifier gives on
    Ric / s and as the derived type reads."""
    tag, params = FamilyTag("Gc", c), {"mu": 1.0, "tau": 1.0 - 1e-8}
    closed = closed_form_report(tag, "Gc_gt1.2", params)
    alg = make_family_algebra(tag, classification_basis(tag))
    frame = paper_frame(tag, "Gc_gt1.2", params).columns
    brackets = change_basis(alg, frame).structure_constants
    s = float(np.abs(brackets).max()) ** 2
    n = J21 @ brackets.trace(axis1=1, axis2=2)
    engine = classify_self_adjoint(closed.ricci_op / s, n).type_tag
    assert closed.oneill_type == engine == ONeillType.COMPLEX
    flags = cross_check(tag, "Gc_gt1.2", params).flags
    assert not [f for f in flags if f.startswith("oneill:")], flags


def test_closed_forms_call_no_engine(monkeypatch):
    """The atlas is the oracle of the engine: closed_form_report types
    every cell with the classifier, the curvature report, the connection
    and the frame builder all switched off."""
    def engine(*args, **kwargs):
        raise AssertionError("closed_form_report called the engine")

    for module, name in ((lorcurv.oneill, "classify_self_adjoint"),
                         (lorcurv.atlas, "curvature_report"),
                         (lorcurv.curvature, "levi_civita"),
                         (lorcurv.metric, "orthonormal_frame")):
        monkeypatch.setattr(module, name, engine)
    cells = 0
    for tag in ALL_TAGS:
        for spec, params in _cells(tag):
            closed_form_report(tag, spec.form_id, params)
            cells += 1
    assert cells == 335


def test_form_counts():
    assert len(form_specs(FamilyTag("GI"))) == 3
    assert len(form_specs(FamilyTag("Gc", 2.0))) == 3
    assert len(form_specs(FamilyTag("Gc", 1.0))) == 7
    assert len(form_specs(FamilyTag("Gc", 0.5))) == 12


def test_paper_frame_is_orthonormal():
    tag = FamilyTag("Gc", 0.75)
    basis = classification_basis(tag)
    for spec in form_specs(tag):
        params = {"mu": 2.0, "nu": 2.0, "tau": 0.5, "eta": 0.5}
        if spec.form_id == "Gc_lt1.10-2":
            params = {"nu": -2.0, "tau": 2.0}
        params = {k: params[k] for k in spec.param_names}
        frame = paper_frame(tag, spec.form_id, params)
        h = MetricTensor(canonical_matrix(tag, spec.form_id, params),
                         basis_label=basis)
        gram = frame.columns.T @ h.entries @ frame.columns
        assert np.max(np.abs(gram - np.diag([1.0, 1, -1]))) < 1e-12, \
            spec.form_id


def test_domain_rejection():
    """Parameters outside a form's domain, and a form id that names no form
    of the tag's family (unknown, or of another family), are ValueErrors
    from every lookup."""
    with pytest.raises(ValueError):
        closed_form_report(FamilyTag("GI"), "GI.1", {"mu": -1.0})
    params = {"mu": 1.0, "tau": 0.0}
    for form_id in ("GI.9", "Gc_gt1.2"):
        for lookup in (lambda f: get_form_spec(FamilyTag("GI"), f),
                       lambda f: canonical_matrix(FamilyTag("GI"), f, params),
                       lambda f: paper_frame(FamilyTag("GI"), f, params),
                       lambda f: closed_form_report(FamilyTag("GI"), f, params)):
            with pytest.raises(ValueError, match="not a canonical form of family GI"):
                lookup(form_id)


def test_flat_entries_zero_engine_ricci():
    cases = [
        (FamilyTag("GI"), "GI.3", {}),
        (FamilyTag("Gc", 1.0), "G1.1", {"mu": 2.0}),
        (FamilyTag("Gc", 0.0), "Gc_lt1.1", {}),
    ]
    for tag, form_id, params in cases:
        e = cross_check(tag, form_id, params)
        assert np.max(np.abs(e.engine_ricci_op)) < 1e-9


# --------------------------------------------------------------------------
# catalogued transcription slips: the printed variant must disagree with
# the engine while the implemented formula agrees.

def _engine_cell(tag, form_id, params, i, j):
    return float(cross_check(tag, form_id, params).engine_ricci_op[i, j])


def test_printed_kappa31_gt1_form2_is_wrong():
    tag, params = FamilyTag("Gc", 2.0), {"mu": 1.0, "tau": 0.5}
    c, t, mu = 2.0, 0.5, 1.0
    printed = -(t * t + 2 * (c - 4) * t - (3 * c * c - 4 * c - 4)) \
        / ((1 - t) * mu)
    e = cross_check(tag, "Gc_gt1.2", params)
    assert abs(e.engine_kappas[2] - printed / 4) < 1e-9
    assert abs(e.engine_kappas[2] - printed) > 1e-3
    assert "kappa31" in get_form_spec(tag, "Gc_gt1.2").notes


def test_printed_ric11_gt1_form3_is_wrong():
    tag, params = FamilyTag("Gc", 2.0), {"mu": 1.0, "nu": 1.5}
    c, nu, mu = 2.0, 1.5, 1.0
    good = (nu * nu + 2 * nu - (c * c - 2 * c + 4)) / (2 * (nu - 1) * mu)
    e = cross_check(tag, "Gc_gt1.3", params)
    assert abs(good) > 1e-3   # nonzero cell, so the sign matters
    assert abs(e.engine_ricci_op[0, 0] - good) < 1e-9
    assert abs(e.engine_ricci_op[0, 0] - (-good)) > 1e-3


@pytest.mark.parametrize("form_id,cells", [
    ("G1.4", [(1, 1), (2, 2)]),
    ("G1.5", [(1, 1), (2, 2)]),
])
def test_printed_g1_cells_use_wrong_parameter(form_id, cells):
    """The printed cells swap mu for nu; at mu != nu they disagree with
    the engine while the nu-version matches."""
    tag, params = FamilyTag("Gc", 1.0), {"mu": 2.0, "nu": 0.5}
    mu, nu = params["mu"], params["nu"]
    e = cross_check(tag, form_id, params)
    for i, j in cells:
        good = float(e.closed.ricci_op[i, j])
        assert abs(e.engine_ricci_op[i, j] - good) < 1e-9
        if form_id == "G1.4":
            printed = (4 * mu + 1) / (2 * mu * nu)
        elif (i, j) == (1, 1):
            printed = (1 - 4 * mu) / (2 * mu * nu)
        else:
            printed = -(4 * mu + 1) / (2 * mu * nu)
        assert abs(e.engine_ricci_op[i, j] - printed) > 1e-3


def test_printed_lt1_form5_sign_is_wrong():
    tag, params = FamilyTag("Gc", -3.0), {"mu": 1.0}   # w = 2
    w, mu = 2.0, 1.0
    e = cross_check(tag, "Gc_lt1.5", params)
    good = 2 * (w - 1) / mu
    printed = 2 * (1 - w) / mu
    assert abs(e.engine_ricci_op[2, 2] - good) < 1e-9
    assert abs(e.engine_ricci_op[2, 2] - printed) > 1e-3


def test_printed_lt1_form10_denominator_is_wrong():
    # note: at tau = 0.5, w = 0.5 this cell vanishes, hiding the slip;
    # tau = -1 keeps it nonzero
    tag, params = FamilyTag("Gc", 0.75), {"nu": 2.0, "tau": -1.0}
    w, nu, t = 0.5, 2.0, -1.0
    e = cross_check(tag, "Gc_lt1.10-1", params)
    good = 2 * (w * w + w - 1 + (1 - w) * t) / (nu * (1 - t))
    printed = 2 * (w * w + w - 1 + (1 - w) * t) / (nu * math.sqrt(1 - t))
    assert abs(e.engine_ricci_op[2, 2] - good) < 1e-9
    assert abs(e.engine_ricci_op[2, 2] - printed) > 1e-3


def test_form10_2_needs_negative_nu():
    """With tau > 1 the leading 2x2 block is positive definite, so the
    (3,3) parameter must be negative for Lorentzian signature."""
    tag = FamilyTag("Gc", 0.75)
    basis = classification_basis(tag)
    bad = MetricTensor(np.array([[1.0, 1, 0], [1, 2, 0], [0, 0, 1.0]]),
                       basis_label=basis)
    assert not validate_metric(bad).accepted
    good = MetricTensor(canonical_matrix(tag, "Gc_lt1.10-2",
                                         {"nu": -1.0, "tau": 2.0}),
                        basis_label=basis)
    assert validate_metric(good).accepted


# --------------------------------------------------------------------------
# table emission

def test_csv_counts_and_header():
    text = emit_tables(FamilyTag("GI"), {"mu": [1.0, 2.0, 4.0]})
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0][0] == "family"
    assert len(rows) == 1 + 3 + 3 + 1   # header + form1*3 + form2*3 + form3


def test_csv_single_row():
    text = emit_tables(FamilyTag("Gc", 2.0), {"mu": [1.0], "tau": [0.0],
                                              "nu": [1.5]})
    rows = list(csv.reader(io.StringIO(text)))
    assert len(rows) == 4   # header + one row per form


def test_csv_is_deterministic():
    grid = {"mu": [2.0, 1.0]}
    assert emit_tables(FamilyTag("GI"), grid) == \
        emit_tables(FamilyTag("GI"), grid)


def test_json_round_trips():
    text = emit_tables(FamilyTag("Gc", 1.0), {"mu": [1.0], "nu": [2.0]},
                       fmt="json")
    payload = json.loads(text)
    assert len(payload) == 7
    for row in payload:
        arr = np.asarray(row["ricci_operator"], dtype=float)
        assert arr.shape == (3, 3)
        assert json.loads(json.dumps(row)) == row


def test_bad_format_rejected():
    with pytest.raises(ValueError):
        emit_tables(FamilyTag("GI"), {"mu": [1.0]}, fmt="xml")
