import csv
import io
import json
import math

import numpy as np
import pytest

from lorcurv import (
    FamilyTag,
    MetricTensor,
    atlas_entries,
    canonical_matrix,
    classification_basis,
    closed_form_report,
    cross_check,
    emit_tables,
    form_specs,
    get_form_spec,
    paper_frame,
    validate_metric,
)
from lorcurv.atlas import _param_grid
from tests.conftest import ALL_TAGS, SWEEP_GRID


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
    for spec in form_specs(tag):
        for params in _param_grid(spec, tag, SWEEP_GRID):
            closed = closed_form_report(tag, spec.form_id, params)
            rho, kappas = _printed_rho_kappas(tag, spec.form_id, params)
            for label, derived, printed in zip(
                    ("rho", "kappa12", "kappa23", "kappa31"),
                    (closed.rho, *closed.kappas), (rho, *kappas)):
                assert abs(derived - printed) <= 1e-12 * (1.0 + abs(printed)), \
                    (spec.form_id, params, label, derived, printed)
            cells += 1
    assert cells > 0


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
    with pytest.raises(ValueError):
        closed_form_report(FamilyTag("GI"), "GI.1", {"mu": -1.0})
    with pytest.raises(KeyError):
        get_form_spec(FamilyTag("GI"), "GI.9")
    with pytest.raises(KeyError):
        canonical_matrix(FamilyTag("GI"), "GI.9", {})
    with pytest.raises(ValueError):
        canonical_matrix(FamilyTag("GI"), "Gc_gt1.2", {"mu": 1.0, "tau": 0.0})


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
