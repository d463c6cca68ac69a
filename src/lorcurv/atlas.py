"""Closed-form curvature atlas of the canonical forms.

The forms, with their Ricci operators in the paper frame, are the
FormSpecs of ``registry``.  In dimension three the Ricci operator fixes
the rest of the curvature: rho = tr Ric and the three frame sectional
curvatures follow by Milnor's identity (curvature.milnor_sectional), and
the operator type by curvature._classify_ricci, the engine's one rule, on
the paper frame's brackets.  cross_check() evaluates the formulas on a
parameter point and compares them against the numerical curvature
engine, reporting per-cell residuals, so systematic discrepancies (e.g.
transcription slips in the source material for these formulas) surface
as data, next to the spec's ``notes`` on its printed variants.  Neither
the tables nor the cross-check import numpy; the entries' Ricci operators
hand out arrays.  The registry's names are importable from here too.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
from dataclasses import dataclass

from . import registry
from .algebra import (FamilyTag, _from_cross, classification_basis, cross_rewrite,
                      make_family_algebra)
from .arrays import Array, ArrayField, float_rows
from .curvature import (_classify_ricci, _ricci_operator, _trace_form, curvature_report,
                        milnor_sectional)
from .metric import _I3, MetricTensor, OrthonormalFrame
from .oneill import ONeillType
from .registry import FormSpec, _spec_in_domain, form_specs
from .tolerance import DEFAULT_TOL, ToleranceConfig

#: the registry's lookups, which ``lorcurv.atlas`` names as well
PARAM_NAMES, canonical_matrix, get_form_spec, paper_frame = (
    registry.PARAM_NAMES, registry.canonical_matrix, registry.get_form_spec,
    registry.paper_frame)


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
    cross = cross_rewrite(alg._cross, spec.frame(tag, params))
    top = max(abs(x) for row in cross for x in row)
    return _closed_form(spec, tag, params, _trace_form(_from_cross(cross)), top * top, tol)


def _closed_form(spec: FormSpec, tag: FamilyTag, params: dict[str, float],
                 tau, s: float, tol: ToleranceConfig) -> ClosedFormCurvature:
    """The closed-form curvature of a form in the domain, typed with the
    trace form tau and squared largest bracket s of its paper frame."""
    ric = float_rows(spec.ric(tag, params))
    rho = ric[0][0] + ric[1][1] + ric[2][2]
    form = _ricci_operator(ric)
    kappas = tuple(milnor_sectional(form, rho, _I3[i], _I3[j], tol)
                   for i, j in ((0, 1), (1, 2), (2, 0)))
    return ClosedFormCurvature(spec.form_id, dict(params), ric, rho, kappas,
                               _classify_ricci(ric, tau, s, tol).type_tag)


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
    classification_tol is flagged, not raised; a cell that the engine
    cannot decide raises its ValueError.  The paper frame and its brackets
    are built once, and the closed forms take tau and s from them too."""
    spec = _spec_in_domain(tag, form_id, params)
    basis = classification_basis(tag)
    alg = make_family_algebra(tag, basis)
    h = MetricTensor(spec.matrix(tag, params), basis_label=basis)
    frame = OrthonormalFrame(spec.frame(tag, params))
    report = curvature_report(alg, h, frame=frame, tol=tol)
    s = report.connection._unit
    closed = _closed_form(spec, tag, params, _trace_form(report.connection._brackets), s, tol)
    flags: list[str] = []
    worst = 0.0

    def check(label: str, closed_value: float, engine_value: float) -> None:
        nonlocal worst
        res = abs(closed_value - engine_value) / s
        worst = max(worst, res)
        if res > tol.classification_tol:
            flags.append(f"{label}: closed {closed_value!r} vs engine "
                         f"{engine_value!r}")

    for i, j in itertools.product(range(3), repeat=2):
        check(f"ric{i + 1}{j + 1}", closed._ricci_op[i][j], report._ricci_op[i][j])
    check("rho", closed.rho, report.scalar)
    for label, cv, ev in zip(("kappa12", "kappa23", "kappa31"),
                             closed.kappas, report.sectional):
        check(label, cv, ev)
    engine_type = report.oneill.type_tag
    if closed.oneill_type != engine_type:
        flags.append(f"oneill: closed {closed.oneill_type.value} vs engine {engine_type.value}")

    return AtlasEntry(form_id, dict(params), closed, report._ricci_op, report.scalar,
                      report.sectional, engine_type, worst, tuple(flags), dict(spec.notes))


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
    """cross_check on every grid cell; a ValueError names its cell."""
    entries = []
    for spec in form_specs(tag):
        for params in _param_grid(spec, tag, grid):
            try:
                entries.append(cross_check(tag, spec.form_id, params, tol))
            except ValueError as exc:
                raise ValueError(f"{spec.form_id} at {params}: {exc}") from exc
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
