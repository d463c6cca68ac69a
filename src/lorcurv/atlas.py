"""Closed-form curvature atlas of the canonical forms.

The forms, with their Ricci operators in the paper frame, are the
FormSpecs of ``registry``.  In dimension three the Ricci operator fixes
the rest of the curvature: rho = tr Ric and the three frame sectional
curvatures follow by Milnor's identity (curvature.milnor_sectional), and
the operator type by the engine's discriminant rule, applied here without
calling the engine.  cross_check() evaluates the formulas on a parameter
point and compares them against the numerical curvature engine, reporting
per-cell residuals instead of raising, so systematic discrepancies (e.g.
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
from .algebra import FamilyTag, classification_basis, cross_rewrite, make_family_algebra
from .arrays import Array, ArrayField, Rows, float_rows, matmul
from .curvature import _ricci_operator, curvature_report, milnor_sectional
from .metric import _I3, MetricTensor, OrthonormalFrame
from .oneill import ONeillType
from .registry import FormSpec, _spec_in_domain, form_specs
from .tolerance import DEFAULT_TOL, ToleranceConfig

#: the registry's lookups, which ``lorcurv.atlas`` names as well
PARAM_NAMES, canonical_matrix, get_form_spec, paper_frame = (
    registry.PARAM_NAMES, registry.canonical_matrix, registry.get_form_spec,
    registry.paper_frame)


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
                      dict(spec.notes))


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
