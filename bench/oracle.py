"""Checks every answer against its source cell and sorts each op into one
outcome class:

* ``ok``: the op returned an answer and the oracle accepts it;
* ``rejected``: lorcurv refused the input with ``DegenerateMetricError``
  or another ``ValueError`` (a named rejection), or the CLI exited 1;
* ``fault``: any other exception (``ArithmeticError``, ``TypeError``,
  ``LinAlgError`` ...), a CLI traceback or a wrong CLI exit code;
* ``wrong``: an answer the oracle rejects.

The expected values come from the closed-form atlas and from the
benchmark's own copies of the structure constants (``inputs.py``); the
checks use numpy directly, never the lorcurv code being timed.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

from inputs import adapted_basis_vectors, structure_constants
from lorcurv import FamilyTag

OK, REJECTED, FAULT, WRONG = "ok", "rejected", "fault", "wrong"
#: worst first, for ops made of several calls
SEVERITY = (FAULT, WRONG, REJECTED, OK)

RTOL = 1e-6


class Mismatch(Exception):
    """The answer disagrees with the oracle."""


def exception_outcome(exc: BaseException) -> str:
    if isinstance(exc, np.linalg.LinAlgError):
        return FAULT
    return REJECTED if isinstance(exc, ValueError) else FAULT


def worst(*outcomes: str) -> str:
    return min(outcomes, key=SEVERITY.index)


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def close(value: float, expected: float, scale: float = 0.0) -> bool:
    """|value - expected| within RTOL of max(|expected|, scale)."""
    return abs(value - expected) <= RTOL * max(abs(expected), scale)


def check_params(params: dict, expected: dict) -> None:
    expect(set(params) == set(expected), f"parameter names {sorted(params)}")
    for k, v in expected.items():
        expect(abs(params[k] - v) <= RTOL * (1.0 + abs(v)),
               f"parameter {k} = {params[k]!r}, expected {v!r}")


def check_automorphism(tag, adapted: bool, A: np.ndarray) -> None:
    """A [e_i, e_j] = [A e_i, A e_j] for all basis pairs."""
    C = structure_constants(tag, adapted)
    A = np.asarray(A, dtype=float)
    lhs = np.einsum("km,ijm->ijk", A, C)
    rhs = np.einsum("ai,bj,abk->ijk", A, A, C)
    scale = 1.0 + float(np.max(np.abs(A))) ** 2 * float(np.max(np.abs(C)))
    expect(abs(np.linalg.det(A)) > 0 and
           float(np.max(np.abs(lhs - rhs))) <= 1e-8 * scale,
           "witness is not an automorphism")


def check_congruence(W: np.ndarray, h: np.ndarray, target: np.ndarray) -> None:
    W = np.asarray(W, dtype=float)
    res = float(np.max(np.abs(W.T @ h @ W - target)))
    expect(res <= RTOL * (1.0 + float(np.max(np.abs(target)))),
           f"witness congruence residual {res:g}")


def check_canonical(cell, h: np.ndarray, form_id: str, params: dict,
                    witness: np.ndarray) -> None:
    expect(form_id == cell.form_id, f"form {form_id}, expected {cell.form_id}")
    check_params(params, cell.params)
    check_congruence(witness, h, cell.canonical)
    check_automorphism(cell.tag, cell.basis.value != "natural", witness)


def term_scale(tag, adapted: bool, frame: np.ndarray) -> float:
    """Size of the terms that curvature sums: squared structure constants in
    the frame.  Curvature that cancels to zero (a flat metric) is compared
    on this scale, not on its own."""
    F = np.asarray(frame, dtype=float)
    C = np.einsum("ai,bj,abk,lk->ijl", F, F, structure_constants(tag, adapted),
                  np.linalg.inv(F))
    return float(np.max(np.abs(C))) ** 2


def check_curvature(cell, scalar: float, oneill_value: str, frame) -> None:
    scale = max(cell.ric_scale,
                term_scale(cell.tag, cell.basis.value != "natural", frame))
    expect(close(scalar, cell.rho, scale),
           f"scalar curvature {scalar!r}, expected {cell.rho!r}")
    expect(oneill_value == cell.oneill.value,
           f"O'Neill type {oneill_value}, expected {cell.oneill.value}")


def _classify(check, *args) -> tuple[str, str]:
    try:
        check(*args)
    except Mismatch as exc:
        return WRONG, str(exc)
    return OK, ""


# --------------------------------------------------------------------------
# in-process workloads: ``result`` is what the op returned, or its exception

def survey_outcome(item, result) -> tuple[str, str]:
    if isinstance(result, BaseException):
        return exception_outcome(result), repr(result)
    report, cls, cf = result
    cell = item.cell

    def check():
        check_curvature(cell, report.scalar, report.oneill.type_tag.value,
                        report.frame.columns)
        expect(cls == cell.constant, f"class {cls.value}, expected {cell.constant.value}")
        check_canonical(cell, item.args["h"], cf.form_id, cf.params, cf.witness)
    return _classify(check)


def orbits_outcome(item, result) -> tuple[str, str]:
    if isinstance(result, BaseException):
        return exception_outcome(result), repr(result)
    cf, (same, W), (other, W_other) = result
    cell, h = item.cell, item.args["h"]

    def check():
        check_canonical(cell, h, cf.form_id, cf.params, cf.witness)
        expect(same and W is not None, "image of the same cell judged inequivalent")
        check_congruence(W, h, item.args["h_image"])
        check_automorphism(cell.tag, cell.basis.value != "natural", W)
        expect(not other and W_other is None,
               "image of another cell judged equivalent")
    return _classify(check)


def edge_outcome(item, result, closed_form) -> tuple[str, str]:
    """``closed_form(tag, form_id, params)`` gives the atlas values of the
    form the reduction found.  Beyond that, an item at lambda != 1 must agree
    with the lambda = 1 item of its group where that one is ok: same form
    and operator type, scalar curvature rho(H) / lambda.  An item made from
    a sweep cell must at lambda = 1 reduce to that cell's form."""
    tag = FamilyTag(*item.args["tag"])
    h = np.asarray(item.args["h"])
    cf, rep = result["canonical"], result["curvature"]
    outcomes, notes = [], []
    for stage in (cf, rep):
        if isinstance(stage, BaseException):
            outcomes.append(exception_outcome(stage))
            notes.append(repr(stage))

    if not isinstance(rep, BaseException):
        scale = term_scale(tag, False, rep.frame.columns)

    def check():
        if not isinstance(cf, BaseException):
            U = adapted_basis_vectors(tag)
            check_congruence(cf.witness, U.T @ h @ U, cf.canonical_matrix)
            check_automorphism(tag, cf.basis_label.value != "natural", cf.witness)
            if item.cell is not None and item.expect["lam"] == 1.0:
                expect(cf.form_id == item.cell.form_id,
                       f"form {cf.form_id}, expected {item.cell.form_id}")
                check_params(cf.params, item.cell.params)
            if not isinstance(rep, BaseException):
                try:
                    closed = closed_form(tag, cf.form_id, cf.params)
                except (ValueError, ArithmeticError) as exc:   # outside the domain
                    raise Mismatch(f"{cf.form_id} {cf.params}: {exc}") from exc
                expect(close(rep.scalar, closed.rho, scale),
                       f"scalar {rep.scalar!r}, closed form {closed.rho!r}")
                expect(rep.oneill.type_tag == closed.oneill_type,
                       f"type {rep.oneill.type_tag.value}, closed form "
                       f"{closed.oneill_type.value}")
        base, lam = item.expect["base"], item.expect["lam"]
        if base is not None and base.outcome == OK:
            base_cf, base_rep = base.result["canonical"], base.result["curvature"]
            if not isinstance(cf, BaseException):
                expect(cf.form_id == base_cf.form_id,
                       f"form {cf.form_id} at lambda {lam:g}, {base_cf.form_id} at 1")
            if not isinstance(rep, BaseException):
                expect(rep.oneill.type_tag == base_rep.oneill.type_tag,
                       f"type {rep.oneill.type_tag.value} at lambda {lam:g}, "
                       f"{base_rep.oneill.type_tag.value} at 1")
                expect(close(rep.scalar, base_rep.scalar / lam, scale),
                       f"scalar {rep.scalar!r} at lambda {lam:g}, "
                       f"{base_rep.scalar!r} at 1")
    outcome, note = _classify(check)
    return worst(outcome, *outcomes), "; ".join(filter(None, [note, *notes]))


# --------------------------------------------------------------------------
# CLI: ``result`` is a CompletedProcess, or the exception of starting it

def cli_outcome(item, result) -> tuple[str, str]:
    if isinstance(result, BaseException):
        return FAULT, repr(result)
    code, out, err = result.returncode, result.stdout, result.stderr
    if "Traceback (most recent call last)" in err:
        return FAULT, f"traceback, exit {code}: {err.strip().splitlines()[-1]}"
    if item.kind == "probe":
        if code == 2:
            return OK, ""
        return FAULT, f"probe {item.expect['probe']}: exit {code}, expected 2"
    if code == 1:
        return REJECTED, err.strip()
    expected_code = 0
    if code != expected_code:
        return FAULT, f"exit {code}, expected {expected_code}"
    cell = item.cell

    def check():
        if item.kind == "atlas":
            _check_atlas(item.expect["cells"], out)
            return
        payload = json.loads(out)
        if item.kind == "classify":
            check_canonical(cell, item.expect["h"], payload["form_id"],
                            payload["params"], np.array(payload["witness"]))
        elif item.kind == "curvature":
            check_curvature(cell, payload["scalar"], payload["oneill"]["type"],
                            payload["frame"])
        elif item.kind == "constcurv":
            expect(payload["class"] == cell.constant.value,
                   f"class {payload['class']}, expected {cell.constant.value}")
            expect(payload["form_id"] == cell.form_id, f"form {payload['form_id']}")
            check_params(payload["params"], cell.params)
        else:  # equiv
            expect(payload["equivalent"] is True, "judged inequivalent")
            W = np.array(payload["witness"])
            check_congruence(W, item.expect["h"], item.expect["h2"])
            check_automorphism(cell.tag, cell.basis.value != "natural", W)
    try:
        return _classify(check)
    except (ValueError, KeyError, TypeError) as exc:   # unreadable output
        return WRONG, f"unreadable output: {exc!r}"


def _check_atlas(cells, text: str) -> None:
    rows = list(csv.DictReader(io.StringIO(text)))
    got = {}
    for row in rows:
        params = {}
        for part in filter(None, row["params"].split(";")):
            k, _, v = part.partition("=")
            params[k] = float(v)
        got[(row["form_id"], tuple(sorted(params.items())))] = row
    want = {(c.form_id, tuple(sorted(c.params.items()))): c for c in cells}
    expect(set(got) == set(want) and len(rows) == len(cells),
           f"atlas rows {len(rows)}, expected cells {len(cells)}")
    for key, cell in want.items():
        row = got[key]
        expect(not row["flags"], f"{key}: {row['flags']}")
        expect(close(float(row["rho"]), cell.rho, cell.ric_scale), f"{key}: rho")
        expect(row["oneill_type"] == cell.oneill.value, f"{key}: type")
