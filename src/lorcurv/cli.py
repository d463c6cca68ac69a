"""Command-line interface.

Subcommands: validate, classify, curvature, atlas, equiv, constcurv.
Input is a JSON document (file path or ``-`` for stdin):

    {
      "family": "GI" | {"Gc": <real c>},
      "basis": "natural" | "Q_adapted" | "P_adapted",
      "metric": [[..], [..], [..]],
      "tolerance": {"classification_tol": ..}
    }

Exit codes, all decided in ``main``: 0 success; 1 rejection, any
``ValueError`` of the library (invalid metric, wrong signature, a basis
that does not fit the family, a pivot inside the tolerance band, a
metric whose frame is not h-orthonormal, which under ``--frame paper``
means not canonical), with one ``rejected: <message>`` line on stderr;
2 parse or I/O error (``error: <field>: <message>``); 3 "not
equivalent" (equiv only); 4 internal fault, an ``ArithmeticError`` of the
engine or an answer that is not strict JSON (NaN or an infinity), with
one ``fault: <subcommand>: <message>`` line on stderr.  The subcommands
compute on Python floats and write JSON from them: none imports numpy.
The engine modules are bound here with ``from . import x``, which runs
nothing: a module runs when a subcommand first reads a name from it,
once its input has parsed, so that a process runs only the modules it
calls: ``classify`` no curvature engine, classifier or atlas, ``atlas``
no reducer.
``validate`` prints its diagnostics, with ``det`` null where the product
of the eigenvalues leaves the float range, and exits 1 when the metric is
not Lorentzian.  classification_tol, the package's one
tolerance, is set per document by the "tolerance" field; the two
documents of ``equiv`` must set the same one, as they must name the same
family and basis; ``atlas`` uses the default.

This module checks only the shape of its input: FamilyTag and
ToleranceConfig decide which c and tolerances are valid, and their
message follows ``error: <field>: ``.  Unknown fields, at any level, and
``--grid`` names that no canonical form takes are parse errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from . import __version__, atlas, canonical, curvature, registry
from .algebra import (BasisLabel, FamilyTag, classification_basis,
                      make_family_algebra)
from .metric import FrameResidualError, MetricTensor, validate_metric
from .tolerance import DEFAULT_TOL, ToleranceConfig

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_PARSE = 2
EXIT_NOT_EQUIVALENT = 3
EXIT_FAULT = 4


class InputError(Exception):
    """Structured parse error carrying the JSON path of the bad field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _finite_real(value) -> bool:
    """A finite JSON number.  JSON true and false parse to Python bools,
    which are ints, so they are excluded explicitly."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _field(path: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, a library constructor that owns the
    rule for the field at ``path``; its ValueError or TypeError is a parse
    error there."""
    try:
        return build(*args, **kwargs)
    except (ValueError, TypeError) as exc:
        raise InputError(path, str(exc)) from exc


def _parse_family(node) -> FamilyTag:
    if node == "GI":
        return FamilyTag("GI")
    if isinstance(node, dict) and set(node) == {"Gc"}:
        return _field("family.Gc", FamilyTag, "Gc", node["Gc"])
    raise InputError("family", 'expected "GI" or {"Gc": c}')


def _parse_basis(node, tag: FamilyTag | None) -> BasisLabel:
    """The document's basis; checked against the family only when the
    document names one."""
    if node not in ("natural", "Q_adapted", "P_adapted"):
        raise InputError(
            "basis", 'expected "natural", "Q_adapted" or "P_adapted"')
    basis = BasisLabel(node)
    if tag is not None and basis not in (BasisLabel.NATURAL,
                                         classification_basis(tag)):
        raise ValueError(f"{node} basis is not defined for family "
                         f"{tag.family_key()}")
    return basis


def _parse_tolerance(node) -> ToleranceConfig:
    tol = DEFAULT_TOL
    if node is None:
        return tol
    if not isinstance(node, dict):
        raise InputError("tolerance", "expected an object")
    for key, value in node.items():     # an unknown key is a TypeError
        tol = _field(f"tolerance.{key}", dataclasses.replace, tol,
                     **{key: value})
    return tol


def _parse_metric(node, basis: BasisLabel) -> MetricTensor:
    if not (isinstance(node, list) and len(node) == 3
            and all(isinstance(row, list) and len(row) == 3 for row in node)):
        raise InputError("metric", "expected a 3x3 array of reals")
    for i, row in enumerate(node):
        for j, value in enumerate(row):
            if not _finite_real(value):
                raise InputError(f"metric[{i}][{j}]", "must be a finite real number")
    return MetricTensor(node, basis_label=basis)


def _read_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:     # ValueError: bad JSON or UTF-8
        raise InputError(path, str(exc)) from exc


def _load_document(path: str, family_required: bool = True):
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise InputError("$", "expected a JSON object")
    extra = set(doc) - {"family", "basis", "metric", "tolerance"}
    if extra:
        raise InputError(sorted(extra)[0], "unknown field")
    tag = None
    if "family" in doc:
        tag = _parse_family(doc["family"])
    elif family_required:
        raise InputError("family", "missing required field")
    tol = _parse_tolerance(doc.get("tolerance"))
    basis = _parse_basis(doc.get("basis", "natural"), tag)
    if "metric" not in doc:
        raise InputError("metric", "missing required field")
    h = _parse_metric(doc["metric"], basis)
    return tag, h, tol


def _emit(payload) -> None:
    """Write payload as strict JSON; a NaN or an infinity in it is the
    engine's fault, not a verdict on the input."""
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise ArithmeticError(f"answer is not JSON: {exc}") from None
    sys.stdout.write(text + "\n")


def _fail(code: int, message: str) -> int:
    sys.stderr.write(message + "\n")
    return code


# --------------------------------------------------------------------------
# subcommands

def cmd_validate(args) -> int:
    tag, h, tol = _load_document(args.file, family_required=False)
    diag = validate_metric(h, tol)
    payload = {
        "accepted": diag.accepted,
        "signature": list(diag.signature),
        "eigenvalues": list(diag.eigenvalues),
        "det": diag.det if math.isfinite(diag.det) else None,
        "reason": diag.reason,
        "family": None if tag is None else tag.family_key(),
        "basis": h.basis_label.value,
    }
    _emit(payload)
    return EXIT_OK if diag.accepted else EXIT_DOMAIN


def _form_payload(cf) -> dict:
    payload = {
        "form_id": cf.form_id,
        "params": cf.params,
        "canonical_matrix": cf._canonical_matrix,
        "witness": cf._witness,
        "basis": cf.basis_label.value,
    }
    payload.update(cf.params)
    return payload


def cmd_classify(args) -> int:
    tag, h, tol = _load_document(args.file)
    _emit(_form_payload(canonical.canonical_form(tag, h, tol)))
    return EXIT_OK


def cmd_curvature(args) -> int:
    tag, h, tol = _load_document(args.file)
    if args.frame == "paper":
        cf = canonical.canonical_form(tag, h, tol)
        target = (h if h.basis_label == cf.basis_label
                  else canonical.to_adapted_basis(tag, h))
        frame = registry.paper_frame(tag, cf.form_id, cf.params)
        alg = make_family_algebra(tag, cf.basis_label)
        try:
            report = curvature.curvature_report(alg, target, frame=frame, tol=tol)
        except FrameResidualError as exc:
            raise ValueError("metric is not in canonical form; canonicalize first "
                             f"(form {cf.form_id}, residual {exc.residual:g})"
                             ) from None
    else:
        alg = make_family_algebra(tag, h.basis_label)
        report = curvature.curvature_report(alg, h, tol=tol)
    _emit(report.to_dict())
    return EXIT_OK


def _parse_grid(spec: str) -> dict[str, list[float]]:
    grid: dict[str, list[float]] = {}
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise InputError("--grid", f"bad grid entry {chunk!r}")
        name, _, values = chunk.partition("=")
        name = name.strip()
        if not name:
            raise InputError("--grid", f"bad grid entry {chunk!r}")
        if name not in registry.PARAM_NAMES:
            raise InputError("--grid", f"no canonical form takes {name!r}; expected "
                             f"one of {', '.join(sorted(registry.PARAM_NAMES))}")
        if name in grid:
            raise InputError("--grid", f"{name!r} is given more than once")
        try:
            grid[name] = [float(v) for v in values.split(",") if v.strip()]
        except ValueError as exc:
            raise InputError("--grid", f"bad number in {chunk!r}") from exc
        if not grid[name]:
            raise InputError("--grid", f"no values for {name!r}")
        if not all(_finite_real(v) for v in grid[name]):
            raise InputError("--grid", f"non-finite value in {chunk!r}")
    if not grid:
        raise InputError("--grid", "empty grid")
    return grid


def cmd_atlas(args) -> int:
    tag = _field("--c", FamilyTag, args.family, args.c)
    grid = _parse_grid(args.grid)
    text = atlas.emit_tables(tag, grid, fmt=args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_equiv(args) -> int:
    tag1, h1, tol = _load_document(args.file1)
    tag2, h2, tol2 = _load_document(args.file2)
    if tag1 != tag2:
        raise InputError("family", "the two documents describe different families")
    if h1.basis_label != h2.basis_label:
        raise InputError("basis", "the two metrics use different bases")
    if tol != tol2:
        raise InputError("tolerance", "the two documents set different tolerances")
    flag, witness = canonical._equivalence(tag1, h1, h2, tol)
    if not flag:
        _emit({"equivalent": False, "witness": None})
        return EXIT_NOT_EQUIVALENT
    _emit({"equivalent": True, "witness": witness})
    return EXIT_OK


def cmd_constcurv(args) -> int:
    tag, h, tol = _load_document(args.file)
    cls, cf = canonical.constant_curvature_class(tag, h, tol)
    _emit({"class": cls.value, "form_id": cf.form_id, "params": cf.params})
    return EXIT_OK


# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lorcurv",
        description="Curvature and canonical forms of left-invariant "
                    "Lorentzian metrics on 3D non-unimodular Lie groups.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a metric document")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("classify", help="reduce a metric to canonical form")
    p.add_argument("file")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("curvature", help="full curvature report")
    p.add_argument("file")
    p.add_argument("--frame", choices=("auto", "paper"), default="auto")
    p.set_defaults(func=cmd_curvature)

    p = sub.add_parser("atlas", help="closed-form tables over a parameter grid")
    p.add_argument("--family", choices=("GI", "Gc"), required=True)
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--grid", required=True,
                   help='e.g. "mu=1,2;tau=0,0.5"')
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_atlas)

    p = sub.add_parser("equiv", help="decide equivalence of two metrics")
    p.add_argument("file1")
    p.add_argument("file2")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("constcurv", help="constant-curvature classification")
    p.add_argument("file")
    p.set_defaults(func=cmd_constcurv)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        return _fail(EXIT_PARSE, f"error: {exc}")
    except ArithmeticError as exc:
        return _fail(EXIT_FAULT, f"fault: {args.command}: {exc}")
    except ValueError as exc:       # the library's rejections
        return _fail(EXIT_DOMAIN, f"rejected: {exc}")


if __name__ == "__main__":
    sys.exit(main())
