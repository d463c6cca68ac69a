"""The timed operations: what a user of lorcurv asks for, one op at a time.

Each op takes the JSON-able ``args`` of an input item and calls lorcurv's
public API through module attributes (``L.curvature_report``), so that a
traced run, which rebinds those attributes, sees every call.
"""

from __future__ import annotations

import subprocess

import numpy as np

import lorcurv as L


def _tag(spec) -> L.FamilyTag:
    kind, c = spec
    return L.FamilyTag(kind, c)


def survey(args):
    tag, basis = _tag(args["tag"]), L.BasisLabel(args["basis"])
    h = L.MetricTensor(np.asarray(args["h"]), basis_label=basis)
    report = L.curvature_report(L.make_family_algebra(tag, basis), h)
    cls, cf = L.constant_curvature_class(tag, h)
    return report, cls, cf


def orbits(args):
    tag, basis = _tag(args["tag"]), L.BasisLabel(args["basis"])
    h = L.MetricTensor(np.asarray(args["h"]), basis_label=basis)
    cf = L.canonical_form(tag, h)
    same = L.equivalent(tag, h, L.MetricTensor(np.asarray(args["h_image"]),
                                               basis_label=basis))
    other = L.equivalent(tag, h, L.MetricTensor(np.asarray(args["h_other"]),
                                                basis_label=basis))
    return cf, same, other


def edge(args):
    """canonical_form and curvature_report on a natural-basis metric.  Each
    stage runs even if the other failed; a stage's exception is its result."""
    tag = _tag(args["tag"])
    h = L.MetricTensor(np.asarray(args["h"]))
    stages = {}
    try:
        stages["canonical"] = L.canonical_form(tag, h)
    except Exception as exc:  # noqa: BLE001 - the outcome is classified later
        stages["canonical"] = exc
    try:
        stages["curvature"] = L.curvature_report(L.make_family_algebra(tag), h)
    except Exception as exc:  # noqa: BLE001
        stages["curvature"] = exc
    return stages


def cli(argv, env):
    """One CLI process; ``argv`` starts with the interpreter."""
    return subprocess.run(argv, capture_output=True, text=True, env=env,
                          timeout=120, check=False)


OPS = {"survey": survey, "orbits": orbits, "edge": edge}
