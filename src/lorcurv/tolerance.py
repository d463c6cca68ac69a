"""Tolerance settings shared across the package."""

from __future__ import annotations

import math
from dataclasses import dataclass

#: smallest accepted tolerance: a band below double-precision rounding of
#: O(1) quantities cannot be met by any residual the package computes
TOL_FLOOR = 1e-16


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical thresholds for residual checks and sign/zero decisions.

    abs_tol controls residual comparisons (e.g. Gram conditions, witness
    congruences).  classification_tol is the wider band used for
    signature, rank and discriminant decisions, where a misread sign would
    change a discrete answer.
    """

    abs_tol: float = 1e-9
    classification_tol: float = 1e-7

    def __post_init__(self) -> None:
        for name in ("abs_tol", "classification_tol"):
            value = getattr(self, name)
            if not TOL_FLOOR <= value < math.inf:      # NaN fails both
                raise ValueError(f"{name} must be finite and at least "
                                 f"{TOL_FLOOR:g}, got {value}")


DEFAULT_TOL = ToleranceConfig()
