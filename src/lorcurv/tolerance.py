"""Tolerance settings shared across the package."""

from __future__ import annotations

import numbers
import sys
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
            # bools are ints, so they are excluded explicitly; NaN fails both
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not TOL_FLOOR <= value <= sys.float_info.max):
                raise ValueError(f"{name} must be finite and at least "
                                 f"{TOL_FLOOR:g}, got {value!r}")
            object.__setattr__(self, name, float(value))


DEFAULT_TOL = ToleranceConfig()
