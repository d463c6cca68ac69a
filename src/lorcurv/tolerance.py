"""The package's one tolerance."""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass

#: smallest accepted tolerance: a band below double-precision rounding of
#: O(1) quantities cannot be met by any residual the package computes
TOL_FLOOR = 1e-16


@dataclass(frozen=True)
class ToleranceConfig:
    """The relative band of every zero, sign and residual decision.

    Each band is classification_tol times the unit of what it tests: the
    largest entry of the matrix, the squared frame brackets, or 1 for a
    dimensionless residual such as a frame's Gram residual.
    """

    classification_tol: float = 1e-7

    def __post_init__(self) -> None:
        value = self.classification_tol
        # bools are ints, so they are excluded explicitly; NaN fails both
        if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                or not TOL_FLOOR <= value <= sys.float_info.max):
            raise ValueError(f"classification_tol must be finite and at least "
                             f"{TOL_FLOOR:g}, got {value!r}")
        object.__setattr__(self, "classification_tol", float(value))


DEFAULT_TOL = ToleranceConfig()
