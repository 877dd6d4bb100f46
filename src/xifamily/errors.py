"""Exception types shared across the package."""

__all__ = ["XiFamilyError", "DegenerateDataError", "QuadratureError", "NumericError"]


class XiFamilyError(Exception):
    """Base class for all package-specific errors."""


class DegenerateDataError(XiFamilyError):
    """Data cannot support the requested statistic (constant series, ties
    where none are allowed, too few observations for a variance)."""


class QuadratureError(XiFamilyError):
    """Adaptive quadrature failed to converge within its panel budget.

    Carries ``last_estimate``, the value of the final refinement sweep.
    """

    def __init__(self, message, last_estimate=None):
        super().__init__(message)
        self.last_estimate = last_estimate


class NumericError(XiFamilyError):
    """A numeric result is unusable (non-positive normalization, overflow)."""
