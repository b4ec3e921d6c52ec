"""Exception hierarchy shared by all modules.

Two branches: ``ValidationError`` for bad inputs (CLI exit code 2) and
``NumericError`` for routines that ran but failed to reach their accuracy
target (CLI exit code 3).
"""


class LoewnerError(Exception):
    """Base class for all package errors."""


class ValidationError(LoewnerError, ValueError):
    """Arguments or input data violate a documented precondition."""


class HorizonExceededError(ValidationError):
    """Requested time lies beyond the driving family's definition."""


class AtomicPointError(ValidationError):
    """Density evaluation requested exactly at an atom location."""


class NumericError(LoewnerError):
    """A numeric routine failed to reach its target accuracy."""


class NoConvergenceError(NumericError):
    """Newton or fixed-point iteration did not converge."""


class MassDeficitError(NumericError):
    """Stieltjes inversion recovered too little mass (grid misses support)."""


class UnstableFitError(NumericError):
    """Asymptotic moment estimates disagree across probe heights."""


class NotInImageError(NumericError):
    """Inverse-map round trip failed; the point is not in the image of the flow."""


class NotASlitError(NumericError):
    """Not a slit: a welding shot returns to the driver, or the shots reverse beyond tolerance."""
