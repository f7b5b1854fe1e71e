"""Exception hierarchy shared by all modules.

ValidationError subclasses map to CLI exit code 2, InvariantViolationError
to exit code 3.
"""


class LegendreFlowError(Exception):
    pass


class ValidationError(LegendreFlowError):
    """Bad or inconsistent input data."""


class ConvexityError(ValidationError):
    """The curve is not l-convex: its angle field is not strictly increasing."""


class GridTooCoarseError(ValidationError):
    pass


class NotClosedError(ValidationError):
    """The data would trace an open curve (closure residual too large,
    or a nonzero n-band in the Fourier coefficients)."""


class PointCurveError(ValidationError):
    """beta vanishes identically; the curve degenerates to a point."""


class InconsistentNormalFieldError(ValidationError):
    """Angle unwrap did not land on an integer rotation index."""


class ClassificationError(ValidationError):
    """Invalid self-similar parameters (m = n has no closed profile)."""


class InvariantViolationError(LegendreFlowError):
    """A mathematically guaranteed invariant failed during a verification run."""
