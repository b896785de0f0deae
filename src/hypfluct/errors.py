"""Exception types shared across the package."""


class DomainError(ValueError):
    """An input lies outside the mathematical domain of an operation."""


class UnsupportedDimensionError(DomainError):
    """The operation is not defined for the requested dimension."""


class QuadratureError(RuntimeError):
    """A quadrature rule failed to reach the requested tolerance.

    Attributes
    ----------
    achieved : float
        The error estimate actually reached before giving up.
    """

    def __init__(self, message, achieved=float("nan")):
        super().__init__(message)
        self.achieved = achieved
