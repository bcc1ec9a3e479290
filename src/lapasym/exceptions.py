"""Exception types shared across the package."""


class DomainError(ValueError):
    """Argument outside the domain an operation is defined on."""


class SingularityError(ArithmeticError):
    """A summand denominator vanished (or underflowed) at a lattice point."""

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class ConvergenceError(RuntimeError):
    """Adaptive refinement hit its subdivision or evaluation limit before the tolerance.

    The best available estimate is attached as ``partial``.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class FitError(RuntimeError):
    """Least-squares system was rank deficient or otherwise unusable."""


class ConsistencyError(RuntimeError):
    """An internal invariant failed; indicates an implementation bug."""
