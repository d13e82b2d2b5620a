"""Exception types shared across the package."""


class InvalidDimensionError(ValueError):
    """A dimension argument is out of range (d < 1, p < 1, p > d, size mismatch)."""


class DomainError(ValueError):
    """A scalar argument lies outside a function's domain."""


class NonFiniteObjectiveError(RuntimeError):
    """An objective evaluation returned NaN or an infinity."""
