"""Exception types shared across the package."""


class InvalidDimensionError(ValueError):
    """A dimension argument is out of range (d < 1, p < 1, p > d, size mismatch)."""


class DomainError(ValueError):
    """A scalar argument lies outside a function's domain."""


class UnsupportedSubspaceDimensionError(ValueError):
    """A formula exists only for some subspace dimensions and was asked for another.

    The large-d asymptotic forms cover p in {1, 2} only.
    """


class NonFiniteObjectiveError(RuntimeError):
    """An objective evaluation returned NaN or an infinity."""
