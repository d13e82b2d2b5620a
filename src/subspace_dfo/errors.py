"""Exception types and the integer check shared across the package."""

import numbers


def _is_int(value: object) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


class InvalidDimensionError(ValueError):
    """A dimension argument is out of range (d < 1, p < 1, p > d, size mismatch)."""


class DomainError(ValueError):
    """A scalar argument lies outside a function's domain."""


class NonFiniteObjectiveError(RuntimeError):
    """An objective evaluation returned NaN or an infinity."""
