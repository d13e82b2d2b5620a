"""Exception types and the dimension checks shared across the package."""

import numbers


def _is_int(value: object) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_positive(value: object, what: str) -> None:
    """Raise unless ``value``, the ``what`` of a call, is an integer >= 1."""
    if not _is_int(value) or value < 1:
        raise InvalidDimensionError(f"{what} must be a positive integer, got {value!r}")


def _check_pd(p: object, d: object) -> None:
    """Raise unless the dimensions p and d are integers with 1 <= p <= d."""
    if not (_is_int(p) and _is_int(d) and 1 <= p <= d):
        raise InvalidDimensionError(f"need 1 <= p <= d, got p={p!r}, d={d!r}")


class InvalidDimensionError(ValueError):
    """A dimension argument is not an integer or is out of range (d < 1, p > d, ...)."""


class DomainError(ValueError):
    """A scalar argument lies outside a function's domain."""


class NonFiniteObjectiveError(RuntimeError):
    """An objective evaluation returned NaN or an infinity."""
