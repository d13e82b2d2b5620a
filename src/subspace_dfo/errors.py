"""Exception types and the input checks shared across the package."""

import numbers
from collections.abc import Callable, Iterable


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


def _check_cores(cores: object) -> None:
    """Raise a ``DomainError`` unless the core count ``cores`` is an integer >= 1."""
    if not _is_int(cores) or cores < 1:
        raise DomainError(f"core count must be a positive integer, got {cores!r}")


def _int_list(
    values: object, what: str, check: Callable[[object], None] | None = None
) -> tuple[int, ...]:
    """``values``, any iterable but a string, read once as a tuple of distinct
    positive ints, or a ValueError naming ``what`` that shows a list or tuple
    as given and an iterator as the tuple read from it.  A ``check`` given,
    a rule for one value with its own error, runs on each value first."""
    read = tuple(values) if isinstance(values, Iterable) and not isinstance(values, str) else None
    shown = values if read is None or isinstance(values, (list, tuple)) else read
    if check is not None:
        for value in read or ():
            check(value)
    if read is None or not all(_is_int(v) for v in read):
        raise ValueError(f"{what} must be a list of integers, got {shown!r}")
    if not read:
        raise ValueError(f"{what} must name at least one value, got none")
    if min(read) < 1:
        raise ValueError(f"{what} must be positive, got {read}")
    if len(set(read)) < len(read):
        raise ValueError(f"{what} must not repeat a value, got {shown!r}")
    return tuple(int(v) for v in read)


def _check_nsims(n_sims: object) -> None:
    """Raise unless the replicate count ``n_sims`` is an integer >= 2, the
    fewest that give a standard error."""
    if not _is_int(n_sims):
        raise ValueError(f"n_sims must be an integer, got {n_sims!r}")
    if n_sims < 2:
        raise ValueError(f"n_sims must be at least 2 for a standard error, got {n_sims}")


class InvalidDimensionError(ValueError):
    """A dimension argument is not an integer or is out of range (d < 1, p > d, ...)."""


class DomainError(ValueError):
    """A scalar argument lies outside a function's domain."""


class NonFiniteObjectiveError(RuntimeError):
    """An objective evaluation returned NaN or an infinity."""
