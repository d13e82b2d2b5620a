"""Exception types and the input checks shared across the package: one rule,
with one message per fault that names the input and shows the value, per kind
of input.  An integer is an ``Integral`` (``_check_positive`` and kin), a real
number a finite ``Real`` in its caller's range (``_check_real``), neither a
bool, and a named choice a string among its choices (``_check_choice``)."""

import math
from collections.abc import Callable, Iterable
from numbers import Integral, Real


def _is_int(value: object) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)


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


# The ranges ``_check_real`` takes, each named by the words of its refusal.
_REAL_RANGES: dict[str, Callable[[float], bool]] = {
    "positive": lambda v: v > 0.0,
    "in (0, 1)": lambda v: 0.0 < v < 1.0,
    ">= 1": lambda v: v >= 1.0,
}


def _check_real(value: object, what: str, within: str | None = None) -> None:
    """Raise a ``DomainError`` unless ``value``, the ``what`` of a call, is a finite real
    number, not a bool, in the range of ``_REAL_RANGES`` named ``within``, if any."""
    # A float is tested first: the iterations check two values per call.
    if not isinstance(value, float) and (isinstance(value, bool) or not isinstance(value, Real)):
        raise DomainError(f"{what} must be a real number, got {value!r}")
    if not math.isfinite(value):
        raise DomainError(f"{what} must be finite, got {value!r}")
    if within is not None and not _REAL_RANGES[within](value):
        raise DomainError(f"{what} must be {within}, got {value!r}")


def _check_choice(value: object, choices: Iterable[str], what: str) -> None:
    """Raise a ValueError unless ``value``, the ``what`` of a call, is a string
    in ``choices``; any other value, unhashable or not, gets the same message."""
    if not (isinstance(value, str) and value in choices):
        raise ValueError(f"{what} must be one of {tuple(choices)}, got {value!r}")


def _read_list(
    values: object, what: str, check: Callable | None = None, choices: tuple | None = None
) -> tuple:
    """``values``, any iterable but a string, read once as a tuple of distinct
    positive ints or, given ``choices``, of distinct ``choices`` in their
    order; else a ValueError naming ``what`` that shows a list or tuple as
    given and an iterator as the tuple read from it.  A ``check`` given, a
    rule for one value with its own error, runs on each value first."""
    read = tuple(values) if isinstance(values, Iterable) and not isinstance(values, str) else None
    shown = values if read is None or isinstance(values, (list, tuple)) else read
    for value in read or ():
        if check is not None:
            check(value)
        if choices is not None:
            _check_choice(value, choices, what)
    if read is None or choices is None and not all(_is_int(v) for v in read):
        kind = "names" if choices else "integers"
        raise ValueError(f"{what} must be a list of {kind}, got {shown!r}")
    if not read:
        raise ValueError(f"{what} must name at least one value, got none")
    if choices is None and min(read) < 1:
        raise ValueError(f"{what} must be positive, got {read}")
    if len(set(read)) < len(read):
        raise ValueError(f"{what} must not repeat a value, got {shown!r}")
    return tuple(c for c in choices if c in read) if choices else tuple(map(int, read))


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
