"""Numerically stable gamma-function kernels used by the decrease formulas.

Every gamma ratio in the package is evaluated as a difference of log-gamma
values.  Direct quotients of Gamma overflow float64 around d ~ 340, while the
ratios themselves stay of order 1/sqrt(d), so the log route keeps all formulas
finite up to astronomically large dimensions.
"""

from __future__ import annotations

import math
from .errors import InvalidDimensionError, _check_positive, _check_real

SQRT_PI = math.sqrt(math.pi)


def log_gamma(x: float) -> float:
    """Natural logarithm of Gamma(x) for a real x > 0, not a bool; any other x is refused.

    Delegates to CPython's ``math.lgamma``, a Lanczos-series implementation
    with a fixed coefficient set, accurate to a few ulp across the range used
    here (validated against the factorial and half-integer lattice in the test
    suite).
    """
    _check_real(x, "x", "positive")
    return math.lgamma(x)


# Above this dimension the log-gamma difference cancels too many digits to
# keep the two-sided bracket, so the ratio switches to its asymptotic series.
_RATIO_SERIES_THRESHOLD = 10**6


def gamma_half_ratio(d: int) -> float:
    """Gamma(d/2) / Gamma(d/2 + 1/2) via a log-gamma difference.

    The value decays like sqrt(2/d) and stays finite for any representable d.
    For very large d the direct difference of log-gamma values loses the
    leading digits to cancellation, so the log-ratio is evaluated by its
    expansion 1/(4d) - 1/(24 d^3) + O(d^-5) instead (truncation below 1e-30
    at the switch point).  A d beyond the float range is refused, and every
    value is checked against the bracket sqrt(2/d) <= ratio <= sqrt(2(d+2))/d.
    A float with an integer value, such as 1e100, stands for that integer;
    any other non-integer, a bool included, is refused.
    """
    if isinstance(d, float) and d.is_integer():
        d = int(d)
    _check_positive(d, "dimension")
    try:
        x = float(d)
    except OverflowError:
        raise InvalidDimensionError(f"dimension d of {d.bit_length()} bits is too large") from None
    if x >= _RATIO_SERIES_THRESHOLD:
        # x * x * x overflows to inf, and its reciprocal to 0, without an error.
        value = math.sqrt(2.0) / math.sqrt(x) * math.exp(0.25 / x - 1.0 / (24.0 * x * x * x))
    else:
        value = math.exp(log_gamma(d / 2.0) - log_gamma(d / 2.0 + 0.5))
    # Rounding-level slack: at astronomical d the ratio rounds onto sqrt(2/d).
    lower = math.sqrt(2.0) / math.sqrt(x) * (1.0 - 1e-15)
    upper = math.sqrt(2.0) * math.sqrt(x + 2.0) / x * (1.0 + 1e-15)
    if not (0.0 < value and lower <= value <= upper):
        raise ValueError(f"ratio {value!r} violates the bracket ({lower!r}, {upper!r}) for d={d}")
    return value

