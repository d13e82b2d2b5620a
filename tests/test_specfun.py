"""Gamma-kernel tests against the factorial and half-integer lattice."""

import math
import re

import pytest

from subspace_dfo import (
    DomainError,
    InvalidDimensionError,
    gamma_half_ratio,
    log_gamma,
    specfun,
)

SQRT_PI = math.sqrt(math.pi)


class TestLogGamma:
    def test_lattice_integers(self):
        # Gamma(n) = (n-1)!
        fact = 1.0
        for n in range(2, 25):
            fact *= n - 1
            assert log_gamma(n) == pytest.approx(math.log(fact), rel=1e-14)

    def test_lattice_half_integers(self):
        # Gamma(1/2) = sqrt(pi), then the recurrence climbs the half lattice.
        value = SQRT_PI
        x = 0.5
        for _ in range(30):
            assert log_gamma(x) == pytest.approx(math.log(value), rel=1e-13, abs=1e-13)
            value *= x
            x += 1.0

    def test_reference_decimals(self):
        assert log_gamma(1.0) == 0.0
        assert log_gamma(0.5) == pytest.approx(0.5723649429, abs=1e-9)
        assert log_gamma(6.0) == pytest.approx(4.7874917428, abs=1e-9)

    def test_large_argument_relative_accuracy(self):
        # Stirling reference: ln Gamma(x) = (x-1/2) ln x - x + ln(2 pi)/2 + 1/(12x) - ...
        for x in (1e3, 1e4, 1e6):
            stirling = (
                (x - 0.5) * math.log(x)
                - x
                + 0.5 * math.log(2.0 * math.pi)
                + 1.0 / (12.0 * x)
                - 1.0 / (360.0 * x**3)
            )
            assert log_gamma(x) == pytest.approx(stirling, rel=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, math.nan])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            log_gamma(bad)


class TestGammaHalfRatio:
    def test_closed_forms(self):
        assert gamma_half_ratio(1) == pytest.approx(SQRT_PI, rel=1e-14)
        assert gamma_half_ratio(2) == pytest.approx(2.0 / SQRT_PI, rel=1e-14)
        assert gamma_half_ratio(4) == pytest.approx(4.0 / (3.0 * SQRT_PI), rel=1e-14)
        assert gamma_half_ratio(1) == pytest.approx(1.7724538509, abs=1e-9)
        assert gamma_half_ratio(2) == pytest.approx(1.1283791671, abs=1e-9)
        assert gamma_half_ratio(4) == pytest.approx(0.7522527781, abs=1e-9)

    def test_recurrence(self):
        # r(d+2) = (d/(d+1)) r(d) follows from Gamma(x+1) = x Gamma(x).
        for d in (1, 2, 3, 10, 101, 1000):
            lhs = gamma_half_ratio(d + 2)
            rhs = gamma_half_ratio(d) * d / (d + 1.0)
            assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_no_overflow_huge_dimension(self):
        r = gamma_half_ratio(10**9)
        assert math.isfinite(r)
        assert r == pytest.approx(math.sqrt(2.0 / 10**9), rel=1e-4)

    @pytest.mark.parametrize(
        "d", [10**100, 1e100, 10**200, 1e200], ids=["int1e100", "1e100", "int1e200", "1e200"]
    )
    def test_astronomical_dimension(self, d):
        # The ratio rounds onto its lower bracket sqrt(2/d) here.
        r = gamma_half_ratio(d)
        assert r == pytest.approx(math.sqrt(2.0) / math.sqrt(float(d)), rel=1e-15)

    def test_dimension_beyond_float_range(self):
        with pytest.raises(InvalidDimensionError, match="dimension d"):
            gamma_half_ratio(10**400)

    def test_limit_scaling(self):
        d = 10**6
        assert abs(gamma_half_ratio(d) * math.sqrt(d) - math.sqrt(2.0)) < 1e-5

    def test_sandwich_bounds(self):
        for d in range(1, 10_001):
            value = gamma_half_ratio(d)
            assert math.sqrt(2.0) / math.sqrt(d) < value
            assert value < math.sqrt(2.0) * math.sqrt(d + 2.0) / d

    def test_invalid_dimension(self):
        with pytest.raises(InvalidDimensionError):
            gamma_half_ratio(0)

    @pytest.mark.parametrize("d", [2.5, True, False, math.nan, math.inf, "3"])
    def test_non_integer_dimension_is_named(self, d):
        message = f"dimension must be a positive integer, got {d!r}"
        with pytest.raises(InvalidDimensionError, match=re.escape(message)):
            gamma_half_ratio(d)

    def test_ratio_rejects_out_of_bracket(self, monkeypatch):
        # A log-gamma kernel that returns 0 makes the ratio exp(0) = 1, far
        # above the upper bracket sqrt(2(d+2))/d.
        monkeypatch.setattr(specfun, "log_gamma", lambda x: 0.0)
        for d in (4, 100, 10**5):
            with pytest.raises(ValueError, match=f"violates the bracket .* for d={d}"):
                gamma_half_ratio(d)

