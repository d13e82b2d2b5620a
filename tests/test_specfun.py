"""Gamma-kernel tests against the factorial and half-integer lattice."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subspace_dfo import (
    DomainError,
    GammaRatio,
    InvalidDimensionError,
    gamma_half_ratio,
    kershaw_bounds,
    log_gamma,
    sin_power_integral,
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
        assert gamma_half_ratio(1).value == pytest.approx(SQRT_PI, rel=1e-14)
        assert gamma_half_ratio(2).value == pytest.approx(2.0 / SQRT_PI, rel=1e-14)
        assert gamma_half_ratio(4).value == pytest.approx(4.0 / (3.0 * SQRT_PI), rel=1e-14)
        assert gamma_half_ratio(1).value == pytest.approx(1.7724538509, abs=1e-9)
        assert gamma_half_ratio(2).value == pytest.approx(1.1283791671, abs=1e-9)
        assert gamma_half_ratio(4).value == pytest.approx(0.7522527781, abs=1e-9)

    def test_recurrence(self):
        # r(d+2) = (d/(d+1)) r(d) follows from Gamma(x+1) = x Gamma(x).
        for d in (1, 2, 3, 10, 101, 1000):
            lhs = gamma_half_ratio(d + 2).value
            rhs = gamma_half_ratio(d).value * d / (d + 1.0)
            assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_no_overflow_huge_dimension(self):
        r = gamma_half_ratio(10**9)
        assert math.isfinite(r.value)
        assert r.value == pytest.approx(math.sqrt(2.0 / 10**9), rel=1e-4)

    @pytest.mark.parametrize(
        "d", [10**100, 1e100, 10**200, 1e200], ids=["int1e100", "1e100", "int1e200", "1e200"]
    )
    def test_astronomical_dimension(self, d):
        # The ratio rounds onto its lower bracket sqrt(2/d) here.
        r = gamma_half_ratio(d)
        assert r.value == pytest.approx(math.sqrt(2.0) / math.sqrt(float(d)), rel=1e-15)

    def test_dimension_beyond_float_range(self):
        with pytest.raises(InvalidDimensionError, match="dimension d"):
            gamma_half_ratio(10**400)

    def test_limit_scaling(self):
        d = 10**6
        assert abs(gamma_half_ratio(d).value * math.sqrt(d) - math.sqrt(2.0)) < 1e-5

    def test_sandwich_bounds(self):
        for d in range(1, 10_001):
            value = gamma_half_ratio(d).value
            assert math.sqrt(2.0) / math.sqrt(d) < value
            assert value < math.sqrt(2.0) * math.sqrt(d + 2.0) / d

    def test_invalid_dimension(self):
        with pytest.raises(InvalidDimensionError):
            gamma_half_ratio(0)

    def test_ratio_type_rejects_out_of_bracket(self):
        with pytest.raises(ValueError):
            GammaRatio(d=4, value=2.0)


class TestSinPowerIntegral:
    def test_small_cases(self):
        assert sin_power_integral(0) == pytest.approx(math.pi / 2.0, rel=1e-14)
        assert sin_power_integral(1) == pytest.approx(1.0, rel=1e-14)
        assert sin_power_integral(2) == pytest.approx(math.pi / 4.0, rel=1e-14)

    def test_quadrature_oracle(self):
        # Dense trapezoid over [0, pi/2] as an independent check.
        t = np.linspace(0.0, math.pi / 2.0, 200_001)
        for m in (2, 3, 7, 10):
            brute = float(np.trapezoid(np.sin(t) ** m, t))
            assert sin_power_integral(m) == pytest.approx(brute, abs=1e-9)

    @given(st.integers(min_value=1, max_value=100_000))
    @settings(max_examples=80, deadline=None)
    def test_wallis_pairing(self, m):
        product = sin_power_integral(m) * sin_power_integral(m - 1)
        assert product == pytest.approx(math.pi / (2.0 * m), rel=1e-12)

    def test_negative_exponent(self):
        with pytest.raises(DomainError):
            sin_power_integral(-1)


class TestKershawBounds:
    @staticmethod
    def gamma_quotient(x, s):
        return math.exp(log_gamma(x + 1.0) - log_gamma(x + s))

    def test_reference_points(self):
        lower, upper = kershaw_bounds(1.0, 0.5)
        assert lower == pytest.approx(math.sqrt(1.25), rel=1e-14)
        q = self.gamma_quotient(1.0, 0.5)
        assert q == pytest.approx(2.0 / SQRT_PI, rel=1e-13)
        assert lower < q < upper

        q = self.gamma_quotient(10.0, 0.5)
        lower, upper = kershaw_bounds(10.0, 0.5)
        assert lower < q < upper

        q = self.gamma_quotient(0.5, 0.5)
        assert q == pytest.approx(SQRT_PI / 2.0, rel=1e-13)
        lower, upper = kershaw_bounds(0.5, 0.5)
        assert lower < q < upper

    @given(
        st.floats(min_value=1e-3, max_value=1e3),
        st.floats(min_value=0.01, max_value=0.99),
    )
    @settings(max_examples=300, deadline=None)
    def test_bracket_always_holds(self, x, s):
        lower, upper = kershaw_bounds(x, s)
        q = self.gamma_quotient(x, s)
        assert lower < q < upper

    @pytest.mark.parametrize("x,s", [(0.0, 0.5), (-1.0, 0.5), (1.0, 0.0), (1.0, 1.0), (1.0, 1.5)])
    def test_domain(self, x, s):
        with pytest.raises(DomainError):
            kershaw_bounds(x, s)
