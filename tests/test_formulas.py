"""Formula tests: frozen oracle values, closed-form identities, monotonicity."""

import dataclasses
import functools
import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.chebyshev import Chebyshev
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad

from subspace_dfo import (
    DomainError,
    InvalidDimensionError,
    RngStream,
    Variant,
    expected_decrease_ds,
    expected_decrease_mb,
    formulas,
    gamma_half_ratio,
    per_evaluation_opportunistic,
    polling_factor,
)

SQRT_PI = math.sqrt(math.pi)
SQRT2 = math.sqrt(2.0)
DS, MB = Variant.named("ds"), Variant.named("mb")

# Frozen high-precision references for the nested integral, derived with an
# independent arbitrary-precision nested quadrature.
I2_REF = 0.7071067811865475244
I3_REF = 0.43520987568355159874
I4_REF = 0.24030098317248836428

# Closed forms of the level 3 and 4 decrease-to-dimension-factor constants,
# obtained by symbolic integration of the nested integral.
DS3_CONST = (12.0 * math.atan(SQRT2) + 3.0 * math.atan(460.0 * SQRT2 / 329.0)) / (
    2.0 * SQRT2 * math.pi**1.5
)
DS4_CONST = 12.0 * SQRT2 * math.atan(1.0 / (2.0 * SQRT2)) / math.pi**1.5


def brute_force_i3() -> float:
    """Independent oracle: dense outer quadrature with a closed-form inner integral.

    The inner integral of sin^2 from t to pi/2 is pi/4 - t/2 + sin(2t)/4.
    """
    x, w = leggauss(2000)
    lo, hi = math.pi / 4.0, math.pi / 2.0
    a = (hi + lo) / 2.0 + (hi - lo) / 2.0 * x
    t = np.arctan(1.0 / np.sin(a))
    inner = math.pi / 4.0 - t / 2.0 + np.sin(2.0 * t) / 4.0
    return float((hi - lo) / 2.0 * np.sum(w * np.sin(a) * inner))


def brute_force_i4() -> float:
    """Independent oracle: tensor quadrature with a closed-form innermost integral.

    The innermost integral of sin^3 from t to pi/2 is cos(t) - cos(t)^3 / 3.
    """
    x, w = leggauss(400)
    lo = math.pi / 4.0
    hi = math.pi / 2.0
    a = (hi + lo) / 2.0 + (hi - lo) / 2.0 * x
    wa = (hi - lo) / 2.0 * w
    total = 0.0
    for ai, wi in zip(a, wa):
        b_lo = math.atan(1.0 / math.sin(ai))
        b = (hi + b_lo) / 2.0 + (hi - b_lo) / 2.0 * x
        wb = (hi - b_lo) / 2.0 * w
        t = np.arctan(1.0 / (math.sin(ai) * np.sin(b)))
        innermost = np.cos(t) - np.cos(t) ** 3 / 3.0
        total += wi * math.sin(ai) * float(np.sum(wb * np.sin(b) ** 2 * innermost))
    return total


def rejection_mc_i3(n: int, seed: int) -> tuple[float, float]:
    """Second independent oracle: rejection sampling of the region integrand."""
    gen = RngStream(seed).generator()
    lo, hi = math.pi / 4.0, math.pi / 2.0
    phi = gen.uniform(lo, hi, size=(n, 2))
    inside = phi[:, 1] >= np.arctan(1.0 / np.sin(phi[:, 0]))
    values = np.where(inside, np.sin(phi[:, 0]) * np.sin(phi[:, 1]) ** 2, 0.0)
    area = (hi - lo) ** 2
    return area * float(values.mean()), area * float(values.std(ddof=1) / math.sqrt(n))


# Oracle for polling_factor: the polling p-factor written as the (p-1)-fold
# nested sine-power integral the decrease formula is usually stated with.


class NestedIntegral(NamedTuple):
    value: float
    abs_error: float


def _tail_levels(p: int, n_quad: int, n_cheb: int) -> float:
    """One pass of the nested quadrature at fixed node counts.

    The integral is over angles t_1..t_{p-1} with integrand
    prod_i sin(t_i)^i; t_1 starts at pi/4 and each later t_i starts at
    arctan of the product of cosecants of the outer angles.  Writing c for
    that cosecant product, the tail from level i inward,

        T_i(c) = integral over [arctan c, pi/2] of sin(t)^i * T_{i+1}(c / sin t) dt,

    is a smooth function of the single variable c in [1, sqrt(i)], so each
    tail is represented by a Chebyshev interpolant built from Gauss-Legendre
    panel sums, level by level from the innermost outward.  The result is
    T_1(1).
    """
    x_gl, w_gl = leggauss(n_quad)

    def level_values(cs: np.ndarray, i: int, inner) -> np.ndarray:
        cs = np.atleast_1d(np.asarray(cs, dtype=float))
        lo = np.arctan(cs)
        half = (np.pi / 2.0 - lo) / 2.0
        mid = (np.pi / 2.0 + lo) / 2.0
        phi = mid[:, None] + half[:, None] * x_gl[None, :]
        s = np.sin(phi)
        vals = s**i
        if inner is not None:
            vals = vals * inner(cs[:, None] / s)
        return half * (vals @ w_gl)

    inner = None
    for i in range(p - 1, 1, -1):
        inner = Chebyshev.interpolate(
            (lambda cs, i=i, inner=inner: level_values(cs, i, inner)),
            n_cheb,
            domain=[1.0, math.sqrt(i)],
        )
    return float(level_values(np.array([1.0]), 1, inner)[0])


@functools.lru_cache(maxsize=None)
def nested_sine_integral(p: int, tol: float = 1e-10) -> NestedIntegral:
    """Level-p nested integral (exactly 1 at p = 1), refining node counts until
    two successive passes agree within ``tol``; ``abs_error`` is that last
    difference."""
    if p == 1:
        return NestedIntegral(1.0, 0.0)
    value = _tail_levels(p, 24, 24)
    for n in (48, 96, 192):
        refined = _tail_levels(p, n, n)
        abs_error = abs(refined - value)
        value = refined
        if abs_error <= tol:
            break
    return NestedIntegral(value, abs_error)


def _p_factor(p: int) -> float:
    """Gamma prefactor that turns the level-p nested integral into the polling factor."""
    return (p / 2.0) * (2.0 / SQRT_PI) ** p * math.gamma(p / 2.0 + 0.5)


def quad_polling_factor(p: int) -> float:
    """polling_factor by adaptive quadrature, split at the bulk of the maximum."""

    def tail(x: float) -> float:
        u = x / SQRT2
        log_cdf = math.log(math.erf(u)) if u < 1.0 else math.log1p(-math.erfc(u))
        return -math.expm1(p * log_cdf)

    bulk = math.sqrt(2.0 * math.log(p))
    total = sum(
        quad(tail, lo, hi, epsabs=0.0, epsrel=1.2e-14, limit=200)[0]
        for lo, hi in ((0.0, bulk), (bulk, math.inf))
    )
    return total / SQRT2


class TestNestedSineIntegral:
    def test_level_one_is_exact(self):
        res = nested_sine_integral(1)
        assert res.value == 1.0 and res.abs_error == 0.0

    def test_level_two_closed_form(self):
        assert abs(nested_sine_integral(2).value - 1.0 / SQRT2) <= 1e-10
        assert abs(nested_sine_integral(2).value - I2_REF) < 1e-14

    def test_level_three_against_oracles(self):
        value = nested_sine_integral(3, tol=1e-12).value
        assert value == pytest.approx(I3_REF, abs=1e-12)
        assert value == pytest.approx(brute_force_i3(), abs=1e-10)
        mc, se = rejection_mc_i3(1_000_000, seed=2)
        assert abs(value - mc) <= 4.0 * se

    def test_level_four_against_oracles(self):
        value = nested_sine_integral(4, tol=1e-12).value
        assert value == pytest.approx(I4_REF, abs=1e-12)
        assert value == pytest.approx(brute_force_i4(), abs=1e-9)

    def test_reported_error_is_honest(self):
        for p in range(2, 9):
            res = nested_sine_integral(p, tol=1e-10)
            assert res.abs_error <= 1e-10

    def test_contraction_across_levels(self):
        # Each extra level shrinks the integral by more than sqrt(2p/pi).
        for p in range(1, 8):
            upper = (SQRT_PI / (SQRT2 * math.sqrt(p))) * nested_sine_integral(p).value
            assert nested_sine_integral(p + 1).value < upper


class TestPollingFactor:
    def test_matches_nested_quadrature_oracle(self):
        for p in range(2, 9):
            oracle = _p_factor(p) * nested_sine_integral(p, tol=1e-12).value
            assert polling_factor(p) == pytest.approx(oracle, rel=1e-14, abs=0.0), p

    def test_matches_symbolic_constants(self):
        assert polling_factor(3) == pytest.approx(DS3_CONST, rel=1e-14, abs=0.0)
        assert polling_factor(4) == pytest.approx(DS4_CONST, rel=1e-14, abs=0.0)

    def test_closed_forms_at_p1_p2(self):
        assert polling_factor(1) == pytest.approx(math.sqrt(1.0 / math.pi), rel=1e-14, abs=0.0)
        assert polling_factor(2) == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("p", [10, 10**3, 10**6, 10**15, 10**100])
    def test_matches_adaptive_quadrature(self, p):
        assert polling_factor(p) == pytest.approx(quad_polling_factor(p), rel=1e-13, abs=0.0)

    def test_no_depth_cap(self):
        # E[max_{i<=p} |z_i|] <= sqrt(2 ln(2p)), and the mean maximum grows with p.
        values = [polling_factor(p) for p in (8, 9, 100, 1000)]
        assert all(a < b for a, b in zip(values, values[1:]))
        for p, value in zip((8, 9, 100, 1000), values):
            assert value <= math.sqrt(math.log(2.0 * p))

    def test_invalid_level(self):
        # A non-integer is refused even where it equals a cached level.
        assert polling_factor(1) < polling_factor(2)
        for p in (0, 2.5, True, 2.0, "3"):
            with pytest.raises(InvalidDimensionError):
                polling_factor(p)


class TestPollingDecrease:
    def test_degenerate_problem(self):
        assert expected_decrease_ds(1, 1) == 1.0

    def test_p1_closed_form(self):
        for d in (2, 8, 100):
            expected = gamma_half_ratio(d) / SQRT_PI
            assert expected_decrease_ds(1, d) == pytest.approx(expected, rel=1e-14)

    def test_p2_example(self):
        assert expected_decrease_ds(2, 4) == pytest.approx(
            4.0 * SQRT2 / (3.0 * math.pi), rel=1e-12
        )

    def test_p2_closed_form_matches_general_expression_at_d2(self):
        # The general expression evaluated at p = 2 must agree with the closed
        # form even at the boundary d = 2.
        general = (
            1.0
            * (2.0 / SQRT_PI) ** 2
            * math.gamma(1.5)
            * gamma_half_ratio(2)
            * nested_sine_integral(2).value
        )
        assert expected_decrease_ds(2, 2) == pytest.approx(general, rel=1e-13)

    def test_general_prefactor_reproduces_closed_forms(self):
        # Evaluating the full product at p = 1 and p = 2 cross-checks the
        # prefactor grouping against the dedicated closed forms.
        for d in (3, 10, 1000):
            ratio = gamma_half_ratio(d)
            for p, integral in ((1, 1.0), (2, 1.0 / SQRT2)):
                raw = (
                    (p / 2.0)
                    * (2.0 / SQRT_PI) ** p
                    * math.gamma(p / 2.0 + 0.5)
                    * ratio
                    * integral
                )
                fn = expected_decrease_ds(p, d)
                assert fn == pytest.approx(raw, rel=1e-13)

    def test_constant_ratios_p3_p4(self):
        for d in (3, 10, 100, 1000):
            ratio = expected_decrease_ds(3, d) / gamma_half_ratio(d)
            assert ratio == pytest.approx(DS3_CONST, rel=1e-11)
            assert abs(ratio - 0.938) <= 1e-3
        for d in (4, 10, 100, 1000):
            ratio = expected_decrease_ds(4, d) / gamma_half_ratio(d)
            assert ratio == pytest.approx(DS4_CONST, rel=1e-11)
            assert abs(ratio - 1.036) <= 1e-3

    def test_any_p_and_dimension_errors(self):
        ratio = gamma_half_ratio(1000)
        for p in (9, 100, 1000):
            assert expected_decrease_ds(p, 1000) == ratio * polling_factor(p)
        with pytest.raises(InvalidDimensionError):
            expected_decrease_ds(5, 4)


class TestModelDecrease:
    def test_full_dimension_is_exactly_one(self):
        for d in (1, 2, 7, 64, 1024, 2048):
            assert expected_decrease_mb(d, d) == 1.0

    def test_rational_example(self):
        assert expected_decrease_mb(2, 4) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_circle_example(self):
        # One-dimensional poll on the circle: mean |cos| over the angle is 2/pi.
        theta = np.linspace(0.0, 2.0 * math.pi, 2_000_001)
        oracle = float(np.trapezoid(np.abs(np.cos(theta)), theta)) / (2.0 * math.pi)
        assert expected_decrease_mb(1, 2) == pytest.approx(oracle, abs=1e-9)
        assert expected_decrease_mb(1, 2) == pytest.approx(2.0 / math.pi, rel=1e-13)

    def test_increasing_in_p(self):
        d = 64
        values = [expected_decrease_mb(p, d) for p in range(1, d + 1)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_matches_polling_at_p1_and_dominates(self):
        for d in (2, 3, 8, 100):
            assert expected_decrease_mb(1, d) == pytest.approx(
                expected_decrease_ds(1, d), rel=1e-14
            )
            for p in range(2, d + 1):
                assert expected_decrease_mb(p, d) > expected_decrease_ds(p, d)


class TestPerEvaluation:
    @given(st.integers(min_value=3, max_value=4000))
    @settings(max_examples=60, deadline=None)
    def test_ratio_identities(self, d):
        assert DS.per_work(2, d, 1) / DS.per_work(1, d, 1) == pytest.approx(
            SQRT2 / 2.0, rel=1e-12
        )
        assert MB.per_work(2, d, 1) / MB.per_work(1, d, 1) == pytest.approx(
            math.pi / 4.0, rel=1e-12
        )
        assert expected_decrease_mb(2, d) / expected_decrease_mb(3, d) == (
            pytest.approx(math.pi / 4.0, rel=1e-12)
        )

    def test_complete_definition(self):
        assert DS.per_work(1, 8, 1) == pytest.approx(
            expected_decrease_ds(1, 8) / 2.0, rel=1e-14
        )

    def test_opportunistic_beats_complete_p1(self):
        for d in (2, 100, 1024):
            opp = per_evaluation_opportunistic(1, d)
            assert opp == pytest.approx(
                (2.0 / (3.0 * SQRT_PI)) * gamma_half_ratio(d), rel=1e-13
            )
            assert opp > DS.per_work(1, d, 1)
            if d >= 5:
                # Independent of p by construction.
                assert per_evaluation_opportunistic(5, d) == (
                    pytest.approx(opp, rel=1e-13)
                )

    def test_model_p1_cost(self):
        assert MB.per_work(1, 1, 1) == pytest.approx(2.0 / 3.0, rel=1e-14)
        assert MB.per_work(3, 8, 1) == pytest.approx(
            expected_decrease_mb(3, 8) / 4.0, rel=1e-14
        )

    def test_strict_monotonicity(self):
        for d in (16, 200):
            ds_seq = [DS.per_work(p, d, 1) for p in range(1, d)]
            assert all(a > b for a, b in zip(ds_seq, ds_seq[1:]))
            mb_seq = [MB.per_work(p, d, 1) for p in range(1, d)]
            assert all(a > b for a, b in zip(mb_seq, mb_seq[1:]))


class TestParallelPerWork:
    def test_single_core_matches_per_evaluation(self):
        for p, d in ((1, 4), (3, 10), (8, 64)):
            assert DS.per_work(p, d, 1) == pytest.approx(
                DS.per_work(p, d, 1), rel=1e-14
            )

    def test_model_tie_at_two_cores(self):
        for d in (4, 16, 128):
            v2 = MB.per_work(2, d, 2)
            v4 = MB.per_work(4, d, 2)
            assert abs(v2 - v4) <= 1e-12
            assert v2 == pytest.approx(
                (SQRT_PI / 4.0) * gamma_half_ratio(d), rel=1e-13
            )

    def test_round_counts(self):
        assert DS.rounds(4, 4) == 2
        assert DS.rounds(4, 8) == 1
        assert DS.rounds(5, 4) == 3
        assert MB.rounds(4, 4) == 2
        assert MB.rounds(9, 4) == 4
        assert MB.rounds(1, 1) == 1.5
        assert MB.rounds(1, 8) == 1.5

    def test_invalid_cores(self):
        for cores in (0, 2.5, True):
            with pytest.raises(DomainError, match="core count must be a positive integer"):
                DS.per_work(2, 10, cores)
        for p in (0, 2.0, True):
            with pytest.raises(InvalidDimensionError):
                MB.rounds(p, 1)


class TestAsymptotics:
    def test_reference_point(self):
        value = DS.asymptotic(1, 10**4)
        assert value == pytest.approx(SQRT2 / (SQRT_PI * 100.0), rel=1e-14)
        assert value == pytest.approx(0.007979, abs=1e-6)
        exact = expected_decrease_ds(1, 10**4)
        assert abs(value - exact) / exact < 1e-4

    def test_forms(self):
        d = 400
        assert DS.asymptotic(2, d) == pytest.approx(
            2.0 / (SQRT_PI * 20.0), rel=1e-14
        )
        assert MB.asymptotic(1, d) == pytest.approx(
            SQRT2 / (SQRT_PI * 20.0), rel=1e-14
        )
        assert MB.asymptotic(2, d) == pytest.approx(
            SQRT_PI / (SQRT2 * 20.0), rel=1e-14
        )

    def test_one_percent_agreement_for_large_d(self):
        for variant in ("ds", "mb"):
            exact_fn = expected_decrease_ds if variant == "ds" else expected_decrease_mb
            for d in (100, 256, 1024):
                for p in (1, 2, 3, 10, d // 2, d):
                    exact = exact_fn(p, d)
                    asym = Variant.named(variant).asymptotic(p, d)
                    assert abs(asym - exact) / exact < 0.01

    def test_level_three(self):
        # sqrt(2/d) times the p-factor: the p = 3 closed form for polling,
        # 1/gamma_half_ratio(3) = 2/sqrt(pi) for the model step.
        assert DS.asymptotic(3, 100) == pytest.approx(
            DS3_CONST * SQRT2 / 10.0, rel=1e-14
        )
        assert MB.asymptotic(3, 100) == pytest.approx(
            2.0 * SQRT2 / (SQRT_PI * 10.0), rel=1e-14
        )


class TestStructuralInvariants:
    @given(
        st.integers(min_value=1, max_value=2048),
        st.integers(min_value=1, max_value=2048),
        st.integers(min_value=0, max_value=2040),
        st.integers(min_value=0, max_value=2040),
    )
    @settings(max_examples=100, deadline=None)
    def test_separability_cross_ratio(self, p1, p2, e1, e2):
        low = max(p1, p2)
        d1, d2 = low + e1, low + e2
        for fn in (expected_decrease_ds, expected_decrease_mb):
            cross = (fn(p1, d1) * fn(p2, d2)) / (
                fn(p1, d2) * fn(p2, d1)
            )
            assert abs(cross - 1.0) <= 1e-10

    @given(st.integers(min_value=1, max_value=2048), st.integers(min_value=0, max_value=3000))
    @settings(max_examples=100, deadline=None)
    def test_values_lie_in_unit_interval(self, p, extra):
        d = p + extra
        for value in (
            expected_decrease_ds(p, d),
            expected_decrease_mb(p, d),
            DS.per_work(p, d, 1),
            MB.per_work(p, d, 1),
            DS.asymptotic(p, d),
            MB.asymptotic(p, d),
            per_evaluation_opportunistic(p, d),
        ):
            assert isinstance(value, float) and 0.0 < value <= 1.0

    def test_out_of_range_values_are_refused(self, monkeypatch):
        # A dimension factor of d instead of about sqrt(2/d) puts every exact
        # decrease at d = 4 above 1, and a p-factor of 2 the asymptotic one.
        monkeypatch.setattr(formulas, "gamma_half_ratio", float)
        inflated = dataclasses.replace(DS, p_factor=lambda p: 2.0)
        for call in (
            lambda: expected_decrease_ds(1, 4),
            lambda: expected_decrease_ds(2, 4),
            lambda: expected_decrease_ds(3, 4),
            lambda: expected_decrease_mb(1, 4),
            lambda: per_evaluation_opportunistic(1, 4),
            lambda: inflated.asymptotic(1, 1),
        ):
            with pytest.raises(ValueError, match=r"must lie in \(0, 1\], got"):
                call()

    def test_dimension_checks_guard_every_entry(self):
        for call in (
            lambda: expected_decrease_ds(5, 4),
            lambda: expected_decrease_mb(0, 4),
            lambda: per_evaluation_opportunistic(3, 2),
            lambda: DS.per_work(5, 4, 1),
            lambda: MB.asymptotic(5, 4),
            lambda: DS.asymptotic(1, 0),
            lambda: DS.exact(2.5, 10),
            lambda: DS.exact(True, 5),
            lambda: MB.exact(3, 3.0),
            lambda: MB.asymptotic(2, 8.0),
            lambda: per_evaluation_opportunistic(1, "4"),
        ):
            with pytest.raises(InvalidDimensionError, match="need 1 <= p <= d"):
                call()
