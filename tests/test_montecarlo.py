"""Estimator tests: determinism, unbiasedness against closed forms, pairing."""

import json
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subspace_dfo import (
    DomainError,
    InvalidDimensionError,
    RngStream,
    estimate,
    estimates,
    expected_decrease_ds,
    expected_decrease_mb,
    gamma_half_ratio,
    VARIANTS,
    Variant,
    paired_ratio_gap,
    replicate_decreases,
    split_stream,
)
from subspace_dfo import montecarlo
from subspace_dfo.cli import main
from subspace_dfo.experiments import D_VARY_P, P_LIST_VARY_P
from subspace_dfo.montecarlo import (
    _BLOCK,
    _full_basis_replicates,
    _polling_scores,
    _replicates,
    full_basis_estimates,
)

SQRT_PI = math.sqrt(math.pi)


class TestCostModel:
    def test_values(self):
        # On one core the rounds of an iteration are its new evaluations.
        assert Variant.named("ds").rounds(1, 1) == 2.0
        assert Variant.named("ds").rounds(7, 1) == 14.0
        assert Variant.named("mb").rounds(1, 1) == 1.5
        assert Variant.named("mb").rounds(3, 1) == 4.0

    def test_rejects_unknown_variant(self):
        with pytest.raises(ValueError):
            Variant.named("xx").rounds(1, 1)


class TestReplicates:
    @given(
        st.sampled_from(["ds", "mb"]),
        st.integers(min_value=1, max_value=24),
        st.lists(st.integers(min_value=1, max_value=24), min_size=1, max_size=4),
        st.integers(min_value=0, max_value=24),
        st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=40, deadline=None)
    def test_values_lie_in_unit_interval(self, variant, p, cuts, extra, seed):
        # One cut point, then a set of them scored on common draws.
        d = max(p, *cuts) + extra
        values = replicate_decreases(variant, p, d, 500, RngStream(seed))
        assert np.all(values >= 0.0) and np.all(values <= 1.0)
        rows = _replicates(variant, [(cut, d) for cut in cuts], 500, RngStream(seed))
        assert len(rows) == len(cuts)
        for cut, row in zip(cuts, rows):
            assert np.all(row >= 0.0) and np.all(row <= 1.0), cut

    def test_full_dimension_model_values_are_exactly_one(self):
        values = replicate_decreases("mb", 17, 17, 2000, RngStream(1))
        assert np.all(values == 1.0)

    def test_one_dimensional_problem_is_exactly_one(self):
        values = replicate_decreases("ds", 1, 1, 100, RngStream(2))
        assert np.all(values == 1.0)

    def test_full_basis_values_in_range(self):
        for variant in ("ds", "mb"):
            values = replicate_decreases(variant, 3, 9, 800, RngStream(3), "full-basis")
            assert np.all(values > 0.0) and np.all(values <= 1.0)

    def test_invalid_cells(self):
        for variant, p, d in (("ds", 5, 4), ("ds", 2.5, 10), ("mb", 2.5, 10), ("mb", 3, 3.0)):
            with pytest.raises(InvalidDimensionError, match="need 1 <= p <= d"):
                replicate_decreases(variant, p, d, 10, RngStream(0))
            with pytest.raises(InvalidDimensionError, match="need 1 <= p <= d"):
                estimate(variant, p, d, 100, RngStream(0))
        with pytest.raises(ValueError):
            replicate_decreases("ds", 1, 4, 0, RngStream(0))
        with pytest.raises(ValueError):
            replicate_decreases("ds", 1, 4, 10, RngStream(0), "bogus")

    @pytest.mark.parametrize("n_sims", [100.0, True, "3"])
    def test_non_integer_replicate_count_is_named(self, n_sims):
        message = f"n_sims must be an integer, got {n_sims!r}"
        with pytest.raises(ValueError, match=message):
            estimate("ds", 2, 10, n_sims, RngStream(0))
        with pytest.raises(ValueError, match=message):
            replicate_decreases("mb", 2, 10, n_sims, RngStream(0))
        with pytest.raises(ValueError, match=message):
            paired_ratio_gap("ds", 1, 2, 10, 1.0, n_sims, RngStream(0))

    def test_zero_replicates_keep_their_message(self):
        message = "n_sims must be at least 2 for a standard error, got 0"
        with pytest.raises(ValueError, match=message):
            estimate("ds", 2, 10, 0, RngStream(0))


class TestEstimate:
    def test_bitwise_deterministic(self):
        a = estimate("ds", 3, 20, 5000, RngStream(9))
        b = estimate("ds", 3, 20, 5000, RngStream(9))
        assert a == b

    def test_block_boundaries_do_not_matter_for_reruns(self):
        # n above and below the block size both reproduce exactly.
        for n in (100, 4096, 5000, 9001):
            assert estimate("mb", 2, 8, n, RngStream(4)) == estimate(
                "mb", 2, 8, n, RngStream(4)
            )

    def test_block_parallel_reduction_equivalence(self):
        # Computing blocks independently (as parallel workers would, each with
        # its own child stream) and concatenating them in block order
        # reproduces the serial replicate array bit for bit.
        # Each block draws its p head coordinates, then one chi-square tail
        # with d - p degrees of freedom per replicate.  At p = 700 the package
        # draws each head in several row chunks; the one-shot head here is
        # the oracle.
        n = 10_000
        rng = RngStream(21)
        for p, d in ((2, 6), (700, 1024)):
            serial = replicate_decreases("ds", p, d, n, rng)
            blocks = []
            for j, start in enumerate(range(0, n, 4096)):
                m = min(4096, n - start)
                gen = split_stream(rng, j).generator()
                head = gen.standard_normal((m, p))
                tail = 2.0 * gen.standard_gamma((d - p) / 2.0, m)
                norm = np.sqrt(np.einsum("ij,ij->i", head, head) + tail)
                blocks.append(np.max(np.abs(head), axis=1) / norm)
            assert np.array_equal(serial, np.concatenate(blocks)), (p, d)

    def test_model_block_parallel_reduction_equivalence(self):
        # The model score reads two squared norms: each block draws one
        # chi-square piece for the first p coordinates, then one for the
        # d - p beyond, from its own child stream.
        p, d, n = 3, 40, 10_000
        rng = RngStream(22)
        serial = replicate_decreases("mb", p, d, n, rng)
        blocks = []
        for j, start in enumerate(range(0, n, 4096)):
            m = min(4096, n - start)
            gen = split_stream(rng, j).generator()
            head_sq = 2.0 * gen.standard_gamma(p / 2.0, m)
            tail = 2.0 * gen.standard_gamma((d - p) / 2.0, m)
            blocks.append(np.sqrt(head_sq / (head_sq + tail)))
        assert np.array_equal(serial, np.concatenate(blocks))

    def test_circle_closed_form(self):
        # Polling one direction on the circle has mean decrease 2/pi.
        est = estimate("ds", 1, 2, 1_000_000, RngStream(0))
        assert abs(est.mean - 2.0 / math.pi) <= 3.0 * est.std_error

    def test_p2_closed_form_high_dimension(self):
        est = estimate("ds", 2, 100, 10_000, RngStream(0))
        exact = (math.sqrt(2.0) / SQRT_PI) * gamma_half_ratio(100)
        assert abs(est.mean - exact) <= 3.0 * est.std_error

    def test_full_dimension_model_estimate(self):
        est = estimate("mb", 12, 12, 5000, RngStream(5))
        assert est.mean == 1.0 and est.std_error == 0.0

    def test_full_basis_matches_closed_form(self):
        est = estimate("mb", 4, 16, 10_000, RngStream(6), "full-basis")
        exact = expected_decrease_mb(4, 16)
        assert abs(est.mean - exact) <= 3.0 * est.std_error

    def test_consistency_with_quadrature_formulas(self):
        # The formulas, closed form and quadrature alike, and the sampler must
        # agree on both variants.
        base = RngStream(31)
        cell = 0
        for variant, formula in (("ds", expected_decrease_ds), ("mb", expected_decrease_mb)):
            for p in range(1, 9):
                est = estimate(variant, p, 16, 10_000, split_stream(base, cell))
                cell += 1
                exact = formula(p, 16)
                assert abs(est.mean - exact) <= 3.0 * est.std_error, (variant, p)

    def test_mode_equivalence(self):
        base = RngStream(77)
        for i, variant in enumerate(("ds", "mb")):
            full = estimate(variant, 4, 16, 10_000, split_stream(base, 2 * i), "full-basis")
            reduced = estimate(variant, 4, 16, 10_000, split_stream(base, 2 * i + 1))
            gap = abs(full.mean - reduced.mean)
            assert gap <= 3.0 * math.hypot(full.std_error, reduced.std_error)


class TestEstimates:
    @pytest.mark.parametrize("variant,p,d", [("ds", 3, 20), ("mb", 5, 40), ("ds", 700, 1024)])
    def test_single_cut_point_is_estimate_bitwise(self, variant, p, d):
        n = _BLOCK + 300
        (est,) = estimates(variant, [(p, d)], n, RngStream(14))
        assert est == estimate(variant, p, d, n, RngStream(14))

    @pytest.mark.parametrize("variant", ["ds", "mb"])
    def test_each_p_reads_its_row_of_one_draw(self, variant):
        cells = [(10, 30), (2, 30), (5, 30)]
        rng = RngStream(15)
        values = _replicates(variant, cells, 500, rng)
        ests = estimates(variant, cells, 500, rng)
        assert len(ests) == len(values) == len(cells)
        for est, v in zip(ests, values):
            assert est.mean == float(np.mean(v))
            assert est.std_error == float(np.std(v, ddof=1) / np.sqrt(500))

    def test_model_full_dimension_cut_is_exactly_one(self):
        top = estimates("mb", [(1, 12), (6, 12), (12, 12)], 5000, RngStream(5))[-1]
        assert top.mean == 1.0 and top.std_error == 0.0

    def test_rejects_an_empty_p_set(self):
        with pytest.raises(ValueError, match="cells must be a non-empty list"):
            estimates("ds", (), 100, RngStream(0))
        with pytest.raises(ValueError, match="cells must be a non-empty list"):
            estimates("ds", iter(()), 100, RngStream(0))

    @pytest.mark.parametrize("variant", ["ds", "mb"])
    def test_an_iterator_of_ps_gives_the_tuple_values(self, variant):
        # The cut points are read once, so checking them does not use them up.
        cells = ((1, 8), (2, 8))
        assert estimates(variant, iter(cells), 10, RngStream(0)) == estimates(
            variant, cells, 10, RngStream(0)
        )

    @pytest.mark.parametrize("ps", [(10, 2, 5), (3, 3, 1), (1000,), (1, 2, 3, 500, 20, 1000)])
    def test_running_max_equals_direct_max(self, ps):
        # The reference takes each p's max over its own first p columns.
        def direct(gen, m, ps, d):
            top = max(ps)
            head_sq = np.empty(m)
            peaks = np.empty((len(ps), m))
            rows = max(1, montecarlo._CHUNK // top)
            for lo in range(0, m, rows):
                head = gen.standard_normal((min(rows, m - lo), top))
                head_sq[lo : lo + rows] = np.einsum("ij,ij->i", head, head)
                for peak, p in zip(peaks, ps):
                    peak[lo : lo + rows] = np.max(np.abs(head[:, :p]), axis=1)
            norm = np.sqrt(head_sq + 2.0 * gen.standard_gamma((d - top) / 2.0, m))
            return [peak / norm for peak in peaks]

        m, d = 700, 1000
        got = np.empty((len(ps), m))
        _polling_scores(np.random.default_rng(3), [(p, d) for p in ps], got)
        want = direct(np.random.default_rng(3), m, ps, d)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    POLLING_CELLS = [((1, 2, 512, 1024), 1024), ((10, 2, 5), 30), ((3, 3, 1), 5), ((40,), 40)]

    @pytest.mark.parametrize("ps,d", POLLING_CELLS)
    def test_chunk_size_does_not_change_values(self, monkeypatch, ps, d):
        # Chunks end on whole rows, so the draw order is the same at any
        # chunk size; at 7 values every row is a chunk of its own.
        values = []
        for chunk in (2**18, 2**15, 7):
            monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
            values.append(_replicates("ds", [(p, d) for p in ps], _BLOCK + 300, RngStream(16)))
        assert all(v.tobytes() == values[0].tobytes() for v in values[1:])

    @pytest.mark.parametrize("variant", ["ds", "mb"])
    def test_chunk_size_does_not_change_values_across_d(self, monkeypatch, variant):
        # d = 8 reads a prefix of the 40-wide head; 64, 100 and 1000 add
        # chi-square pieces above it.
        cells = [(1, 8), (8, 8), (2, 100), (40, 100), (40, 1000), (3, 64)]
        values = []
        for chunk in (2**18, 2**15, 7):
            monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
            values.append(_replicates(variant, cells, _BLOCK + 300, RngStream(17)))
        assert all(v.tobytes() == values[0].tobytes() for v in values[1:])

    @pytest.mark.parametrize("ps,d", [POLLING_CELLS[0], (P_LIST_VARY_P, D_VARY_P)])
    def test_one_polling_block_peaks_under_1_5_mib(self, ps, d):
        # The buffer is 256 KB and the block's peaks 32 KB per cut point.
        gen = RngStream(32).generator()
        tracemalloc.start()
        try:
            _polling_scores(gen, [(p, d) for p in ps], np.empty((len(ps), _BLOCK)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20, peak


def _mc_per_evaluation(capsys, variant, p, d, n_sims, seed):
    """The row ``mc --per-evaluation`` prints for one cell, read back from JSON."""
    args = ["mc", "--variant", variant, "--d", str(d), "--p", str(p), "--nsims", str(n_sims),
            "--seed", str(seed), "--per-evaluation", "--format", "json"]
    assert main(args) == 0
    (row,) = json.loads(capsys.readouterr().out)
    return row


class TestPerEvaluationEstimate:
    def test_scales_mean_and_error(self, capsys):
        base = estimate("ds", 1, 8, 4000, RngStream(8))
        per_eval = _mc_per_evaluation(capsys, "ds", 1, 8, 4000, 8)
        assert per_eval["value"] == base.mean / 2.0
        assert per_eval["std_error"] == base.std_error / 2.0

    def test_model_p1_cost(self, capsys):
        base = estimate("mb", 1, 8, 4000, RngStream(8))
        per_eval = _mc_per_evaluation(capsys, "mb", 1, 8, 4000, 8)
        assert per_eval["value"] == base.mean / 1.5

    def test_model_p3_cost(self, capsys):
        base = estimate("mb", 3, 8, 4000, RngStream(8))
        per_eval = _mc_per_evaluation(capsys, "mb", 3, 8, 4000, 8)
        assert per_eval["value"] == base.mean / 4.0


def _cost_ratio(variant, p1, p2):
    """The target at which ``paired_ratio_gap(variant, p1, p2, ...)`` tests
    equal values per evaluation: v_p2 / r(p2) = v_p1 / r(p1) exactly when
    v_p2 = (r(p2) / r(p1)) v_p1, for r the evaluations of one iteration."""
    rounds = Variant.named(variant).rounds
    return rounds(p2, 1) / rounds(p1, 1)


class TestPairing:
    def test_identical_levels_give_zero(self):
        target = _cost_ratio("ds", 3, 3)
        delta = paired_ratio_gap("ds", 3, 3, 50, target, 2000, RngStream(10))
        assert delta.mean == 0.0 and delta.std_error == 0.0

    def test_identical_model_levels_give_zero(self):
        # The gap between equal cut points is a Gamma(0) piece, exactly 0.
        target = _cost_ratio("mb", 4, 4)
        delta = paired_ratio_gap("mb", 4, 4, 50, target, 5000, RngStream(15))
        assert delta.mean == 0.0 and delta.std_error == 0.0

    def test_model_full_dimension_level_is_exactly_one(self):
        v1, v2 = _replicates("mb", [(30, 30), (7, 30)], 5000, RngStream(16))
        assert np.all(v1 == 1.0)
        assert np.all((v2 > 0.0) & (v2 < 1.0))

    def test_polling_drop_is_significant(self):
        target = _cost_ratio("ds", 2, 1)
        delta = paired_ratio_gap("ds", 2, 1, 1000, target, 10_000, RngStream(11))
        assert delta.mean > 3.0 * delta.std_error

    def test_model_drop_is_significant(self):
        target = _cost_ratio("mb", 3, 2)
        delta = paired_ratio_gap("mb", 3, 2, 1000, target, 10_000, RngStream(12))
        assert delta.mean > 3.0 * delta.std_error

    def test_ratio_gap_detects_true_ratio(self):
        gap = paired_ratio_gap("ds", 1, 2, 1000, math.sqrt(2.0), 10_000, RngStream(13))
        assert abs(gap.mean) <= 3.0 * gap.std_error

    def test_ratio_gap_rejects_false_ratio(self):
        gap = paired_ratio_gap("ds", 1, 2, 1000, 1.1 * math.sqrt(2.0), 10_000, RngStream(13))
        assert abs(gap.mean) > 3.0 * gap.std_error

    @pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf])
    def test_non_finite_target_ratio_is_refused_before_any_draw(self, monkeypatch, target):
        def no_draw(*args):
            raise AssertionError("drew replicates")

        monkeypatch.setattr(montecarlo, "_replicates", no_draw)
        with pytest.raises(DomainError, match=f"target_ratio must be finite, got {target!r}"):
            paired_ratio_gap("ds", 1, 2, 100, target, 1000, RngStream(0))

    def test_per_evaluation_ratio_gap(self):
        target = math.pi / 4.0 * _cost_ratio("mb", 1, 2)
        gap = paired_ratio_gap("mb", 1, 2, 1000, target, 10_000, RngStream(14))
        assert abs(gap.mean) <= 3.0 * gap.std_error

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("p", range(1, 6))
    def test_cost_ratio_target_is_the_per_evaluation_gap(self, variant, p):
        # z of v_p - (r(p) / r(p + 1)) v_{p+1} is z of v_p / r(p) - v_{p+1} / r(p + 1).
        rounds = Variant.named(variant).rounds
        target = rounds(p, 1) / rounds(p + 1, 1)
        gap = paired_ratio_gap(variant, p + 1, p, 12, target, 3000, RngStream(17))
        low, high = _replicates(variant, [(p + 1, 12), (p, 12)], 3000, RngStream(17))
        m, se = _mean_se(high / rounds(p, 1) - low / rounds(p + 1, 1))
        assert gap.mean / gap.std_error == pytest.approx(m / se, rel=1e-12)


def _d_normal_values(variant, ps, d, n, rng):
    """Reference sampler: d Gaussian coordinates per replicate, normalized.

    This is the recipe the chi-square tail replaces; one array of replicate
    values per entry of ``ps``, all scored on the same draws.
    """
    out = [[] for _ in ps]
    for j, start in enumerate(range(0, n, 4096)):
        z = split_stream(rng, j).generator().standard_normal((min(4096, n - start), d))
        norm = np.linalg.norm(z, axis=1)
        for values, p in zip(out, ps):
            head = z[:, :p]
            num = np.max(np.abs(head), axis=1) if variant == "ds" else np.linalg.norm(head, axis=1)
            values.append(num / norm)
    return [np.concatenate(v) for v in out]


def _mean_se(values):
    return values.mean(), values.std(ddof=1) / math.sqrt(values.size)


class TestChiSquareTailOracle:
    """The p normals + chi-square tail sampler against the d-normal one."""

    N = 10_000

    @pytest.mark.parametrize("variant", ["ds", "mb"])
    @pytest.mark.parametrize("p,d", [(1, 8), (2, 1000), (500, 1000), (16, 16)])
    def test_estimate_matches_d_normal_sampler(self, variant, p, d):
        base = RngStream(5)
        new = replicate_decreases(variant, p, d, self.N, split_stream(base, 0))
        (old,) = _d_normal_values(variant, (p,), d, self.N, split_stream(base, 1))
        if variant == "mb" and p == d:
            assert np.all(new == 1.0) and np.all(old == 1.0)
            return
        (m_new, se_new), (m_old, se_old) = _mean_se(new), _mean_se(old)
        assert abs(m_new - m_old) <= 3.0 * math.hypot(se_new, se_old)

    @pytest.mark.parametrize("variant", ["ds", "mb"])
    def test_paired_compare_matches_d_normal_sampler(self, variant):
        p1, p2, d = 5, 2, 300
        base = RngStream(5)
        target = _cost_ratio(variant, p2, p1)
        new = paired_ratio_gap(variant, p2, p1, d, target, self.N, split_stream(base, 2))
        v1, v2 = _d_normal_values(variant, (p1, p2), d, self.N, split_stream(base, 3))
        diffs = v1 - target * v2
        m_old, se_old = _mean_se(diffs)
        gap = abs(new.mean - m_old)
        assert gap <= 3.0 * math.hypot(new.std_error, se_old)


def _q_forming_values(p, d, n, rng):
    """Sign-corrected QR sampler: form the sign-fixed Q of a Gaussian d-by-p
    draw A, project g onto it, and score it for ds and mb, one row each.

    Draws g, then A, in blocks of the same size and from the same child
    streams as the package's full-basis mode.  It is the package's earlier
    sampler, kept as a reference in law: its values are not the package's.
    """
    block = max(1, min(4096, 2_000_000 // (d * p)))
    out = []
    for j, start in enumerate(range(0, n, block)):
        m = min(block, n - start)
        gen = split_stream(rng, j).generator()
        g = gen.standard_normal((m, d))
        a = gen.standard_normal((m, d, p))
        q, r = np.linalg.qr(a)
        signs = np.sign(np.einsum("kii->ki", r))
        signs[signs == 0.0] = 1.0
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        proj = np.einsum("kdp,kd->kp", q * signs[:, None, :], g)
        out.append([_score(variant, proj) for variant in ("ds", "mb")])
    return np.concatenate(out, axis=1)


def _full_basis_chunks(p, d, n, rng):
    """Each full-basis chunk's generator and row count, in the package's
    documented order: blocks of max(1, min(4096, 2 * 10^6 // (d p)))
    replicates, block j drawing from child stream j, in chunks of
    max(1, 2^15 // d) rows."""
    block = max(1, min(4096, 2_000_000 // (d * p)))
    rows = max(1, 2**15 // d)
    for j, start in enumerate(range(0, n, block)):
        m = min(block, n - start)
        gen = split_stream(rng, j).generator()
        for lo in range(0, m, rows):
            yield gen, min(rows, m - lo)


def _score(variant, proj):
    score = np.max(np.abs(proj), axis=1) if variant == "ds" else np.linalg.norm(proj, axis=1)
    return np.minimum(score, 1.0)


def _householder_q_values(variant, p, d, n, rng):
    """Reference full-basis sampler that forms Q = H_1 ... H_p [I_p; 0] from
    the package's draws, checks that it is orthonormal, and projects g on it."""
    out = []
    for gen, r in _full_basis_chunks(p, d, n, rng):
        g = gen.standard_normal((r, d))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        # u[k] is reflection k's unit vector, zero on its first k coordinates.
        u = np.zeros((p, r, d))
        for k in range(p):
            x = gen.standard_normal((r, d - k))
            x[:, 0] += np.copysign(np.linalg.norm(x, axis=1), x[:, 0])
            u[k, :, k:] = x / np.linalg.norm(x, axis=1, keepdims=True)
        q = np.zeros((r, d, p))
        q[:, np.arange(p), np.arange(p)] = 1.0
        for k in reversed(range(p)):
            q -= 2.0 * u[k][:, :, None] * np.einsum("rd,rdp->rp", u[k], q)[:, None, :]
        gram = np.einsum("rdi,rdj->rij", q, q)
        assert np.max(np.abs(gram - np.eye(p))) <= 1e-12
        out.append(_score(variant, np.einsum("rdp,rd->rp", q, g)))
    return np.concatenate(out)


class TestFullBasisOracle:
    """The projection-only full-basis sampler against samplers that form Q."""

    @pytest.mark.parametrize("variant", ["ds", "mb"])
    @pytest.mark.parametrize("p,d", [(1, 16), (32, 64), (16, 16)])
    def test_values_match_q_forming_sampler(self, variant, p, d):
        # 2000 replicates span three blocks at (32, 64).
        rng = RngStream(17)
        new = replicate_decreases(variant, p, d, 2000, rng, "full-basis")
        old = _householder_q_values(variant, p, d, 2000, rng)
        assert np.max(np.abs(new - old)) <= 1e-10

    @pytest.mark.parametrize("variant", ["ds", "mb"])
    def test_draw_order_is_pinned(self, variant):
        # g's chunk rows, then each reflection's normals in turn, reflected
        # with the package's arithmetic, give its floats bit for bit.
        p, d, n = 32, 64, 2000
        rng = RngStream(18)
        expected = []
        for gen, r in _full_basis_chunks(p, d, n, rng):
            y = gen.standard_normal((r, d))
            y /= np.sqrt(np.einsum("ij,ij->i", y, y))[:, None]
            for k in range(p):
                v = gen.standard_normal((r, d - k))
                v[:, 0] += np.copysign(np.sqrt(np.einsum("ij,ij->i", v, v)), v[:, 0])
                v /= np.sqrt(np.einsum("ij,ij->i", v, v))[:, None]
                y[:, k:] -= 2.0 * np.einsum("ij,ij->i", v, y[:, k:])[:, None] * v
            expected.append(_score(variant, y[:, :p]))
        new = replicate_decreases(variant, p, d, n, rng, "full-basis")
        assert np.array_equal(new, np.concatenate(expected))

    @pytest.mark.parametrize("p,d", [(4, 16), (8, 64), (32, 64)])
    def test_mean_matches_sign_corrected_qr_sampler(self, p, d):
        # The reflections have the law of the sign-corrected QR basis; the
        # two samplers draw from independent child streams.
        n = 20_000
        base = RngStream(29)
        news = full_basis_estimates(p, d, n, split_stream(base, 0))
        olds = _q_forming_values(p, d, n, split_stream(base, 1))
        for variant, new, old in zip(VARIANTS, news, olds):
            m_old, se_old = _mean_se(old)
            gap = abs(new.mean - m_old)
            assert gap <= 3.0 * math.hypot(new.std_error, se_old), variant

    @pytest.mark.parametrize("p,d,m", [(32, 64, 976), (8, 64, 3906), (1, 1024, 1953)])
    def test_one_block_peaks_under_2_mib(self, p, d, m):
        gen = RngStream(31).generator()
        tracemalloc.start()
        try:
            montecarlo._full_basis_scores(gen, [(p, d)], np.empty((len(VARIANTS), m)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, peak


class TestFullBasisSharedDraw:
    """One full-basis draw scores both variants."""

    @pytest.mark.parametrize("p,d", [(1, 16), (32, 64), (16, 16)])
    def test_each_variant_reads_its_entry_of_the_shared_draw(self, p, d):
        rng = RngStream(19)
        values = _full_basis_replicates(p, d, 2000, rng)
        estimates = full_basis_estimates(p, d, 2000, rng)
        assert len(values) == len(estimates) == len(VARIANTS)
        for variant, row, shared in zip(VARIANTS, values, estimates):
            assert np.array_equal(replicate_decreases(variant, p, d, 2000, rng, "full-basis"), row)
            assert estimate(variant, p, d, 2000, rng, "full-basis") == shared

    @pytest.mark.parametrize("variant", ["ds", "mb"])
    def test_scores_never_exceed_one_at_full_dimension(self, variant):
        # At p = d the projection of the unit gradient is a unit vector, whose
        # 2-norm rounds up to 1 + 2^-52 or more on some draws.
        for d in (2, 3, 5, 17, 64, 100):
            values = replicate_decreases(variant, d, d, 200, RngStream(d), "full-basis")
            assert np.all(values <= 1.0), d

    def test_full_dimension_cli_estimate_is_accepted(self, capsys):
        args = ["mc", "--variant", "mb", "--p", "2", "--d", "2", "--mode", "full-basis",
                "--nsims", "2", "--seed", "2", "--format", "json"]
        assert main(args) == 0
        (row,) = json.loads(capsys.readouterr().out)
        assert row["value"] == 1.0


class TestWorkerThreads:
    """Blocks on worker threads give the serial values bit for bit."""

    N = 3 * _BLOCK + 100

    CELLS = [
        ("ds", (700,), 1024, "reduced"),
        ("ds", (5, 700), 1024, "reduced"),
        ("mb", (3, 40), 1000, "reduced"),
        ("ds", (32,), 64, "full-basis"),
    ]

    @staticmethod
    def _run_with_cpus(monkeypatch, cpus, cell, n):
        variant, ps, d, reduction = cell
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: cpus)
        if reduction == "full-basis":
            (p,) = ps
            return _full_basis_replicates(p, d, n, RngStream(23))
        return _replicates(variant, [(p, d) for p in ps], n, RngStream(23))

    @pytest.mark.parametrize("cell", CELLS, ids=lambda c: f"{c[0]}-{c[1]}-{c[2]}-{c[3]}")
    def test_any_worker_count_matches_serial(self, monkeypatch, cell):
        serial = self._run_with_cpus(monkeypatch, 1, cell, self.N)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for cpus in (2, 8):
                threaded = self._run_with_cpus(monkeypatch, cpus, cell, self.N)
                assert np.array_equal(threaded, serial), cpus
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize(
        "cell,on_workers",
        [(CELLS[0], True), (CELLS[3], True), (CELLS[2], False), (("ds", (2,), 6, "reduced"), False)],
    )
    def test_only_large_blocks_go_to_workers(self, monkeypatch, cell, on_workers):
        # A block that draws fewer than 2^16 values stays on the calling thread.
        seen = []
        name = {"ds": "_polling_scores", "mb": "_model_scores"}[cell[0]]
        if cell[3] == "full-basis":
            name = "_full_basis_scores"
        scores = getattr(montecarlo, name)

        def spy(*args):
            seen.append(threading.current_thread() is threading.main_thread())
            return scores(*args)

        monkeypatch.setattr(montecarlo, name, spy)
        self._run_with_cpus(monkeypatch, 2, cell, self.N)
        assert seen
        assert not any(seen) if on_workers else all(seen)

    def test_failing_block_raises_and_leaves_no_thread(self, monkeypatch):
        scores = montecarlo._polling_scores

        def last_block_fails(gen, cells, out):
            if out.shape[1] < _BLOCK:
                raise RuntimeError("block failed")
            return scores(gen, cells, out)

        monkeypatch.setattr(montecarlo, "_polling_scores", last_block_fails)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="block failed"):
            self._run_with_cpus(monkeypatch, 2, self.CELLS[0], self.N)
        assert threading.active_count() == before

    def test_usable_cpus_is_positive(self):
        assert montecarlo._usable_cpus() >= 1
