"""Sampling tests: determinism of streams, uniformity and invariance of draws."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from subspace_dfo import (
    InvalidDimensionError,
    RngStream,
    SubspaceBasis,
    sample_stiefel,
    sample_unit_vector,
    split_stream,
)
from subspace_dfo import rng as rng_module

# Two-sample Kolmogorov-Smirnov critical value at the 1% level.
KS_COEFF_1PCT = math.sqrt(-0.5 * math.log(0.005))


def ks_critical(n: int, m: int) -> float:
    return KS_COEFF_1PCT * math.sqrt((n + m) / (n * m))


class TestStreams:
    def test_same_stream_same_sequence(self):
        a = split_stream(RngStream(1), 0).generator().integers(0, 2**64, 8, dtype=np.uint64)
        b = split_stream(RngStream(1), 0).generator().integers(0, 2**64, 8, dtype=np.uint64)
        assert np.array_equal(a, b)

    def test_sibling_streams_diverge_immediately(self):
        a = split_stream(RngStream(1), 0).generator().integers(0, 2**64, dtype=np.uint64)
        b = split_stream(RngStream(1), 1).generator().integers(0, 2**64, dtype=np.uint64)
        assert a != b

    def test_generator_restarts_from_stream_head(self):
        stream = RngStream(7, (3,))
        assert stream.generator().standard_normal() == stream.generator().standard_normal()

    def test_substream_means(self):
        draws = np.array(
            [split_stream(RngStream(42), k).generator().standard_normal() for k in range(100)]
        )
        assert abs(draws.mean()) < 0.4

    @given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=0, max_value=50))
    @settings(max_examples=50, deadline=None)
    def test_split_is_deterministic(self, seed, k):
        assert split_stream(RngStream(seed), k) == split_stream(RngStream(seed), k)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            RngStream(-1)
        with pytest.raises(ValueError):
            RngStream(2**64)
        with pytest.raises(ValueError):
            split_stream(RngStream(0), -1)

    @pytest.mark.parametrize("seed", [1.5, "3", True, None, 3.0])
    def test_refuses_a_non_integer_seed(self, seed):
        with pytest.raises(ValueError, match=f"seed must be .* integer, got {seed!r}"):
            RngStream(seed)

    @pytest.mark.parametrize("index", [1.5, "3", True, 2.0])
    def test_refuses_a_non_integer_stream_index(self, index):
        with pytest.raises(ValueError, match="stream indices must be nonnegative integers"):
            RngStream(0, (1, index))
        with pytest.raises(ValueError, match=f"substream index .* got {index!r}"):
            split_stream(RngStream(0), index)

    @pytest.mark.parametrize("stream", [[1], 5, (1, -2)])
    def test_refuses_a_stream_path_that_is_not_a_tuple_of_indices(self, stream):
        with pytest.raises(ValueError, match="stream indices must be nonnegative integers"):
            RngStream(0, stream)

    def test_numpy_integers_make_the_same_stream(self):
        stream, plain = RngStream(np.uint64(7), (np.int64(2),)), RngStream(7, (2,))
        assert stream == plain
        assert stream.generator().standard_normal() == plain.generator().standard_normal()


class TestUnitVector:
    def test_one_dimensional_sphere_is_signs(self):
        values = {float(sample_unit_vector(1, RngStream(seed))[0]) for seed in range(24)}
        assert values <= {1.0, -1.0}
        assert len(values) == 2

    def test_norm_small_case(self):
        v = sample_unit_vector(2, split_stream(RngStream(7), 0))
        assert float(v @ v) == pytest.approx(1.0, abs=1e-12)

    @given(st.integers(min_value=1, max_value=300), st.integers(min_value=0, max_value=1000))
    @settings(max_examples=60, deadline=None)
    def test_norm_invariant(self, d, seed):
        v = sample_unit_vector(d, RngStream(seed))
        assert abs(float(np.linalg.norm(v)) - 1.0) <= 1e-12
        assert v.shape == (d,)

    def test_coordinate_means_vanish(self):
        # Symmetry of the sphere: each coordinate has mean 0 with sd 1/sqrt(d),
        # so the sample mean over n draws stays within 4/sqrt(n*d).
        d, n = 1000, 10_000
        base = RngStream(5)
        total = np.zeros(d)
        for i in range(n):
            total += sample_unit_vector(d, split_stream(base, i))
        assert np.max(np.abs(total / n)) < 4.0 / math.sqrt(n * d)

    def test_zero_dimension_rejected(self):
        with pytest.raises(InvalidDimensionError):
            sample_unit_vector(0, RngStream(0))


class TestStiefelSampling:
    def test_square_sample_is_orthogonal(self):
        for seed in range(5):
            basis = sample_stiefel(3, 3, RngStream(seed))
            defect = np.max(np.abs(basis.columns.T @ basis.columns - np.eye(3)))
            assert defect < 1e-10

    def test_single_column_is_unit_vector(self):
        basis = sample_stiefel(5, 1, RngStream(11))
        assert float(np.linalg.norm(basis.columns[:, 0])) == pytest.approx(1.0, abs=1e-12)

    @given(
        st.integers(min_value=1, max_value=48),
        st.integers(min_value=1, max_value=48),
        st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=60, deadline=None)
    def test_orthonormality_defect(self, d, p, seed):
        if p > d:
            d, p = p, d
        basis = sample_stiefel(d, p, RngStream(seed))
        defect = np.max(np.abs(basis.columns.T @ basis.columns - np.eye(p)))
        assert defect < 1e-10

    def test_orthonormality_defect_large(self):
        basis = sample_stiefel(2048, 128, RngStream(0))
        defect = np.max(np.abs(basis.columns.T @ basis.columns - np.eye(128)))
        assert defect < 1e-10

    def test_invalid_dimensions(self):
        with pytest.raises(InvalidDimensionError):
            sample_stiefel(3, 4, RngStream(0))
        with pytest.raises(InvalidDimensionError):
            sample_stiefel(3, 0, RngStream(0))

    def test_type_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            SubspaceBasis(np.ones((3, 2)))

    def test_projection_matches_first_coordinates(self):
        # Composing a uniform basis with a uniform direction is again uniform,
        # so ||B^T g||_inf over fresh pairs matches max |g_i| over the first p
        # coordinates of fresh sphere points, within combined standard errors.
        d, p, n = 16, 4, 10_000
        base = RngStream(13)
        full = np.empty(n)
        for i in range(n):
            pair = split_stream(base, i)
            g = sample_unit_vector(d, split_stream(pair, 0))
            b = sample_stiefel(d, p, split_stream(pair, 1)).columns
            full[i] = np.max(np.abs(b.T @ g))
        gen = split_stream(base, n).generator()
        z = gen.standard_normal((n, d))
        reduced = np.max(np.abs(z[:, :p]), axis=1) / np.linalg.norm(z, axis=1)
        gap = abs(full.mean() - reduced.mean())
        se = math.hypot(full.std(ddof=1) / math.sqrt(n), reduced.std(ddof=1) / math.sqrt(n))
        assert gap <= 3.0 * se


class TestStackedSampling:
    @pytest.mark.parametrize(
        "d, p", [(1, 1), (12, 1), (100, 2), (300, 5), (1000, 10), (7, 7), (130, 130)]
    )
    def test_stack_matches_per_child_draws_bit_for_bit(self, d, p):
        # Bases come in order from one generator (the name predates that):
        # the stacks 1, 2, 4, ... the driver draws read them as one stack.
        base, count = RngStream(29, (3,)), 25
        # One stack of 25, past the value cap where the shape needs it.
        one_stack = rng_module._orthonormalize(base.generator().standard_normal((count, d, p)))
        gen, bases, size = base.generator(), [], 1
        while len(bases) < count:
            stack = rng_module.sample_stiefel_stack(d, p, gen, min(size, count - len(bases)))
            bases += stack
            size = 2 * len(stack)
        assert len(bases) == count
        for basis, single in zip(bases, one_stack):
            assert isinstance(basis, SubspaceBasis)
            assert basis.columns.shape == (d, p)
            assert basis.columns.tobytes() == single.columns.tobytes()
            assert not basis.columns.flags.writeable
        assert bases[0].columns.tobytes() == sample_stiefel(d, p, base).columns.tobytes()

    @pytest.mark.parametrize("d, p", [(1, 1), (12, 1), (100, 2), (300, 5), (1000, 10), (200, 200)])
    def test_no_stack_exceeds_the_value_cap(self, d, p):
        cap = rng_module._STACK_VALUES
        assert cap == 2**14
        for count in (1, 7, 10**6):
            n = len(rng_module.sample_stiefel_stack(d, p, RngStream(1).generator(), count))
            assert n == min(count, max(1, cap // (d * p)))
            assert n == 1 or n * d * p <= cap

    def test_one_check_covers_the_whole_stack(self):
        q = np.stack([np.eye(4, 2), np.eye(4, 2)])
        rng_module._check_orthonormal(q)
        q[1, 0, 1] = 1e-9
        with pytest.raises(ValueError, match="not orthonormal"):
            rng_module._check_orthonormal(q)

    def test_invalid_arguments(self):
        gen = RngStream(0).generator()
        with pytest.raises(InvalidDimensionError):
            rng_module.sample_stiefel_stack(3, 4, gen, 2)
        for count in (0, -1):
            with pytest.raises(ValueError, match=f"need a count >= 1, got {count}"):
                rng_module.sample_stiefel_stack(3, 2, gen, count)


class TestDistributionalInvariance:
    def test_left_rotation_invariance(self):
        # Multiplying samples by a fixed orthogonal matrix must not change the
        # distribution of the projected gradient norm.
        d, p, n = 12, 3, 10_000
        base = RngStream(99)
        q = sample_stiefel(d, d, split_stream(base, 0)).columns

        def norms(offset: int, rotate: bool) -> np.ndarray:
            out = np.empty(n)
            for i in range(n):
                pair = split_stream(base, offset + i)
                g = sample_unit_vector(d, split_stream(pair, 0))
                b = sample_stiefel(d, p, split_stream(pair, 1)).columns
                if rotate:
                    b = q @ b
                out[i] = np.linalg.norm(b.T @ g)
            return out

        plain = norms(1, rotate=False)
        rotated = norms(1 + n, rotate=True)
        statistic = stats.ks_2samp(plain, rotated, method="asymp").statistic
        assert statistic < ks_critical(n, n)

    def test_transpose_invariance_of_square_samples(self):
        # First-column entries of Q and of Q^T (first-row entries of Q) must be
        # indistinguishable for square samples; the two sides use independent
        # sample sets so the two-sample test applies.
        d, m = 8, 2000
        base = RngStream(123)
        cols = np.empty((m, d))
        rows = np.empty((m, d))
        for i in range(m):
            cols[i] = sample_stiefel(d, d, split_stream(base, i)).columns[:, 0]
            rows[i] = sample_stiefel(d, d, split_stream(base, m + i)).columns[0, :]
        statistic = stats.ks_2samp(cols.ravel(), rows.ravel(), method="asymp").statistic
        assert statistic < ks_critical(m * d, m * d)
