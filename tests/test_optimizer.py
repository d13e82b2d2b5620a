"""Optimizer tests: evaluation accounting, exact decreases on linear objectives,
driver behavior."""

import dataclasses
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subspace_dfo import (
    DomainError,
    DriverConfig,
    InvalidDimensionError,
    NonFiniteObjectiveError,
    ObjectiveHandle,
    RngStream,
    ds_iteration,
    mb_iteration,
    per_evaluation_opportunistic,
    run_driver,
    run_optimizer_experiment,
    sample_stiefel,
    sample_unit_vector,
    split_stream,
)
from subspace_dfo import optimizer as optimizer_module
from subspace_dfo import rng as rng_module


def linear_objective(g: np.ndarray) -> ObjectiveHandle:
    return ObjectiveHandle(lambda x: float(g @ x), g.size, name="linear")


def make_basis(d: int, p: int, seed: int) -> np.ndarray:
    return sample_stiefel(d, p, RngStream(seed))


def recording_objective(fn, d: int) -> tuple[ObjectiveHandle, list[np.ndarray]]:
    """A handle around ``fn`` that keeps a copy of every point it evaluates."""
    seen = []

    def record(x):
        seen.append(x.copy())
        return fn(x)

    return ObjectiveHandle(record, d), seen


def opportunistic(objective, x, fx, basis, delta):
    """Opportunistic polling fed the columns of ``basis`` as its directions."""
    return optimizer_module._opportunistic_iteration(
        objective, x, fx, delta, basis.shape[1], iter(basis.T)
    )


def extended(basis: np.ndarray) -> np.ndarray:
    """The directions opportunistic polling polls when fed the columns of
    ``basis``: each made orthonormal to the ones before it."""
    polled = np.empty(basis.shape[::-1])
    for j, b in enumerate(basis.T):
        polled[j] = rng_module._orthonormal_extension(polled[:j], b) if j else b
    return polled.T


def count_draws(monkeypatch) -> tuple[list[RngStream], list[tuple[int, ...]]]:
    """Make ``RngStream.generator`` record the stream of every generator it
    makes and the shape of every standard normal draw those generators make."""
    streams, shapes = [], []
    make_generator = RngStream.generator

    class Counted:
        def __init__(self, gen):
            self._gen = gen

        def standard_normal(self, size):
            shapes.append(tuple(np.atleast_1d(size)))
            return self._gen.standard_normal(size)

    def counted(stream):
        streams.append(stream)
        return Counted(make_generator(stream))

    monkeypatch.setattr(RngStream, "generator", counted)
    return streams, shapes


# The per-point iterations that evaluated one restricted p-vector at a time,
# kept as the oracle for the poll-matrix iterations: every point, value and
# evaluation count must agree bit for bit.
def _oracle_restriction(objective, x, basis):
    return lambda z: objective(x + basis @ z)


def oracle_ds_iteration(objective, x, fx, basis, delta, mode):
    restriction = _oracle_restriction(objective, x, basis)
    p = basis.shape[1]
    best_value, best_step, evaluations = fx, np.zeros(p), 0
    for i in range(p):
        improved = False
        for sign in (1.0, -1.0):
            step = np.zeros(p)
            step[i] = sign * delta
            value = restriction(step)
            evaluations += 1
            if value < best_value:
                best_value, best_step, improved = value, step, True
                if mode == "opportunistic":
                    break
        if mode == "opportunistic" and improved:
            break
    return x + basis @ best_step, best_value, evaluations


def oracle_mb_iteration(objective, x, fx, basis, delta):
    restriction = _oracle_restriction(objective, x, basis)
    p = basis.shape[1]
    poll_values = np.empty(p)
    for i in range(p):
        step = np.zeros(p)
        step[i] = delta
        poll_values[i] = restriction(step)
    evaluations = p
    grad = (poll_values - fx) / delta
    grad_norm = float(np.linalg.norm(grad))
    if grad_norm < 1e-14:
        return x + basis @ np.zeros(p), fx, evaluations
    trial_step = -(delta / grad_norm) * grad
    if p == 1 and grad[0] < 0.0:
        # The reused poll point is the trial point, exactly delta e_1.
        trial_step = np.array([delta])
        trial_value = float(poll_values[0])
    else:
        trial_value = restriction(trial_step)
        evaluations += 1
    if trial_value < fx:
        return x + basis @ trial_step, trial_value, evaluations
    return x + basis @ np.zeros(p), fx, evaluations


class TestObjectiveHandle:
    def test_counts_every_evaluation(self):
        obj = ObjectiveHandle(lambda x: float(x.sum()), 3)
        for k in range(5):
            obj(np.arange(3.0))
        assert obj.eval_count == 5

    def test_rejects_wrong_shape(self):
        obj = ObjectiveHandle(lambda x: 0.0, 3)
        with pytest.raises(InvalidDimensionError):
            obj(np.zeros(4))
        for dimension in (0, 2.5, True, "3"):
            with pytest.raises(InvalidDimensionError, match="positive integer"):
                ObjectiveHandle(lambda x: 0.0, dimension)

    def test_rejects_non_finite(self):
        for value in (math.inf, math.nan):
            obj = ObjectiveHandle(lambda x: value, 2)
            with pytest.raises(NonFiniteObjectiveError):
                obj(np.zeros(2))
            # The evaluation happened, so it is counted.
            assert obj.eval_count == 1


class TestPollPoints:
    def test_incumbent_is_not_reevaluated(self):
        # The known incumbent value is carried in: polling evaluates exactly
        # its 2p poll points and the model step its p poll points and trial.
        g = sample_unit_vector(6, RngStream(3))
        basis = make_basis(6, 2, 4)
        x = np.linspace(-1.0, 1.0, 6)
        for kind in ("ds", "mb"):
            objective, seen = recording_objective(lambda y: float(g @ y), 6)
            if kind == "ds":
                _, _, evaluations = ds_iteration(objective, x, float(g @ x), basis, 0.5)
            else:
                _, _, evaluations = mb_iteration(objective, x, float(g @ x), basis, 0.5)
            assert evaluations == objective.eval_count == {"ds": 4, "mb": 3}[kind]
            assert not any(np.array_equal(y, x) for y in seen)

    @pytest.mark.parametrize("shape", [(5,), (4, 2), (6, 2), (5, 0), (1, 5, 2)])
    def test_basis_shape_is_checked(self, shape):
        # Any d-by-p array with d = len(x) and p >= 1 is a poll matrix; its
        # orthonormality is the caller's contract and is not checked.
        objective = ObjectiveHandle(lambda y: float(y @ y), 5)
        for iteration in (ds_iteration, mb_iteration):
            with pytest.raises(InvalidDimensionError, match=rf"got \({shape[0]},"):
                iteration(objective, np.ones(5), 5.0, np.ones(shape), 0.5)
        assert objective.eval_count == 0
        _, _, evaluations = ds_iteration(objective, np.ones(5), 5.0, np.ones((5, 2)), 0.5)
        assert evaluations == objective.eval_count == 4

    @pytest.mark.parametrize("delta", [math.nan, 0.0, -1.0])
    def test_a_nan_or_nonpositive_step_is_refused_before_any_evaluation(self, delta):
        objective = ObjectiveHandle(lambda x: float(x @ x), 4, name="sphere")
        basis = sample_stiefel(4, 2, RngStream(0))
        message = f"delta must be (positive|finite), got {delta}"
        for iteration in (ds_iteration, mb_iteration):
            with pytest.raises(DomainError, match=message):
                iteration(objective, np.zeros(4), 0.0, basis, delta)
        assert objective.eval_count == 0

    def test_rows_are_signed_basis_steps(self):
        # Polling evaluates x + delta b_1, x - delta b_1, x + delta b_2, ...;
        # the model step x + delta b_i, then its trial point.
        d, p, delta = 5, 3, 0.7
        basis = make_basis(d, p, 9)
        x = np.linspace(0.5, 2.5, d)
        objective, seen = recording_objective(lambda y: float(y @ y), d)
        ds_iteration(objective, x, float(x @ x), basis, delta)
        expected = [x + sign * (delta * basis[:, i]) for i in range(p) for sign in (1, -1)]
        assert np.array_equal(np.array(seen), np.array(expected))
        assert all(y.flags.c_contiguous for y in seen)
        objective, seen = recording_objective(lambda y: float(y @ y), d)
        mb_iteration(objective, x, float(x @ x), basis, delta)
        expected = [x + delta * basis[:, i] for i in range(p)]
        assert np.array_equal(np.array(seen[:p]), np.array(expected))
        assert len(seen) == p + 1


class TestSimplexGradient:
    """The forward-difference (simplex) gradient inside the model step."""

    @given(st.integers(min_value=0, max_value=200))
    @settings(max_examples=40, deadline=None)
    def test_exact_on_linear_objectives(self, seed):
        # On a linear objective the forward differences recover the projected
        # gradient exactly, for any step size, so the model step moves delta
        # against the projected gradient.
        d, p = 9, 4
        g = sample_unit_vector(d, RngStream(seed))
        basis = make_basis(d, p, seed + 1)
        projected = basis.T @ g
        for delta in (1e-3, 1.0, 17.0):
            point, _, _ = mb_iteration(linear_objective(g), np.zeros(d), 0.0, basis, delta)
            direction = basis.T @ point / delta
            assert np.max(np.abs(direction + projected / np.linalg.norm(projected))) <= 1e-12

    def test_constant_objective_gives_zero(self):
        obj, seen = recording_objective(lambda x: 4.5, 4)
        basis = make_basis(4, 2, 0)
        x = np.zeros(4)
        point, value, evaluations = mb_iteration(obj, x, 4.5, basis, 0.5)
        # A zero gradient evaluates no trial point and keeps the incumbent.
        assert point is x and value == 4.5
        assert evaluations == len(seen) == 2

    def test_forward_difference_bias_on_quadratic(self):
        # f(x) = |x|^2 at the origin with the identity basis: each component is
        # delta itself, so the trial point lies along -(1, 1).
        obj, seen = recording_objective(lambda x: float(x @ x), 2)
        mb_iteration(obj, np.zeros(2), 0.0, np.eye(2), 0.1)
        assert seen[-1] == pytest.approx(-0.1 * np.array([1.0, 1.0]) / math.sqrt(2.0), abs=1e-15)

    def test_evaluation_cost(self):
        g = sample_unit_vector(7, RngStream(5))
        obj = linear_objective(g)
        mb_iteration(obj, np.zeros(7), 0.0, make_basis(7, 3, 6), 1.0)
        assert obj.eval_count == 4


class TestOracle:
    @pytest.mark.parametrize("d, p", [(12, 1), (100, 2), (1000, 10)])
    @pytest.mark.parametrize("shape", ["linear", "quadratic"])
    def test_poll_matrix_matches_per_point_iterations(self, d, p, shape):
        gen = np.random.default_rng(d + p)
        g = gen.standard_normal(d)
        fn = (lambda x: float(g @ x)) if shape == "linear" else (lambda x: 0.5 * float(x @ x))
        for trial in range(6):
            x = gen.standard_normal(d)
            fx = fn(x)
            basis = make_basis(d, p, 100 * d + trial)
            delta = (1.0, 0.25, 3.0)[trial % 3]
            for kind in ("complete", "opportunistic", "mb"):
                new_obj, old_obj = ObjectiveHandle(fn, d), ObjectiveHandle(fn, d)
                if kind == "mb":
                    new = mb_iteration(new_obj, x, fx, basis, delta)
                    old = oracle_mb_iteration(old_obj, x, fx, basis, delta)
                elif kind == "complete":
                    new = ds_iteration(new_obj, x, fx, basis, delta)
                    old = oracle_ds_iteration(old_obj, x, fx, basis, delta, kind)
                else:
                    new = opportunistic(new_obj, x, fx, basis, delta)
                    old = oracle_ds_iteration(old_obj, x, fx, extended(basis), delta, kind)
                assert new[0].tobytes() == old[0].tobytes()
                assert new[1:] == old[1:]
                assert new_obj.eval_count == old_obj.eval_count == new[2]


class TestDsIteration:
    def test_axis_aligned_gradient(self):
        d = 5
        g = np.zeros(d)
        g[0] = 1.0
        point, value, evaluations = ds_iteration(
            linear_objective(g), np.zeros(d), 0.0, np.eye(d), 1.0
        )
        assert -value == pytest.approx(1.0, abs=1e-15)
        assert point[0] == -1.0
        assert evaluations == 2 * d

    @given(st.integers(min_value=0, max_value=300))
    @settings(max_examples=40, deadline=None)
    def test_complete_decrease_is_projected_max(self, seed):
        d, p = 11, 4
        g = sample_unit_vector(d, RngStream(seed))
        basis = make_basis(d, p, seed + 1000)
        delta = 0.75
        _, value, evaluations = ds_iteration(
            linear_objective(g), np.zeros(d), 0.0, basis, delta
        )
        assert evaluations == 2 * p
        expected = delta * np.max(np.abs(basis.T @ g))
        assert -value == pytest.approx(expected, abs=1e-12)

    def test_opportunistic_costs_one_or_two(self):
        costs = []
        for seed in range(300):
            g = sample_unit_vector(8, RngStream(seed))
            basis = make_basis(8, 3, seed + 5000)
            _, value, evaluations = opportunistic(
                linear_objective(g), np.zeros(8), 0.0, basis, 1.0
            )
            assert value < 0.0
            costs.append(evaluations)
        assert set(costs) <= {1, 2}
        # Half the polls succeed on the first try.
        assert abs(np.mean(costs) - 1.5) < 0.1

    def test_no_improvement_keeps_incumbent(self):
        obj = ObjectiveHandle(lambda x: float(x @ x), 3)
        x = np.zeros(3)
        point, value, _ = ds_iteration(obj, x, 0.0, np.eye(3), 1.0)
        assert value == 0.0
        assert point is x
        point, value, evaluations = opportunistic(obj, x, 0.0, np.eye(3), 1.0)
        assert (value, evaluations) == (0.0, 6)
        assert point is x


class TestMbIteration:
    @given(st.integers(min_value=0, max_value=300))
    @settings(max_examples=40, deadline=None)
    def test_decrease_is_projected_norm(self, seed):
        d, p = 11, 4
        g = sample_unit_vector(d, RngStream(seed))
        basis = make_basis(d, p, seed + 2000)
        delta = 1.25
        _, value, evaluations = mb_iteration(linear_objective(g), np.zeros(d), 0.0, basis, delta)
        assert evaluations == p + 1
        expected = delta * float(np.linalg.norm(basis.T @ g))
        assert -value == pytest.approx(expected, abs=1e-12)

    def test_full_dimension_recovers_unit_decrease(self):
        d = 7
        g = sample_unit_vector(d, RngStream(21))
        _, value, _ = mb_iteration(linear_objective(g), np.zeros(d), 0.0, make_basis(d, d, 22), 1.0)
        assert -value == pytest.approx(1.0, abs=1e-12)

    @given(st.integers(min_value=0, max_value=200))
    @settings(max_examples=30, deadline=None)
    def test_model_dominates_polling_on_shared_basis(self, seed):
        # Euclidean norm dominates max coordinate, so for the same gradient,
        # basis, and step the model iteration never decreases less.
        d, p = 10, 3
        g = sample_unit_vector(d, RngStream(seed))
        basis = make_basis(d, p, seed + 4000)
        for delta in (0.5, 2.0):
            _, ds_value, _ = ds_iteration(linear_objective(g), np.zeros(d), 0.0, basis, delta)
            _, mb_value, _ = mb_iteration(linear_objective(g), np.zeros(d), 0.0, basis, delta)
            assert -mb_value >= -ds_value - 1e-13

    def test_constant_objective_zero_gradient_branch(self):
        obj = ObjectiveHandle(lambda x: 2.0, 4)
        x = np.zeros(4)
        point, value, evaluations = mb_iteration(obj, x, 2.0, np.eye(4), 1.0)
        assert value == 2.0
        assert evaluations == 4
        assert point is x

    def test_p1_reuses_poll_point(self):
        # When the restricted slope is negative the model steps onto the poll
        # point, which must not cost a second evaluation.
        d = 6
        g = sample_unit_vector(d, RngStream(33))
        counts = set()
        for seed in range(60):
            basis = make_basis(d, 1, seed + 3000)
            slope = float(basis[:, 0] @ g)
            point, value, evaluations = mb_iteration(
                linear_objective(g), np.zeros(d), 0.0, basis, 1.0
            )
            expected_cost = 1 if slope < 0 else 2
            assert evaluations == expected_cost
            if slope < 0:
                # The iterate is the poll point whose value is reused.
                assert np.array_equal(point, basis[:, 0])
            counts.add(evaluations)
            assert -value == pytest.approx(abs(slope), abs=1e-13)
        assert counts == {1, 2}


class TestDriver:
    def test_zero_budget_gives_single_record(self):
        g = sample_unit_vector(4, RngStream(0))
        x0 = np.zeros(4)
        trace = run_driver(
            linear_objective(g), x0, DriverConfig(p=1, max_evaluations=0), RngStream(1)
        )
        assert len(trace.records) == 1
        assert trace.records[0].eval_count == 1
        # The final point is a copy, never the caller's array.
        assert np.array_equal(trace.x, x0) and not np.shares_memory(trace.x, x0)

    @pytest.mark.parametrize("kind", ["ds-complete", "ds-opportunistic", "mb"])
    def test_budget_too_small_for_one_iteration(self, kind):
        # An iteration at p = 5 may cost 10 or 6 evaluations, more than the
        # budget of 2 allows, so only the initial point is evaluated.
        g = sample_unit_vector(8, RngStream(0))
        config = DriverConfig(p=5, max_evaluations=2, iteration_kind=kind)
        trace = run_driver(linear_objective(g), np.zeros(8), config, RngStream(1))
        assert len(trace.records) == 1
        assert trace.final.eval_count == 1

    @pytest.mark.parametrize("kind", ["ds-complete", "ds-opportunistic", "mb"])
    @pytest.mark.parametrize("p", [1, 2, 5])
    def test_budget_is_a_hard_cap(self, kind, p):
        largest_cost = 2 * p if kind.startswith("ds") else p + 1
        config0 = DriverConfig(p=p, max_evaluations=0, iteration_kind=kind, min_step=0.05)
        for budget in range(4 * p + 4):
            config = dataclasses.replace(config0, max_evaluations=budget)
            objective = ObjectiveHandle(lambda x: 0.5 * float(x @ x), 8)
            trace = run_driver(objective, np.ones(8), config, RngStream(budget))
            final = trace.final
            assert final.eval_count == objective.eval_count <= max(budget, 1)
            # A run stops early only at the step floor: the step after the
            # last iteration is below it.
            records = trace.records
            next_step = config.initial_step
            if len(records) > 1:
                improved = records[-1].best_value < records[-2].best_value
                next_step = final.step_size * (
                    config.expand_factor if improved else config.contract_factor
                )
            if next_step >= config.min_step:
                assert budget - final.eval_count < largest_cost

    @pytest.mark.parametrize(
        "name, d, p, kind, seed",
        [
            ("sphere-quadratic", 12, 1, "mb", 4058335883),
            ("linear-random-g", 300, 5, "ds-complete", 2195314465),
            ("rosenbrock", 100, 2, "ds-opportunistic", 3371069187),
        ],
    )
    def test_best_value_is_the_value_at_the_iterate(self, name, d, p, kind, seed):
        config = DriverConfig(p=p, max_evaluations=300, iteration_kind=kind)
        trace, objective = run_optimizer_experiment(name, d, config, seed=seed)
        assert objective(trace.x) == trace.final.best_value
        if kind == "ds-complete":
            # Every iteration costs 2p and basis k does not depend on the stack
            # schedule, so a rerun whose budget is record k's count ends at k.
            for record in trace.records:
                budget = dataclasses.replace(config, max_evaluations=record.eval_count)
                rerun, objective = run_optimizer_experiment(name, d, budget, seed=seed)
                assert rerun.records == trace.records[: record.iteration + 1]
                assert objective(rerun.x) == record.best_value

    def test_runs_on_one_handle_have_their_own_budget(self):
        # The budget and the records count only the run's own evaluations,
        # whatever the handle counted before the run started.
        objective = ObjectiveHandle(lambda x: float(x @ x), 10)
        config = DriverConfig(p=2, max_evaluations=100)
        first = run_driver(objective, np.ones(10), config, RngStream(1))
        second = run_driver(objective, np.ones(10), config, RngStream(1))
        assert len(first.records) - 1 == 24 and first.final.eval_count == 97
        assert second.records == first.records
        assert objective.eval_count == 2 * first.final.eval_count

    def test_runs_from_one_seed_have_equal_hashable_records(self):
        config = DriverConfig(p=2, max_evaluations=200, iteration_kind="mb")
        a, _ = run_optimizer_experiment("rosenbrock", 12, config, seed=3)
        b, _ = run_optimizer_experiment("rosenbrock", 12, config, seed=3)
        assert a.records == b.records
        assert a == b
        assert len(set(a.records)) == len(a.records) > 1
        assert hash(a.final) == hash(b.final)

    def test_trace_keeps_no_point_per_record(self):
        # 2,000 iterates at d = 1000 would be 16 MB; the run keeps one.
        config = DriverConfig(p=1, max_evaluations=4000)
        tracemalloc.start()
        try:
            trace, _ = run_optimizer_experiment("linear-random-g", 1000, config, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(trace.records) == 2000
        assert peak < 4 * 2**20

    def test_linear_objective_strictly_decreases(self):
        g = sample_unit_vector(30, RngStream(2))
        trace = run_driver(
            linear_objective(g),
            np.zeros(30),
            DriverConfig(p=2, max_evaluations=400),
            RngStream(3),
        )
        best = trace.best_values()
        assert np.all(np.diff(best) < 0.0)

    @pytest.mark.parametrize("kind", ["ds-complete", "ds-opportunistic", "mb"])
    def test_trace_nonincreasing(self, kind):
        obj = ObjectiveHandle(
            lambda x: float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1 - x[:-1]) ** 2)), 6
        )
        config = DriverConfig(p=2, max_evaluations=300, iteration_kind=kind)
        trace = run_driver(obj, np.full(6, -1.2), config, RngStream(7))
        best = trace.best_values()
        assert np.all(np.diff(best) <= 0.0)

    def test_quadratic_converges(self):
        # The expanding step rule is needed here: with no expansion the step
        # size only contracts, which stalls one-direction polling on the
        # sphere long before the gradient target.
        obj = ObjectiveHandle(lambda x: 0.5 * float(x @ x), 20)
        x0 = np.ones(20)
        config = DriverConfig(
            p=1, max_evaluations=2500, iteration_kind="ds-complete", expand_factor=2.0
        )
        trace = run_driver(obj, x0, config, RngStream(11))
        # Gradient of the half squared norm is the iterate itself.
        assert np.linalg.norm(trace.x) < 0.1 * np.linalg.norm(x0)

    def test_evaluation_accounting_per_iteration(self):
        g = sample_unit_vector(12, RngStream(4))
        for kind, cost in (("ds-complete", 6), ("mb", 4)):
            trace = run_driver(
                linear_objective(g),
                np.zeros(12),
                DriverConfig(p=3, max_evaluations=120, iteration_kind=kind),
                RngStream(5),
            )
            counts = np.array([r.eval_count for r in trace.records])
            assert np.all(np.diff(counts) == cost)

    def test_step_floor_stops(self):
        obj = ObjectiveHandle(lambda x: float(x @ x), 3)
        config = DriverConfig(
            p=1, max_evaluations=10_000, initial_step=1.0, min_step=0.25, contract_factor=0.5
        )
        trace = run_driver(obj, np.zeros(3), config, RngStream(0))
        # From the origin of the sphere every poll fails, so the step halves
        # each iteration (1.0, 0.5, 0.25) and the next value crosses the floor.
        assert trace.final.step_size == 0.25
        assert len(trace.records) == 4
        assert trace.final.eval_count == 7

    def test_basis_reconstruction_from_stream(self):
        # Iteration k uses the k-th basis of the driver stream's one generator.
        d, p = 10, 2
        g = sample_unit_vector(d, RngStream(6))
        driver_rng = RngStream(777)
        trace = run_driver(
            linear_objective(g),
            np.zeros(d),
            DriverConfig(p=p, max_evaluations=40),
            driver_rng,
        )
        best = trace.best_values()
        iterations = len(trace.records) - 1
        bases = list(
            itertools.islice(rng_module._bases(d, p, driver_rng.generator()), iterations)
        )
        assert len(bases) == iterations > 1
        assert bases[0].tobytes() == sample_stiefel(d, p, driver_rng).tobytes()
        for k, basis in enumerate(bases, start=1):
            expected = trace.records[k].step_size * np.max(np.abs(basis.T @ g))
            assert best[k - 1] - best[k] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize(
        "kind, d, p, budget",
        [
            ("ds-complete", 12, 1, 300),
            ("mb", 12, 1, 300),
            ("ds-opportunistic", 100, 2, 2000),
            ("mb", 300, 5, 400),
            ("mb", 1000, 10, 60),
            ("ds-opportunistic", 1000, 10, 600),
        ],
    )
    def test_budget_bound_run_draws_one_generator_per_iteration(
        self, monkeypatch, kind, d, p, budget
    ):
        # A linear objective always improves, so the step never reaches the
        # floor: the run is budget-bound.  The name is kept from when each
        # basis had a generator of its own; a run now makes exactly one, for
        # its stream.
        streams, shapes = count_draws(monkeypatch)
        g = sample_unit_vector(d, RngStream(8))
        streams.clear()
        shapes.clear()
        config = DriverConfig(p=p, max_evaluations=budget, iteration_kind=kind)
        driver_rng = RngStream(9)
        trace = run_driver(linear_objective(g), np.zeros(d), config, driver_rng)
        iterations = len(trace.records) - 1
        assert iterations > 1
        assert streams == [driver_rng]
        drawn = sum(math.prod(shape) for shape in shapes)
        cap = rng_module._STACK_VALUES
        if kind == "ds-opportunistic":
            # The first direction of every iteration improves, so each
            # iteration uses d normals of the unit directions, drawn d at a
            # time in stacks of at most cap values: about d per iteration.
            assert all(n * d <= max(cap, d) and k == d for n, k in shapes)
            assert iterations * d <= drawn < iterations * d + cap < iterations * d * p
        else:
            # No drawn basis goes unused: d * p normals per iteration.  At
            # p = 1 a model step costs 1 or 2 evaluations, so only a cap
            # re-read at each refill keeps the last stacks from overdrawing.
            assert all(math.prod(s) == d * p or math.prod(s) <= cap for s in shapes)
            assert drawn == iterations * d * p

    @pytest.mark.parametrize("min_step, iterations", [(0.3, 2), (1e-5, 17), (1e-9, 30)])
    def test_run_stopped_by_the_step_floor_leaves_fewer_bases_unused_than_used(
        self, monkeypatch, min_step, iterations
    ):
        # A constant objective never improves, so the step halves until it
        # falls below the floor long before the budget runs out.
        stack_sizes = []
        orthonormalize = rng_module._orthonormalize

        def recorded(a):
            stack_sizes.append(len(a))
            return orthonormalize(a)

        monkeypatch.setattr(rng_module, "_orthonormalize", recorded)
        config = DriverConfig(p=1, max_evaluations=10**5, min_step=min_step)
        trace = run_driver(ObjectiveHandle(lambda x: 0.0, 12), np.zeros(12), config, RngStream(3))
        assert len(trace.records) - 1 == iterations
        assert stack_sizes == [2**i for i in range(len(stack_sizes))]
        assert iterations <= sum(stack_sizes) < 2 * iterations

    @pytest.mark.parametrize("d, p", [(12, 3), (1000, 10)])
    @pytest.mark.parametrize("min_step, iterations", [(0.3, 2), (1e-5, 17)])
    def test_opportunistic_run_stopped_by_the_step_floor_leaves_fewer_directions_unused(
        self, monkeypatch, d, p, min_step, iterations
    ):
        # A constant objective never improves, so every iteration polls all p
        # directions and the step halves until it falls below the floor.
        _, shapes = count_draws(monkeypatch)
        config = DriverConfig(
            p=p, max_evaluations=10**5, min_step=min_step, iteration_kind="ds-opportunistic"
        )
        trace = run_driver(ObjectiveHandle(lambda x: 0.0, d), np.zeros(d), config, RngStream(3))
        assert len(trace.records) - 1 == iterations
        cap = rng_module._STACK_VALUES // d
        assert shapes == [(min(2**i, cap), d) for i in range(len(shapes))]
        used = iterations * p
        assert used <= sum(n for n, _ in shapes) < 2 * used

    def test_opportunistic_directions_are_orthonormal_and_uniform(self):
        # Every direction a constant objective's run polls, grouped by
        # iteration: within one, the p directions are orthonormal, and the
        # first and the last are each uniform on the sphere, E (b . u)^2 = 1/d.
        # The run stays at the origin, so it polls +delta b, then -delta b.
        d, p, iterations = 20, 4, 2000
        objective, seen = recording_objective(lambda x: 1.0, d)
        config = DriverConfig(
            p=p,
            max_evaluations=1 + 2 * p * iterations,
            contract_factor=0.99,
            min_step=1e-300,
            iteration_kind="ds-opportunistic",
        )
        trace = run_driver(objective, np.zeros(d), config, RngStream(21))
        assert len(trace.records) - 1 == iterations
        points = np.array(seen[1:]).reshape(iterations, p, 2, d)
        assert np.array_equal(points[:, :, 1], -points[:, :, 0])
        steps = np.array([r.step_size for r in trace.records[1:]])
        bases = points[:, :, 0] / steps[:, np.newaxis, np.newaxis]
        gram = bases @ np.swapaxes(bases, 1, 2)
        assert np.max(np.abs(gram - np.eye(p))) <= 1e-10
        u = sample_unit_vector(d, RngStream(22))
        for j in (0, p - 1):
            squares = (bases[:, j] @ u) ** 2
            se = squares.std(ddof=1) / math.sqrt(iterations)
            assert abs(squares.mean() - 1.0 / d) <= 3.0 * se

    @pytest.mark.parametrize("p", [1, 3])
    def test_opportunistic_decrease_per_evaluation_matches_formula(self, p):
        # On a linear objective the first direction of every iteration
        # improves and, with expand factor 1, the step stays delta: decrease
        # delta |g . b_1| for 1 or 2 evaluations.  The pooled ratio of total
        # decrease to total evaluations, over delta |g|, estimates the formula;
        # its standard error is the delta method's for a ratio of means.
        d, runs, budget = 16, 8, 1500
        decreases, costs = [], []
        for k in range(runs):
            g = sample_unit_vector(d, RngStream(100 + k))
            config = DriverConfig(p=p, max_evaluations=budget, iteration_kind="ds-opportunistic")
            trace = run_driver(linear_objective(g), np.zeros(d), config, RngStream(200 + k))
            assert {r.step_size for r in trace.records} == {1.0}
            decreases.append(-np.diff(trace.best_values()) / np.linalg.norm(g))
            costs.append(np.diff([r.eval_count for r in trace.records]))
        decrease, cost = np.concatenate(decreases), np.concatenate(costs)
        ratio = decrease.sum() / cost.sum()
        se = (decrease - ratio * cost).std(ddof=1) / math.sqrt(decrease.size) / cost.mean()
        assert set(np.unique(cost)) == {1, 2}
        assert abs(ratio - per_evaluation_opportunistic(p, d)) <= 3.0 * se

    def test_dimension_mismatch(self):
        g = sample_unit_vector(4, RngStream(0))
        objective = linear_objective(g)
        # The handle refuses the point before it calls the function or counts it.
        with pytest.raises(InvalidDimensionError, match=re.escape("length 4, got shape (5,)")):
            run_driver(objective, np.zeros(5), DriverConfig(p=1, max_evaluations=10), RngStream(0))
        assert objective.eval_count == 0
        with pytest.raises(InvalidDimensionError, match="need 1 <= p <= d, got p=5, d=4"):
            run_driver(
                linear_objective(g), np.zeros(4), DriverConfig(p=5, max_evaluations=10), RngStream(0)
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_start_is_refused_before_any_evaluation(self, bad):
        x0 = np.array([1.0, 1.0, 2.0])
        x0[0] = bad
        for fn in (lambda x: 0.0 if math.isnan(x[0]) else float(x @ x), lambda x: float(x @ x)):
            objective = ObjectiveHandle(fn, 3)
            config = DriverConfig(p=1, max_evaluations=40)
            with pytest.raises(DomainError, match=f"x0 must be finite, got {bad} at coordinate 0"):
                run_driver(objective, x0, config, RngStream(0))
            assert objective.eval_count == 0

    @pytest.mark.parametrize("kind", optimizer_module.ITERATION_KINDS)
    def test_step_expanded_to_infinity_is_refused(self, kind):
        # On an objective unbounded below every step improves, so the step
        # grows 1, 1e300, inf; the iteration refuses the infinite step before
        # evaluating at it.
        objective = linear_objective(sample_unit_vector(4, RngStream(2)))
        config = DriverConfig(p=1, max_evaluations=40, expand_factor=1e300, iteration_kind=kind)
        with pytest.raises(DomainError, match="delta must be finite, got inf"):
            run_driver(objective, np.zeros(4), config, RngStream(3))
        assert objective.eval_count <= 5

    def test_non_finite_objective_aborts(self):
        obj = ObjectiveHandle(lambda x: math.nan if x[0] != 0.0 else 0.0, 2)
        with pytest.raises(NonFiniteObjectiveError):
            run_driver(obj, np.zeros(2), DriverConfig(p=1, max_evaluations=10), RngStream(0))


class TestDriverConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(p=0, max_evaluations=1),
            dict(p=1, max_evaluations=-1),
            dict(p=1, max_evaluations=1, initial_step=0.0),
            dict(p=1, max_evaluations=1, contract_factor=1.0),
            dict(p=1, max_evaluations=1, expand_factor=0.9),
            dict(p=1, max_evaluations=1, iteration_kind="newton"),
            dict(p=1, max_evaluations=1, initial_step=math.nan),
            dict(p=1, max_evaluations=1, initial_step=math.inf),
            dict(p=1, max_evaluations=1, min_step=math.nan),
            dict(p=1, max_evaluations=1, expand_factor=math.nan),
            dict(p=1, max_evaluations=1, expand_factor=math.inf),
        ],
    )
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(Exception):
            DriverConfig(**kwargs)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("initial_step", "1.0"),
            ("initial_step", True),
            ("expand_factor", True),
            ("expand_factor", "2"),
            ("contract_factor", None),
            ("contract_factor", 0.5j),
            ("min_step", None),
            ("min_step", False),
        ],
    )
    def test_rejects_a_non_real_factor(self, key, value):
        kwargs = dict(p=1, max_evaluations=40)
        kwargs[key] = value
        with pytest.raises(ValueError, match=f"{key} must be a real number, got {value!r}"):
            DriverConfig(**kwargs)

    def test_accepts_integer_and_numpy_factors(self):
        config = DriverConfig(
            p=1, max_evaluations=40, initial_step=2, expand_factor=np.float64(1.5), min_step=1e-3
        )
        assert config.initial_step == 2 and config.expand_factor == 1.5

    @pytest.mark.parametrize("key, value", [("p", 2.0), ("p", True), ("max_evaluations", 40.5)])
    def test_rejects_a_non_integer_count(self, key, value):
        kwargs = dict(p=1, max_evaluations=40)
        kwargs[key] = value
        message = f"{key} must be (a positive integer|an integer >= 0), got {value!r}"
        with pytest.raises(ValueError, match=message):
            DriverConfig(**kwargs)


class TestSmoothDecreaseBound:
    def test_chosen_direction_mean_decrease(self):
        # For a gradient-Lipschitz objective and the one-dimensional polling
        # scheme, the mean decrease at a fixed point is at least half the
        # directional-derivative gain once the step is small enough.
        d, n, delta = 10, 20_000, 0.2
        x = np.zeros(d)
        x[0] = 1.0

        def f(y):
            return 0.5 * float(y @ y)

        base = RngStream(17)
        decreases = np.empty(n)
        directional = np.empty(n)
        for i in range(n):
            b = sample_unit_vector(d, split_stream(base, i))
            candidates = (x + delta * b, x - delta * b, x)
            values = [f(c) for c in candidates]
            j = int(np.argmin(values))
            decreases[i] = values[j] - f(x)
            directional[i] = (x @ (candidates[j] - x)) / delta
        gamma = -directional.mean()
        assert gamma > 0.0
        mean = decreases.mean()
        se = decreases.std(ddof=1) / math.sqrt(n)
        assert mean <= -(gamma / 2.0) * delta + 3.0 * se
