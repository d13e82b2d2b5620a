"""Random-subspace derivative-free optimizer.

Each outer iteration draws a fresh uniformly random orthonormal basis
b_1, ..., b_p of a p-dimensional subspace, which is the read-only d-by-p
array whose columns are the b_i, and runs one inner iteration around the
incumbent x: either coordinate polling (complete or opportunistic) or a
forward-difference linear-model step.  Complete polling and the model step
build their points as the rows of one matrix, x + delta b_1, x - delta b_1,
x + delta b_2, ... when polling and x + delta b_i for the model step, and
evaluate them in order.  Opportunistic polling stops at the first improving
point, so it draws its directions one at a time and polls each as it comes:
the directions it never reaches are never drawn.
The incumbent value is carried between iterations and never re-evaluated, so
the per-iteration evaluation cost is exactly 2p for complete polling and
p + 1 for the model step (p = 1 model steps reuse their poll point when the
model already points at it).

The evaluation budget is a hard cap.  An iteration starts only if its largest
possible cost, points * p + trial from the ``formulas.Variant`` record (2p
when polling, p + 1 for the model step), fits in what is left of the budget,
so no iteration is ever cut short.  The initial point is always evaluated
once, even with a zero budget.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import (
    DomainError, InvalidDimensionError, NonFiniteObjectiveError, _check_positive, _is_int
)
from .formulas import Variant
from .rng import RngStream, _bases, _orthonormal_extension, _unit_directions

# Each iteration kind and the name of the variant (``formulas.Variant``) it runs.
ITERATION_KINDS = {"ds-complete": "ds", "ds-opportunistic": "ds", "mb": "mb"}

# Below this simplex-gradient norm the model direction is undefined and the
# iteration keeps the incumbent.
_GRADIENT_FLOOR = 1e-14


class ObjectiveHandle:
    """Black-box objective with an evaluation counter.

    The counter increments exactly once per evaluation; the driver evaluates
    points one at a time, from one thread.  A non-finite objective value is
    counted, then aborts the run: silently propagating NaN would corrupt every
    later comparison.
    """

    def __init__(self, fn: Callable[[np.ndarray], float], dimension: int, name: str = ""):
        _check_positive(dimension, "dimension")
        self._fn = fn
        self.dimension = int(dimension)
        self.name = name
        self._count = 0

    @property
    def eval_count(self) -> int:
        return self._count

    def __call__(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dimension,):
            raise InvalidDimensionError(
                f"objective expects a vector of length {self.dimension}, got shape {x.shape}"
            )
        value = float(self._fn(x))
        self._count += 1
        if not math.isfinite(value):
            # A summary of x: at d = 1000 the full point is some 20 kB of text.
            summary = np.array2string(
                x, max_line_width=200, precision=6, threshold=8, edgeitems=3
            )
            raise NonFiniteObjectiveError(
                f"objective {self.name or self._fn!r} returned {value!r} "
                f"at a point of dimension {self.dimension}, x = {summary}"
            )
        return value


@dataclass
class DriverConfig:
    """Outer-loop configuration.

    The step size contracts on iterations with zero decrease and expands on
    strict decrease; the default expand factor of 1 leaves successful steps
    unchanged.  ``max_evaluations`` is a hard cap on one run's evaluations,
    counted from zero at the run's start: an iteration starts only if its
    largest possible cost (2p evaluations when polling, p + 1 for the model
    step) fits in what is left of it, and the initial point is evaluated once
    even when it is 0.  The run stops when the next iteration would not fit
    or the step size falls below ``min_step``, whichever happens first.
    """

    p: int
    max_evaluations: int
    initial_step: float = 1.0
    expand_factor: float = 1.0
    contract_factor: float = 0.5
    min_step: float = 1e-9
    iteration_kind: str = "ds-complete"

    def __post_init__(self) -> None:
        for key in ("p", "max_evaluations"):
            if not _is_int(getattr(self, key)):
                raise ValueError(f"{key} must be an integer, got {getattr(self, key)!r}")
        if self.p < 1:
            raise InvalidDimensionError(f"subspace dimension must be positive, got {self.p}")
        if self.max_evaluations < 0:
            raise ValueError("evaluation budget cannot be negative")
        for key in ("initial_step", "expand_factor", "contract_factor", "min_step"):
            value = getattr(self, key)
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
                raise ValueError(f"{key} must be a real number, got {value!r}")
            if not math.isfinite(value):
                raise DomainError(f"{key} must be finite, got {value!r}")
        if self.initial_step <= 0.0 or self.min_step <= 0.0:
            raise DomainError("step sizes must be positive")
        if not (0.0 < self.contract_factor < 1.0):
            raise DomainError(f"contract factor must be in (0, 1), got {self.contract_factor}")
        if self.expand_factor < 1.0:
            raise DomainError(f"expand factor must be >= 1, got {self.expand_factor}")
        if self.iteration_kind not in ITERATION_KINDS:
            raise ValueError(
                f"iteration kind must be one of {tuple(ITERATION_KINDS)}, "
                f"got {self.iteration_kind!r}"
            )


@dataclass(frozen=True)
class TraceRecord:
    """One row of the driver trace.

    ``eval_count`` counts the run's evaluations up to this row.  ``step_size``
    on row k >= 1 is the step used during iteration k; row 0 carries the
    initial step.
    """

    iteration: int
    eval_count: int
    best_value: float
    step_size: float


@dataclass
class DriverTrace:
    """One run's records, and ``x``, its final point: f(``x``) is the final best value."""

    records: list[TraceRecord]
    x: np.ndarray = field(compare=False)

    def best_values(self) -> np.ndarray:
        return np.array([r.best_value for r in self.records])

    @property
    def final(self) -> TraceRecord:
        return self.records[-1]


def _checked_basis(x: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """``basis`` as a float array, checked to be len(x)-by-p with p >= 1."""
    basis = np.asarray(basis, dtype=float)
    if basis.ndim != 2 or basis.shape[0] != len(x) or basis.shape[1] < 1:
        raise InvalidDimensionError(f"basis must be {len(x)}-by-p, p >= 1, got {basis.shape}")
    return basis


def _check_delta(delta: float) -> None:
    # Written so that a NaN step fails; an infinite one reaches the objective.
    if not delta > 0.0:
        raise DomainError(f"delta must be positive, got {delta}")


def ds_iteration(
    objective: ObjectiveHandle,
    x: np.ndarray,
    fx: float,
    basis: np.ndarray,
    delta: float,
) -> tuple[np.ndarray, float, int]:
    """One complete polling iteration over the 2p signed basis directions
    around x.

    ``basis`` is a len(x)-by-p array with columns b_1, ..., b_p, p >= 1; its
    shape is checked, and orthonormal columns, which every basis ``rng``
    draws has, are the caller's contract.  The poll points are the
    rows x + delta b_1, x - delta b_1, x + delta b_2, ... of one matrix, all
    evaluated in that order, and the iteration moves to the best, keeping
    the incumbent on ties (ties resolve to the lowest index, positive sign
    first).  Returns the point moved to, its value and the new evaluations;
    ``fx`` is the known value at x and is not re-evaluated.
    """
    _check_delta(delta)
    basis = _checked_basis(x, basis)
    # Built row by row C-contiguous: the objective then reads each point as
    # one contiguous vector, as it would a freshly computed x + delta b_i.
    steps = delta * basis.T
    points = np.empty((2 * basis.shape[1], len(x)))
    np.add(x, steps, out=points[0::2])
    np.subtract(x, steps, out=points[1::2])
    best, best_value, evaluations = x, fx, 0
    for point in points:
        value = objective(point)
        evaluations += 1
        if value < best_value:
            best, best_value = point, value
    return best, best_value, evaluations


def mb_iteration(
    objective: ObjectiveHandle, x: np.ndarray, fx: float, basis: np.ndarray, delta: float
) -> tuple[np.ndarray, float, int]:
    """One linear-model iteration: forward differences, then a trust-region step.

    ``basis`` is a d-by-p array, as for :func:`ds_iteration`.  Evaluates the
    rows x + delta b_i of one matrix, forms the forward-difference gradient
    (f(x + delta b_i) - fx) / delta in the subspace, steps delta
    against its normalized direction, and keeps the better of incumbent and
    trial.  When p = 1 and the model points back along the already-evaluated
    poll point, that value is reused instead of a new evaluation.  A
    numerically zero gradient keeps the incumbent (the step direction would be
    undefined).  Returns the point moved to, its value and the new evaluations.
    """
    _check_delta(delta)
    basis = _checked_basis(x, basis)
    p = basis.shape[1]
    points = np.empty((p, len(x)))
    np.add(x, delta * basis.T, out=points)
    poll_values = np.array([objective(point) for point in points])
    evaluations = p
    grad = (poll_values - fx) / delta
    grad_norm = float(np.linalg.norm(grad))
    if grad_norm < _GRADIENT_FLOOR:
        return x, fx, evaluations
    if p == 1 and grad[0] < 0.0:
        # Model points along +b_1: the trial point is the evaluated poll point.
        trial, trial_value = points[0], float(poll_values[0])
    else:
        trial = x + basis @ (-(delta / grad_norm) * grad)
        trial_value = objective(trial)
        evaluations += 1
    if trial_value < fx:
        return trial, trial_value, evaluations
    return x, fx, evaluations


def _opportunistic_iteration(
    objective: ObjectiveHandle,
    x: np.ndarray,
    fx: float,
    delta: float,
    p: int,
    directions: Iterator[np.ndarray],
) -> tuple[np.ndarray, float, int]:
    """Opportunistic polling over up to p directions, drawn as they are polled.

    Direction j is the next unit vector of ``directions``, made orthonormal
    to this iteration's earlier directions (``rng._orthonormal_extension``)
    when it has any; they have the joint law of a basis's columns.  The
    iteration polls x + delta b_j, then x - delta b_j, and stops at the
    first strict improvement, so it draws only the directions it polls.
    Returns the point moved to, its value and the new evaluations.
    """
    earlier = np.empty((p, len(x)))
    evaluations = 0
    for j in range(p):
        b = next(directions)
        earlier[j] = b = _orthonormal_extension(earlier[:j], b) if j else b
        for point in (x + delta * b, x - delta * b):
            value = objective(point)
            evaluations += 1
            if value < fx:
                return point, value, evaluations
    return x, fx, evaluations


def run_driver(
    objective: ObjectiveHandle,
    x0: Sequence[float] | np.ndarray,
    config: DriverConfig,
    rng: RngStream,
) -> DriverTrace:
    """Run the random-subspace driver until the budget or step floor is hit.

    The run makes one generator, ``rng.generator()``, and reads every
    direction from it.  For ds-complete and mb, iteration k (counting from 0)
    uses its k-th basis (``rng._bases``): iteration 0 uses
    ``sample_stiefel(d, p, rng)``.  Each refill of bases is capped at the
    iterations the remaining budget guarantees, so a budget-bound run uses
    every basis it draws.  A ds-opportunistic iteration instead reads unit
    directions (``rng._unit_directions``) and stops at its first strict
    improvement (``_opportunistic_iteration``).  A run that stops at the step
    floor leaves fewer bases, or directions, unused than it used.  ``x0``
    must be finite.  The initial point is always evaluated once before the
    loop, and an iteration starts only if its largest possible cost fits in
    what is left of ``config.max_evaluations``.  The budget and the records'
    ``eval_count`` count this run's evaluations only, so runs on one handle
    do not share a budget.  The trace starts with the initial record and
    gains one record per iteration, with best values nonincreasing by
    construction.  Its ``x`` is a copy of the final point, made once when
    the run returns: the final best value is f(``trace.x``).
    """
    x = np.asarray(x0, dtype=float)
    d = objective.dimension
    if x.shape != (d,):
        raise InvalidDimensionError(f"x0 has shape {x.shape}, objective expects ({d},)")
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        raise DomainError(f"x0 must be finite, got {x[bad[0]]} at coordinate {bad[0]}")
    if config.p > d:
        raise InvalidDimensionError(f"subspace dimension {config.p} exceeds ambient {d}")

    fx = objective(x)
    evaluations = 1
    delta = config.initial_step
    records = [TraceRecord(0, evaluations, fx, delta)]

    kind = config.iteration_kind
    variant = Variant.named(ITERATION_KINDS[kind])
    largest_cost = variant.points * config.p + variant.trial
    gen = rng.generator()
    directions = _unit_directions(d, gen)
    bases = _bases(
        d, config.p, gen, limit=lambda: (config.max_evaluations - evaluations) // largest_cost
    )
    while evaluations + largest_cost <= config.max_evaluations and delta >= config.min_step:
        if kind == "ds-opportunistic":
            x_new, f_new, spent = _opportunistic_iteration(
                objective, x, fx, delta, config.p, directions
            )
        elif kind == "mb":
            x_new, f_new, spent = mb_iteration(objective, x, fx, next(bases), delta)
        else:
            x_new, f_new, spent = ds_iteration(objective, x, fx, next(bases), delta)
        evaluations += spent
        records.append(TraceRecord(len(records), evaluations, f_new, delta))
        delta *= config.expand_factor if f_new < fx else config.contract_factor
        x, fx = x_new, f_new
    return DriverTrace(records, x.copy())
