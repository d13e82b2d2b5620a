"""Reproduction grids, parallel-cost sweeps, named objectives, and the gate suite.

Everything here is deterministic given a seed: each Monte Carlo cell derives
its child stream from the cell's identity (variant, p, d), CSV serialization
uses a fixed header and 17 significant digits, and re-running any experiment
with the same spec and seed produces byte-identical output.
"""

from __future__ import annotations

import dataclasses
import datetime
import json
import math
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from . import __version__
from .errors import _check_cores, _check_positive, _is_int
from .formulas import (
    VARIANTS,
    Variant,
    expected_decrease_ds,
    expected_decrease_mb,
    polling_factor,
)
from .montecarlo import SAMPLER, estimate, full_basis_estimates, paired_ratio_gap
from .optimizer import (
    DriverConfig,
    DriverTrace,
    ObjectiveHandle,
    mb_iteration,
    run_driver,
)
from .rng import RngStream, sample_stiefel_stack, sample_unit_vector, split_stream
from .specfun import gamma_half_ratio

DEFAULT_NSIMS = 10_000
DEFAULT_SEED = 0

D_GRID = (8, 16, 32, 64, 128, 256, 512, 1024)
P_LIST_VARY_P = (1, 2, 3, 4, 5, 10, 20, 50, 100, 200, 500, 1000)
D_VARY_P = 1000

METRIC_ITERATION = "per-iteration"
METRIC_EVALUATION = "per-evaluation"

METHOD_MC = "mc"
METHOD_EXACT = "exact"
METHOD_ASYMPTOTIC = "asymptotic"

CSV_HEADER = "variant,d,p,method,metric,value,std_error,n_sims,seed"

FIGURE_NAMES = (
    "ds-vary-d",
    "ds-vary-p",
    "ds-perfev-vary-d",
    "ds-perfev-vary-p",
    "mb-vary-d",
    "mb-vary-p",
    "mb-perfev-vary-d",
    "mb-perfev-vary-p",
    "parallel-sweep",
)

OBJECTIVE_NAMES = ("linear-random-g", "sphere-quadratic", "rosenbrock")

# Ratio of the polling decrease to the dimension factor at subspace dimensions
# 3 and 4, rounded from the symbolic evaluation of the nested integral.
DS_RATIO_P3 = 0.938
DS_RATIO_P4 = 1.036


@dataclass(frozen=True)
class ResultRow:
    """One cell of an experiment table.

    ``std_error`` is present exactly when the value came from Monte Carlo;
    ``n_sims`` and ``seed`` likewise record provenance for those rows only.
    """

    variant: str
    d: int
    p: int
    method: str
    metric: str
    value: float
    std_error: float | None = None
    n_sims: int | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if not (0.0 < self.value <= 1.0):
            raise ValueError(f"expected decrease must lie in (0, 1], got {self.value!r}")
        if (self.std_error is not None) != (self.method == METHOD_MC):
            raise ValueError("std_error is present exactly for Monte Carlo rows")


def _fmt(x: float) -> str:
    return format(x, ".17g")


def rows_to_csv(rows: list[ResultRow]) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        se = _fmt(r.std_error) if r.std_error is not None else ""
        n = str(r.n_sims) if r.n_sims is not None else ""
        seed = str(r.seed) if r.seed is not None else ""
        lines.append(
            f"{r.variant},{r.d},{r.p},{r.method},{r.metric},{_fmt(r.value)},{se},{n},{seed}"
        )
    return "\n".join(lines) + "\n"


def write_manifest(path: str | Path, payload: dict) -> None:
    """Write ``payload`` as JSON with the package version, the Monte Carlo
    sampler and the creation time added."""
    payload = {
        **payload,
        "version": __version__,
        "sampler": SAMPLER,
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="ascii", newline="\n"
    )


def _int_tuple(key: str, values: object) -> tuple[int, ...]:
    """``values`` as a tuple of distinct ints, or a ValueError that names ``key``."""
    if not isinstance(values, (list, tuple)) or not all(_is_int(v) for v in values):
        raise ValueError(f"{key} must be a list of integers, got {values!r}")
    if len(set(values)) < len(values):
        raise ValueError(f"{key} must not repeat a value, got {values!r}")
    return tuple(int(v) for v in values)


@dataclass
class ExperimentSpec:
    """Declarative description of a reproduction grid.

    ``p_rule`` is either an explicit tuple of subspace dimensions or the
    string ``"standard"`` meaning {1, 2, d/2, d} per ambient dimension (integer
    division; duplicates collapse).  ``outputs`` selects per-iteration rows,
    per-evaluation rows, or both; ``include`` selects which methods to emit.
    ``d_values`` and an explicit ``p_rule`` repeat no value, and ``include``
    names at least one method, so every row of a grid is emitted once.
    """

    name: str
    variant: str
    d_values: tuple[int, ...]
    p_rule: tuple[int, ...] | str = "standard"
    n_sims: int = DEFAULT_NSIMS
    seed: int = DEFAULT_SEED
    outputs: str = "decrease"
    include: tuple[str, ...] = ("formula", "monte-carlo", "asymptotic")

    def __post_init__(self) -> None:
        Variant.named(self.variant)
        self.d_values = _int_tuple("d_values", self.d_values)
        if not self.d_values or any(d < 1 for d in self.d_values):
            raise ValueError(f"d_values must be positive, got {self.d_values}")
        if isinstance(self.p_rule, str):
            if self.p_rule != "standard":
                raise ValueError(f"unknown p rule {self.p_rule!r}")
        else:
            self.p_rule = _int_tuple("p_rule", self.p_rule)
            if any(p < 1 for p in self.p_rule):
                raise ValueError(f"p values must be positive, got {self.p_rule}")
            # Each d runs the p values up to d (see p_values_for).
            top = max(self.d_values)
            if all(p > top for p in self.p_rule):
                raise ValueError(f"no p value is at most max(d) = {top}, got {self.p_rule}")
        for key in ("n_sims", "seed"):
            if not _is_int(getattr(self, key)):
                raise ValueError(f"{key} must be an integer, got {getattr(self, key)!r}")
        if self.n_sims < 2:
            raise ValueError(
                f"n_sims must be at least 2 for a standard error, got {self.n_sims}"
            )
        if self.outputs not in ("decrease", "per-evaluation", "both"):
            raise ValueError(f"unknown outputs selector {self.outputs!r}")
        if not isinstance(self.include, (list, tuple)) or not all(
            isinstance(flag, str) for flag in self.include
        ):
            raise ValueError(f"include must be a list of method names, got {self.include!r}")
        self.include = tuple(self.include)
        if not self.include:
            raise ValueError("include must name at least one method, got none")
        unknown = set(self.include) - {"formula", "monte-carlo", "asymptotic"}
        if unknown:
            raise ValueError(f"unknown include flags {sorted(unknown)}")

    def merged(self, config: object, **flags) -> "ExperimentSpec":
        """This spec with the keys of ``config``, then the ``flags`` that are
        not None, in place of its own values; the result is validated once.

        ``config`` is a JSON object of field names.  Its name and variant may
        only repeat this spec's, which fix the figure; a null value is
        refused like any other value of the wrong type.
        """
        if not isinstance(config, dict):
            raise ValueError(f"spec must be an object of named fields, got {config!r}")
        known = sorted(f.name for f in dataclasses.fields(self))
        unknown = sorted(set(config) - set(known))
        if unknown:
            raise ValueError(f"unknown spec keys {unknown}; known keys are {known}")
        for key in ("name", "variant"):
            if config.get(key, getattr(self, key)) != getattr(self, key):
                raise ValueError(
                    f"config {key} {config[key]!r} disagrees with figure {self.name}, "
                    f"whose {key} is {getattr(self, key)}"
                )
        flags = {k: v for k, v in flags.items() if v is not None}
        return dataclasses.replace(self, **{**config, **flags})


def p_values_for(d: int, p_rule: tuple[int, ...] | str) -> tuple[int, ...]:
    if p_rule == "standard":
        return tuple(sorted({p for p in (1, 2, d // 2, d) if 1 <= p <= d}))
    return tuple(p for p in p_rule if p <= d)


def cell_stream(base: RngStream, variant: str, p: int, d: int) -> RngStream:
    """Child stream for one Monte Carlo cell, keyed by the cell's identity.

    Keying by (variant, p, d) rather than by enumeration order keeps a cell's
    randomness stable when grids are edited.
    """
    variant_index = VARIANTS.index(variant)
    return split_stream(split_stream(split_stream(base, variant_index), p), d)


def _metrics_for(outputs: str) -> tuple[str, ...]:
    if outputs == "decrease":
        return (METRIC_ITERATION,)
    if outputs == "per-evaluation":
        return (METRIC_EVALUATION,)
    return (METRIC_ITERATION, METRIC_EVALUATION)


def run_named_figure(spec: ExperimentSpec) -> list[ResultRow]:
    """Rows of a vary-d or vary-p grid: per cell, the methods ``spec.include``
    selects, for the metrics ``spec.outputs`` selects.

    Cell streams are keyed by cell identity under RngStream(spec.seed), so
    reruns with the same spec are bit-identical.
    """
    record = Variant.named(spec.variant)
    base = RngStream(spec.seed)
    metrics = _metrics_for(spec.outputs)
    rows: list[ResultRow] = []
    for d in spec.d_values:
        for p in p_values_for(d, spec.p_rule):
            # Per-evaluation rows divide by the evaluations of one iteration.
            scales = [1.0 if m == METRIC_ITERATION else record.rounds(p, 1) for m in metrics]
            if "monte-carlo" in spec.include:
                est = estimate(
                    spec.variant, p, d, spec.n_sims, cell_stream(base, spec.variant, p, d)
                )
                rows += [
                    ResultRow(
                        spec.variant, d, p, METHOD_MC, metric, est.mean / scale,
                        est.std_error / scale, est.n_sims, est.seed,
                    )
                    for metric, scale in zip(metrics, scales)
                ]
            values = {}
            if "formula" in spec.include:
                values[METHOD_EXACT] = record.exact(p, d)
            if "asymptotic" in spec.include:
                values[METHOD_ASYMPTOTIC] = record.asymptotic(p, d)
            rows += [
                ResultRow(spec.variant, d, p, method, metric, value / scale)
                for method, value in values.items()
                for metric, scale in zip(metrics, scales)
            ]
    return rows


def default_figure_spec(
    name: str, n_sims: int = DEFAULT_NSIMS, seed: int = DEFAULT_SEED
) -> ExperimentSpec:
    if name not in FIGURE_NAMES or name == "parallel-sweep":
        raise ValueError(f"no grid spec for figure {name!r}")
    variant, _, rest = name.partition("-")
    perfev = rest.startswith("perfev")
    vary_p = rest.endswith("vary-p")
    if vary_p:
        d_values: tuple[int, ...] = (D_VARY_P,)
        p_rule: tuple[int, ...] | str = P_LIST_VARY_P
        include: tuple[str, ...] = ("formula", "monte-carlo")
    else:
        d_values = D_GRID
        p_rule = "standard"
        include = ("formula", "monte-carlo", "asymptotic")
    return ExperimentSpec(
        name=name,
        variant=variant,
        d_values=d_values,
        p_rule=p_rule,
        n_sims=n_sims,
        seed=seed,
        outputs="per-evaluation" if perfev else "decrease",
        include=include,
    )


# Grid points per core count of a parallel sweep.
SWEEP_MULTIPLES = 100


@dataclass(frozen=True)
class SweepSummary:
    """Argmax report for one core count of a parallel sweep."""

    cores: int
    argmax_p: int
    max_value: float
    tied_p: tuple[int, ...]


def run_parallel_sweep(
    variant: str, d: int, cores_list: tuple[int, ...]
) -> tuple[list[ResultRow], list[SweepSummary]]:
    """Exact expected decrease per batched evaluation round over a p grid, per
    core count: the first ``SWEEP_MULTIPLES`` multiples of the variant's
    sweep step, up to d.

    Each summary reports the grid argmax (first index on ties within 1e-12)
    and every tied grid point.
    """
    record = Variant.named(variant)
    _check_positive(d, "dimension")
    for cores in cores_list:
        _check_cores(cores)
    rows: list[ResultRow] = []
    summaries: list[SweepSummary] = []
    for cores in cores_list:
        metric = f"per-work({cores})"
        step = record.sweep_step(cores)
        grid = tuple(range(step, min(SWEEP_MULTIPLES * step, d) + 1, step))
        if not grid:
            raise ValueError(
                f"{variant} sweep at c={cores} cores has an empty p grid at d={d}; "
                "use a larger d or fewer cores"
            )
        values = [record.per_work(p, d, cores) for p in grid]
        rows += [ResultRow(variant, d, p, METHOD_EXACT, metric, v) for p, v in zip(grid, values)]
        top = max(values)
        tied = tuple(p for p, v in zip(grid, values) if v >= top - max(1e-12, 1e-12 * abs(top)))
        summaries.append(SweepSummary(cores, tied[0], top, tied))
    return rows, summaries


def make_objective(name: str, d: int, rng: RngStream) -> tuple[ObjectiveHandle, np.ndarray]:
    """Named test objective plus its conventional starting point.

    ``linear-random-g`` draws a uniformly random unit gradient from ``rng``
    and starts at the origin; ``sphere-quadratic`` is half the squared norm
    from the all-ones point; ``rosenbrock`` uses the classic alternating
    start.
    """
    _check_positive(d, "dimension")
    if name == "linear-random-g":
        g = sample_unit_vector(d, rng)

        def linear(x: np.ndarray) -> float:
            return float(g @ x)

        return ObjectiveHandle(linear, d, name=name), np.zeros(d)
    if name == "sphere-quadratic":

        def sphere(x: np.ndarray) -> float:
            return 0.5 * float(x @ x)

        return ObjectiveHandle(sphere, d, name=name), np.ones(d)
    if name == "rosenbrock":

        def rosen(x: np.ndarray) -> float:
            return float(
                np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2)
            )

        x0 = np.ones(d)
        x0[::2] = -1.2
        return ObjectiveHandle(rosen, d, name=name), x0
    raise ValueError(f"unknown objective {name!r}; choose from {OBJECTIVE_NAMES}")


def run_optimizer_experiment(
    function_name: str, d: int, config: DriverConfig, seed: int = DEFAULT_SEED
) -> tuple[DriverTrace, ObjectiveHandle]:
    """Drive a named objective from one seed.

    Child stream 0 of the seed drives the optimizer, child stream 1 draws any
    randomness the objective itself needs, so traces are reproducible.
    """
    base = RngStream(seed)
    objective, x0 = make_objective(function_name, d, split_stream(base, 1))
    trace = run_driver(objective, x0, config, split_stream(base, 0))
    return trace, objective


TRACE_HEADER = "iteration,eval_count,best_value,step_size"


def trace_to_csv(trace: DriverTrace) -> str:
    lines = [TRACE_HEADER]
    for r in trace.records:
        lines.append(f"{r.iteration},{r.eval_count},{_fmt(r.best_value)},{_fmt(r.step_size)}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------------
# Verification gates.  Each gate checks one acceptance bullet end to end and
# reports a deterministic detail string; the CLI turns failures into a nonzero
# exit code.
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class GateResult:
    criterion: int
    name: str
    passed: bool
    detail: str


def _gate_stream(seed: int, criterion: int) -> RngStream:
    return split_stream(RngStream(seed), criterion)


def gate_ds_closed_form(n_sims: int = DEFAULT_NSIMS, seed: int = DEFAULT_SEED) -> GateResult:
    """Polling closed forms at p in {1, 2} versus MC over the dimension grid."""
    base = _gate_stream(seed, 1)
    worst = 0.0
    worst_cell = (0, 0)
    ok = True
    for d in D_GRID:
        for p in (1, 2):
            est = estimate("ds", p, d, n_sims, cell_stream(base, "ds", p, d))
            exact = expected_decrease_ds(p, d)
            z = abs(est.mean - exact) / est.std_error
            if z > worst:
                worst, worst_cell = z, (p, d)
            ok = ok and z <= 3.0
    return GateResult(
        1,
        "ds-closed-form-vs-mc",
        ok,
        f"max |z| = {_fmt(worst)} at (p={worst_cell[0]}; d={worst_cell[1]}); gate |z| <= 3",
    )


def gate_mb_closed_form(n_sims: int = DEFAULT_NSIMS, seed: int = DEFAULT_SEED) -> GateResult:
    """Model closed form versus MC at p in {1, 2, d/2, d}; p = d must be exact."""
    base = _gate_stream(seed, 2)
    worst = 0.0
    worst_cell = (0, 0)
    ok = True
    for d in D_GRID:
        for p in p_values_for(d, "standard"):
            est = estimate("mb", p, d, n_sims, cell_stream(base, "mb", p, d))
            exact = expected_decrease_mb(p, d)
            if p == d:
                ok = ok and exact == 1.0 and est.mean == 1.0 and est.std_error == 0.0
                continue
            z = abs(est.mean - exact) / est.std_error
            if z > worst:
                worst, worst_cell = z, (p, d)
            ok = ok and z <= 3.0
    return GateResult(
        2,
        "mb-closed-form-vs-mc",
        ok,
        f"max |z| = {_fmt(worst)} at (p={worst_cell[0]}; d={worst_cell[1]}); p=d cells exact",
    )


def gate_quadrature_constants(
    n_sims: int = DEFAULT_NSIMS, seed: int = DEFAULT_SEED
) -> GateResult:
    """The general polling factor at p = 2 against its closed form, and the
    p = 3, 4 decrease-to-dimension-factor constants."""
    level2 = abs(polling_factor(2) - math.sqrt(2.0 / math.pi))
    ok = level2 <= 1e-10
    worst3 = 0.0
    worst4 = 0.0
    for d in (3, 8, 64, 512, 4096):
        ratio = expected_decrease_ds(3, d) / gamma_half_ratio(d)
        worst3 = max(worst3, abs(ratio - DS_RATIO_P3))
    for d in (4, 8, 64, 512, 4096):
        ratio = expected_decrease_ds(4, d) / gamma_half_ratio(d)
        worst4 = max(worst4, abs(ratio - DS_RATIO_P4))
    ok = ok and worst3 <= 1e-3 and worst4 <= 1e-3
    return GateResult(
        3,
        "quadrature-constants",
        ok,
        f"|pf2 - sqrt(2/pi)| = {_fmt(level2)}; |ratio3 - {DS_RATIO_P3}| = {_fmt(worst3)}; "
        f"|ratio4 - {DS_RATIO_P4}| = {_fmt(worst4)}",
    )


def gate_ratio_identities(n_sims: int = DEFAULT_NSIMS, seed: int = DEFAULT_SEED) -> GateResult:
    """The four p = 1 to p = 2 ratios, by formula and by paired MC at d = 1000."""
    base = _gate_stream(seed, 4)
    sqrt2 = math.sqrt(2.0)
    ds, mb = Variant.named("ds"), Variant.named("mb")
    worst_formula = 0.0
    for d in (8, 64, 1000, 1024):
        checks = (
            expected_decrease_ds(2, d) / expected_decrease_ds(1, d) - sqrt2,
            expected_decrease_mb(2, d) / expected_decrease_mb(1, d) - math.pi / 2,
            ds.per_work(2, d, 1) / ds.per_work(1, d, 1) - sqrt2 / 2,
            mb.per_work(2, d, 1) / mb.per_work(1, d, 1) - math.pi / 4,
        )
        worst_formula = max(worst_formula, max(abs(c) for c in checks))
    ok = worst_formula <= 1e-10
    targets = (
        ("ds", sqrt2, False),
        ("mb", math.pi / 2, False),
        ("ds", sqrt2 / 2, True),
        ("mb", math.pi / 4, True),
    )
    worst_mc = 0.0
    for i, (variant, target, per_eval) in enumerate(targets):
        gap = paired_ratio_gap(
            variant, 1, 2, 1000, target, n_sims, split_stream(base, i), per_evaluation=per_eval
        )
        z = abs(gap.delta_mean) / gap.delta_std_error
        worst_mc = max(worst_mc, z)
        ok = ok and z <= 3.0
    return GateResult(
        4,
        "ratio-identities",
        ok,
        f"max formula residual = {_fmt(worst_formula)} (gate 1e-10); "
        f"max paired |z| = {_fmt(worst_mc)} (gate 3)",
    )


def gate_per_evaluation_monotonicity(
    n_sims: int = DEFAULT_NSIMS, seed: int = DEFAULT_SEED
) -> GateResult:
    """Per-evaluation decrease strictly falls as p grows, by formula and paired MC."""
    base = _gate_stream(seed, 5)
    ds, mb = Variant.named("ds"), Variant.named("mb")
    ok = True
    for d in (64, 1024):
        top = min(d - 1, 64)
        ds_seq = [ds.per_work(p, d, 1) for p in range(1, top + 1)]
        ok = ok and all(a > b for a, b in zip(ds_seq, ds_seq[1:]))
        mb_seq = [mb.per_work(p, d, 1) for p in range(2, top + 1)]
        ok = ok and all(a > b for a, b in zip(mb_seq, mb_seq[1:]))
        ok = ok and mb.per_work(1, d, 1) > mb.per_work(2, d, 1)
    min_z = math.inf
    cell = 0
    for variant in VARIANTS:
        for p in range(1, 6):
            # Per-evaluation value at p minus that at p + 1, on common draws.
            delta = paired_ratio_gap(
                variant, p + 1, p, 1000, 1.0, n_sims, split_stream(base, cell),
                per_evaluation=True,
            )
            cell += 1
            z = delta.delta_mean / delta.delta_std_error
            min_z = min(min_z, z)
            ok = ok and delta.delta_mean > 0.0 and z > 3.0
    return GateResult(
        5,
        "per-evaluation-monotonicity",
        ok,
        f"formula chains strict; min paired z = {_fmt(min_z)} (gate > 3)",
    )


def gate_separability(n_sims: int = DEFAULT_NSIMS, seed: int = DEFAULT_SEED) -> GateResult:
    """Cross-ratio identity over 100 random (p1, p2, d1, d2) tuples with p1, p2
    in 1..8, both variants."""
    gen = _gate_stream(seed, 6).generator()
    worst = 0.0
    for _ in range(100):
        p1, p2 = int(gen.integers(1, 9)), int(gen.integers(1, 9))
        low = max(p1, p2)
        d1, d2 = int(gen.integers(low, 2049)), int(gen.integers(low, 2049))
        for fn in (expected_decrease_ds, expected_decrease_mb):
            cross = (fn(p1, d1) * fn(p2, d2)) / (fn(p1, d2) * fn(p2, d1))
            worst = max(worst, abs(cross - 1.0))
    return GateResult(
        6,
        "separability",
        worst <= 1e-10,
        f"max |cross-ratio - 1| = {_fmt(worst)} (gate 1e-10)",
    )


def gate_asymptotics(n_sims: int = DEFAULT_NSIMS, seed: int = DEFAULT_SEED) -> GateResult:
    """Large-d forms within 1% of the exact values for d >= 100, p from 1 to d."""
    worst = 0.0
    for variant in VARIANTS:
        record = Variant.named(variant)
        for d in (100, 128, 256, 512, 1024, 4096):
            for p in (1, 2, 3, 10, d // 2, d):
                exact, asym = record.exact(p, d), record.asymptotic(p, d)
                worst = max(worst, abs(asym - exact) / exact)
    return GateResult(
        7,
        "asymptotics",
        worst < 0.01,
        f"max relative gap = {_fmt(worst)} (gate 0.01)",
    )


def gate_basis_invariance(n_sims: int = DEFAULT_NSIMS, seed: int = DEFAULT_SEED) -> GateResult:
    """Full-basis sampling agrees with the reduced path at matched (p, d).

    The full-basis draw does not depend on the variant, so each (p, d) cell
    is drawn once, on child stream 2i, and scored for both variants.  The
    reduced cells keep one stream each: 2i + 1 for polling, 9 + 2i for the
    model step.
    """
    base = _gate_stream(seed, 8)
    worst = 0.0
    ok = True
    for i, (p, d) in enumerate(((1, 16), (4, 16), (8, 64), (32, 64))):
        fulls = full_basis_estimates(p, d, n_sims, split_stream(base, 2 * i))
        for j, full in enumerate(fulls):
            reduced = estimate(full.variant, p, d, n_sims, split_stream(base, 8 * j + 2 * i + 1))
            z = abs(full.mean - reduced.mean) / math.hypot(full.std_error, reduced.std_error)
            worst = max(worst, z)
            ok = ok and z <= 3.0
    return GateResult(
        8,
        "basis-invariance",
        ok,
        f"max combined |z| = {_fmt(worst)} (gate 3)",
    )


def gate_parallel_sweeps(n_sims: int = DEFAULT_NSIMS, seed: int = DEFAULT_SEED) -> GateResult:
    """Per-work argmax lands at p = c/2 (polling) and p = c (model), with the
    documented two-way tie for the model at c = 2."""
    ok = True
    notes = []
    ties = []
    for variant in VARIANTS:
        record = Variant.named(variant)
        _, summaries = run_parallel_sweep(variant, record.sweep_d, record.sweep_cores)
        for s in summaries:
            ok = ok and s.argmax_p == record.sweep_step(s.cores)
            notes.append(f"{variant} c={s.cores} argmax p={s.argmax_p}")
            if len(s.tied_p) > 1:
                tie_gap = abs(
                    record.per_work(s.tied_p[0], record.sweep_d, s.cores)
                    - record.per_work(s.tied_p[1], record.sweep_d, s.cores)
                )
                ok = ok and tie_gap <= 1e-12
                ties.append((variant, s.cores, s.tied_p))
                notes.append(f"tie gap = {_fmt(tie_gap)}")
    # The one documented tie: the model's p = 2 and p = 4 at c = 2, both
    # sqrt(pi)/4 times the dimension factor.
    ok = ok and ties == [("mb", 2, (2, 4))]
    return GateResult(9, "parallel-sweeps", ok, "; ".join(notes))


def _stacked_bases(d: int, p: int, rng: RngStream, count: int):
    """Yield the first ``count`` bases of ``rng.generator()``, the bases a
    driver run on ``rng`` uses, drawing them stack by stack as they are
    consumed."""
    gen = rng.generator()
    k = 0
    while k < count:
        stack = sample_stiefel_stack(d, p, gen, count - k)
        yield from stack
        k += len(stack)


def gate_optimizer_behavior(
    n_sims: int = DEFAULT_NSIMS, seed: int = DEFAULT_SEED
) -> GateResult:
    """Driver decreases match the projected-gradient norms exactly and the
    evaluation accounting matches the cost model."""
    base = _gate_stream(seed, 10)
    d, p = 50, 3
    g = sample_unit_vector(d, split_stream(base, 0))
    worst_gap = 0.0
    ok = True
    for kind, stream_idx in (("ds-complete", 1), ("mb", 2)):
        variant = Variant.named(kind.partition("-")[0])
        norm_ord, cost = variant.norm, variant.rounds(p, 1)
        objective = ObjectiveHandle(lambda x, g=g: float(g @ x), d, name="linear")
        config = DriverConfig(p=p, max_evaluations=420, iteration_kind=kind)
        driver_rng = split_stream(base, stream_idx)
        trace = run_driver(objective, np.zeros(d), config, driver_rng)
        best = trace.best_values()
        iterations = len(trace.records) - 1
        for k, basis in enumerate(_stacked_bases(d, p, driver_rng, iterations), start=1):
            proj = float(np.linalg.norm(basis.T @ g, ord=norm_ord))
            step = trace.records[k].step_size
            gap = abs((best[k - 1] - best[k]) - step * proj)
            worst_gap = max(worst_gap, gap)
            evals = trace.records[k].eval_count - trace.records[k - 1].eval_count
            ok = ok and evals == cost
    ok = ok and worst_gap <= 1e-12

    # Average evaluations of the p = 1 model iteration: the trial point reuses
    # the poll point whenever the model already points at it.
    d1 = 20
    g1 = sample_unit_vector(d1, split_stream(base, 3))
    objective1 = ObjectiveHandle(lambda x: float(g1 @ x), d1, name="linear")
    counts = np.empty(n_sims)
    reuse_rng = split_stream(base, 4)
    for k, basis in enumerate(_stacked_bases(d1, 1, reuse_rng, n_sims)):
        _, _, evaluations = mb_iteration(objective1, np.zeros(d1), 0.0, basis, 1.0)
        counts[k] = evaluations
        ok = ok and evaluations in (1, 2)
    mean_cost = float(np.mean(counts))
    se_cost = float(np.std(counts, ddof=1) / math.sqrt(n_sims))
    ok = ok and abs(mean_cost - 1.5) <= 3.0 * se_cost
    return GateResult(
        10,
        "optimizer-behavior",
        ok,
        f"max decrease gap = {_fmt(worst_gap)} (gate 1e-12); "
        f"mean p=1 model cost = {_fmt(mean_cost)} +- {_fmt(se_cost)} (gate 1.5 within 3 se)",
    )


ALL_GATES = (
    gate_ds_closed_form,
    gate_mb_closed_form,
    gate_quadrature_constants,
    gate_ratio_identities,
    gate_per_evaluation_monotonicity,
    gate_separability,
    gate_asymptotics,
    gate_basis_invariance,
    gate_parallel_sweeps,
    gate_optimizer_behavior,
)

VERIFY_CSV_HEADER = "criterion,name,passed,detail"


def verify_results_to_csv(results: list[GateResult]) -> str:
    lines = [VERIFY_CSV_HEADER]
    for r in results:
        detail = r.detail.replace(",", ";")
        lines.append(f"{r.criterion},{r.name},{'pass' if r.passed else 'FAIL'},{detail}")
    return "\n".join(lines) + "\n"


def run_verify(
    seed: int = DEFAULT_SEED,
    n_sims: int = DEFAULT_NSIMS,
    out_dir: str | Path | None = None,
) -> tuple[list[GateResult], int]:
    """Run every gate; returns the results and a CLI exit code (0 iff all pass).

    With ``out_dir`` set, writes ``verify_gates.csv`` (deterministic bytes for
    a given seed) and a JSON manifest alongside, which also holds the seconds
    each gate took.
    """
    results, seconds = [], []
    for gate in ALL_GATES:
        start = perf_counter()
        results.append(gate(n_sims=n_sims, seed=seed))
        seconds.append(perf_counter() - start)
    exit_code = 0 if all(r.passed for r in results) else 1
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "verify_gates.csv").write_text(
            verify_results_to_csv(results), encoding="ascii", newline="\n"
        )
        write_manifest(
            out / "verify_manifest.json",
            {
                "seed": seed,
                "n_sims": n_sims,
                "passed": exit_code == 0,
                "gates": {r.name: r.passed for r in results},
                "gate_seconds": {r.name: s for r, s in zip(results, seconds)},
            },
        )
    return results, exit_code
