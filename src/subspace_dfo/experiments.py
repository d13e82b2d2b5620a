"""Reproduction grids, parallel-cost sweeps, named objectives, and the gate suite.

Everything here is deterministic given a seed: re-running any experiment with
the same spec and seed produces byte-identical output.  ``to_csv`` writes
every table (``ResultRow``, ``optimizer.TraceRecord``, ``GateResult``, ``Check``) under a
header of its record type's field names; a cell is empty for None, ``pass`` or
``FAIL`` for a bool, a float at 17 significant digits, and otherwise ``str``
with ``,`` written ``;``.  A figure's Monte Carlo cells are scored on one
draw from a child stream keyed by (variant, max d): a cell at d reads the
draw's first d coordinates.  The named grids at their defaults share one
draw per variant, over the union of their cells in R^1024; any other grid
draws its own cells.  So a cell's value depends on the whole draw, not on
its (p, d) alone.  A per-iteration vary-d grid, or a per-iteration grid
that draws its own cells, always draws; every other grid reads the same
draw when it is one of the last two kept in the process, and otherwise
draws.  The gates score their reduced cells as a figure does, and gates 1
and 2 run a figure (gate 2 the ``mb-vary-d`` one).  A gate is a list of
``Check`` records, one per tested cell and statistic.
"""

from __future__ import annotations

import dataclasses
import datetime
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Iterable

import numpy as np

from . import __version__
from .errors import (InvalidDimensionError, _check_choice, _check_cores, _check_nsims,
                     _check_positive, _read_list)
from .formulas import (
    VARIANTS,
    Variant,
    _checked,
    expected_decrease_ds,
    polling_factor,
)
from .montecarlo import (
    SAMPLER,
    _summarize,
    _usable_cpus,
    estimates,
    full_basis_estimates,
    paired_ratio_gap,
)
from .optimizer import (
    ITERATION_KINDS,
    DriverConfig,
    DriverTrace,
    ObjectiveHandle,
    mb_iteration,
    run_driver,
)
from .rng import RngStream, _bases, sample_unit_vector, split_stream
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
# The methods a grid's ``ExperimentSpec.include`` may select.
METHODS = (METHOD_EXACT, METHOD_MC, METHOD_ASYMPTOTIC)

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
        _checked(self.value)
        if (self.std_error is not None) != (self.method == METHOD_MC):
            raise ValueError("std_error is present exactly for Monte Carlo rows")


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _cell(value: object) -> str:
    if isinstance(value, bool):
        return "pass" if value else "FAIL"
    if isinstance(value, float):
        return _fmt(value)
    return "" if value is None else str(value).replace(",", ";")


def to_csv(kind: type, records: Iterable) -> str:
    """``records``, instances of the dataclass ``kind``, one CSV line each under
    a header of ``kind``'s field names; the module docstring gives the cells.
    A field left out of the repr (``GateResult.checks``) is left out here too."""
    names = [field.name for field in dataclasses.fields(kind) if field.repr]
    lines = [",".join([_cell(getattr(r, name)) for name in names]) for r in records]
    return "\n".join([",".join(names), *lines, ""])


def write_manifest(path: str | Path, payload: dict) -> None:
    """Write ``payload`` as JSON with the package version, the Monte Carlo
    sampler, the creation time and the environment added."""
    # Imported here: only manifest writers need it, not every package import.
    import platform

    system = platform.uname()
    payload = {
        **payload,
        "version": __version__,
        "sampler": SAMPLER,
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "environment": {
            "numpy": np.__version__,
            "platform": f"{system.system} {system.release} {system.machine}",
            "python": platform.python_version(),
            "usable_cpus": _usable_cpus(),
        },
    }
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="ascii", newline="\n"
    )


@dataclass
class ExperimentSpec:
    """Declarative description of a reproduction grid.

    ``p_rule`` is either an explicit tuple of subspace dimensions or the
    string ``"standard"`` meaning {1, 2, d/2, d} per ambient dimension (integer
    division; duplicates collapse).  ``outputs`` is the rows' metric,
    ``METRIC_ITERATION`` or ``METRIC_EVALUATION``; ``include`` names at least
    one of the ``METHODS``, kept in their order.  ``d_values``, an explicit
    ``p_rule`` and ``include`` are read once by ``errors._read_list``, so any
    iterable but a string works and no value repeats.
    ``n_sims`` (>= 2) and ``seed`` are checked when the spec is built.
    """

    name: str
    variant: str
    d_values: tuple[int, ...]
    p_rule: tuple[int, ...] | str = "standard"
    n_sims: int = DEFAULT_NSIMS
    seed: int = DEFAULT_SEED
    outputs: str = METRIC_ITERATION
    include: tuple[str, ...] = METHODS

    def __post_init__(self) -> None:
        Variant.named(self.variant)
        self.d_values = _read_list(self.d_values, "d_values")
        if isinstance(self.p_rule, str):
            _check_choice(self.p_rule, ("standard",), "p_rule")
        else:
            self.p_rule = _read_list(self.p_rule, "p_rule")
            # Each d runs the p values up to d (see p_values_for).
            top = max(self.d_values)
            if all(p > top for p in self.p_rule):
                raise ValueError(f"no p value is at most max(d) = {top}, got {self.p_rule}")
        _check_nsims(self.n_sims)
        RngStream(self.seed)  # refuses a bad seed before any draw
        _check_choice(self.outputs, (METRIC_ITERATION, METRIC_EVALUATION), "outputs")
        self.include = _read_list(self.include, "include", choices=METHODS)

    def merged(self, config: object, **flags) -> "ExperimentSpec":
        """This spec with the keys of ``config``, then the ``flags`` that are
        not None, in place of its own values; the result is validated once.

        ``config`` is a JSON object of field names.  Its name, variant and
        outputs may only repeat this spec's, which fix the figure; a null
        value is refused like any other value of the wrong type.
        """
        if not isinstance(config, dict):
            raise ValueError(f"spec must be an object of named fields, got {config!r}")
        known = sorted(f.name for f in dataclasses.fields(self))
        unknown = sorted(set(config) - set(known))
        if unknown:
            raise ValueError(f"unknown spec keys {unknown}; known keys are {known}")
        for key in ("name", "variant", "outputs"):
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


# How a figure draws its Monte Carlo rows; recorded in every figure manifest.
FIGURE_MC_DRAWS = (
    "one draw per variant for the named grids at their defaults, over the union of their cells, "
    "and otherwise one draw per figure, from the row stream of the draw's largest d; a cell at d "
    "reads its first d coordinates"
)


def row_stream(base: RngStream, variant: str, d: int) -> RngStream:
    """Child stream (variant index, 0, d) of ``base``: a figure's draw, and
    gates 1 and 2, score all their cells on the one at the draw's largest d."""
    return split_stream(split_stream(split_stream(base, VARIANTS.index(variant)), 0), d)


def _metric_divisor(record: Variant, metric: str, p: int) -> float:
    """What a row in ``metric`` divides a per-iteration value at p by: 1, or
    for per-evaluation rows the evaluations of one iteration."""
    return 1.0 if metric == METRIC_ITERATION else record.rounds(p, 1)


# The Monte Carlo estimates of the last two per-iteration draws made in this
# process, oldest first: ((p, d), Estimate) pairs keyed by (variant, drawn
# cells, n_sims, seed), which fix the row stream and so every float.  Two, so
# a grid still reads its variant's draw after the other variant has drawn.  A
# new draw rebinds the store; no stored value changes.
_ITERATION_DRAWS: dict[tuple, tuple] = {}


def _grid_cells(spec: ExperimentSpec) -> list[tuple[int, int]]:
    """The (p, d) cells of ``spec``'s rows, d by d."""
    return [(p, d) for d in spec.d_values for p in p_values_for(d, spec.p_rule)]


def _drawn_cells(spec: ExperimentSpec) -> tuple[tuple[int, int], ...]:
    """The cells the draw behind ``spec``'s Monte Carlo rows scores.

    A named grid at its defaults (its name in FIGURE_NAMES, and its variant,
    d_values and p_rule those of ``default_figure_spec``) draws its
    variant's figure draw: the default cells of every named grid of that
    variant, in FIGURE_NAMES order, so the vary-d cells, then the vary-p
    cells.  They all fit in R^max(D_GRID).  Any other grid draws its own.
    """
    named = [default_figure_spec(name) for name in FIGURE_NAMES if name != "parallel-sweep"]
    grid = (spec.name, spec.variant, spec.d_values, spec.p_rule)
    if any((s.name, s.variant, s.d_values, s.p_rule) == grid for s in named):
        named = [s for s in named if s.variant == spec.variant]
        return tuple(dict.fromkeys(cell for s in named for cell in _grid_cells(s)))
    return tuple(_grid_cells(spec))


def run_named_figure(spec: ExperimentSpec) -> list[ResultRow]:
    """Rows of a vary-d or vary-p grid: per cell, the methods ``spec.include``
    selects, in the metric ``spec.outputs``.

    The Monte Carlo cells are read off one ``estimates`` call over the
    ``_drawn_cells`` of the spec, on the row stream of their largest d under
    RngStream(spec.seed) (see ``row_stream``), so reruns with the same spec
    are bit-identical.  A d with no p draws nothing.  A per-iteration grid
    whose largest d is its draw's largest d (a vary-d grid, or any grid that
    draws its own cells) always draws.  Every other grid (a named vary-p
    grid, a per-evaluation grid) reads the draw of the same variant, drawn
    cells, n_sims and seed when it is one of the last two per-iteration
    draws kept, and draws only on a miss.  A per-iteration grid keeps what
    it draws; a per-evaluation grid's values are the per-iteration ones
    divided by ``rounds(p, 1)`` either way.
    """
    global _ITERATION_DRAWS
    record = Variant.named(spec.variant)
    metric = spec.outputs
    formula_of = {METHOD_EXACT: record.exact, METHOD_ASYMPTOTIC: record.asymptotic}
    cells = _grid_cells(spec)
    mc = {}
    if METHOD_MC in spec.include:
        drawn_cells = _drawn_cells(spec)
        top = max(d for _, d in drawn_cells)
        key = (spec.variant, drawn_cells, spec.n_sims, spec.seed)
        drawer = metric == METRIC_ITERATION and max(spec.d_values) == top
        drawn = None if drawer else _ITERATION_DRAWS.get(key)
        if drawn is None:
            stream = row_stream(RngStream(spec.seed), spec.variant, top)
            ests = estimates(spec.variant, drawn_cells, spec.n_sims, stream)
            drawn = tuple(zip(drawn_cells, ests))
            if metric == METRIC_ITERATION:
                older = [item for item in _ITERATION_DRAWS.items() if item[0] != key]
                _ITERATION_DRAWS = dict([*older[-1:], (key, drawn)])
        mc = dict(drawn)
    rows: list[ResultRow] = []
    for p, d in cells:
        scale = _metric_divisor(record, metric, p)
        if (p, d) in mc:
            est = mc[p, d]
            rows.append(
                ResultRow(
                    spec.variant, d, p, METHOD_MC, metric, est.mean / scale,
                    est.std_error / scale, spec.n_sims, spec.seed,
                )
            )
        rows += [
            ResultRow(spec.variant, d, p, method, metric, formula(p, d) / scale)
            for method, formula in formula_of.items()
            if method in spec.include
        ]
    return rows


def default_figure_spec(
    name: str, n_sims: int = DEFAULT_NSIMS, seed: int = DEFAULT_SEED
) -> ExperimentSpec:
    _check_choice(name, [n for n in FIGURE_NAMES if n != "parallel-sweep"], "grid")
    vary_p = name.endswith("-vary-p")
    return ExperimentSpec(
        name=name,
        variant=name.split("-")[0],
        d_values=(D_VARY_P,) if vary_p else D_GRID,
        p_rule=P_LIST_VARY_P if vary_p else "standard",
        n_sims=n_sims,
        seed=seed,
        outputs=METRIC_EVALUATION if "-perfev-" in name else METRIC_ITERATION,
        include=(METHOD_EXACT, METHOD_MC) if vary_p else METHODS,
    )


# Grid points per core count of a parallel sweep.
SWEEP_MULTIPLES = 100


def run_parallel_sweep(
    variant: str, d: int, cores_list: Iterable[int]
) -> tuple[list[ResultRow], dict[int, tuple[int, ...]]]:
    """Exact expected decrease per batched evaluation round over a p grid, per
    core count: the first ``SWEEP_MULTIPLES`` multiples of the variant's
    sweep step, up to d.

    Returns the rows and ``ties``: ``ties[c]`` holds, in grid order, every
    grid point within 1e-12 of the largest value at c cores, so ``ties[c][0]``
    is the argmax.  ``cores_list`` is read once, so an iterator works, and
    follows ``errors._read_list``: not empty and no repeat, with each count
    refused as ``Variant.rounds`` refuses it.
    """
    record = Variant.named(variant)
    _check_positive(d, "dimension")
    cores_list = _read_list(cores_list, "core counts", _check_cores)
    rows: list[ResultRow] = []
    ties: dict[int, tuple[int, ...]] = {}
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
        ties[cores] = tuple(
            p for p, v in zip(grid, values) if v >= top - max(1e-12, 1e-12 * abs(top))
        )
    return rows, ties


def make_objective(name: str, d: int, rng: RngStream) -> tuple[ObjectiveHandle, np.ndarray]:
    """Named test objective plus its conventional starting point.

    ``linear-random-g`` draws a uniformly random unit gradient from ``rng``
    and starts at the origin; ``sphere-quadratic`` is half the squared norm
    from the all-ones point; ``rosenbrock`` uses the classic alternating
    start and needs d >= 2: at d = 1 its sum over adjacent pairs is empty.
    """
    _check_choice(name, OBJECTIVE_NAMES, "objective")
    _check_positive(d, "dimension")
    if name == "rosenbrock" and d < 2:
        raise InvalidDimensionError(f"rosenbrock needs dimension d >= 2, got {d!r}")
    if name == "linear-random-g":
        g = sample_unit_vector(d, rng)

        def linear(x: np.ndarray) -> float:
            return float(g @ x)

        return ObjectiveHandle(linear, d, name=name), np.zeros(d)
    if name == "sphere-quadratic":

        def sphere(x: np.ndarray) -> float:
            return 0.5 * float(x @ x)

        return ObjectiveHandle(sphere, d, name=name), np.ones(d)

    def rosen(x: np.ndarray) -> float:
        return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))

    x0 = np.ones(d)
    x0[::2] = -1.2
    return ObjectiveHandle(rosen, d, name=name), x0


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


# ----------------------------------------------------------------------------
# Verification gates.  Each gate checks one acceptance bullet end to end as a
# list of ``Check`` records, one per tested cell and statistic, and returns
# them through ``_gate``, which derives the pass flag and the detail string;
# the CLI turns failures into a nonzero exit code.
# ----------------------------------------------------------------------------

SIGMA_3, ONE_SIDED, EXACT = "3-sigma", "one-sided", "exact"


@dataclass(frozen=True)
class Check:
    """One tested cell of a gate: ``statistic`` at ``cell`` has ``value``.
    ``kind`` is ``"3-sigma"`` (a two-sided |z|), ``"one-sided"`` (a z that
    must exceed ``bound``) or ``"exact"`` (a deterministic error)."""

    gate: int
    cell: str
    statistic: str
    value: float
    bound: float
    kind: str

    def __post_init__(self) -> None:
        _check_choice(self.kind, (SIGMA_3, ONE_SIDED, EXACT), "kind")

    @property
    def passed(self) -> bool:
        """The one pass rule: at most ``bound``, or above it when one-sided;
        a NaN value fails every kind."""
        return self.value > self.bound if self.kind == ONE_SIDED else self.value <= self.bound


@dataclass(frozen=True)
class GateResult:
    """A gate's verdict, derived from its ``checks`` by ``_gate``; the checks
    stay out of the repr, and so out of ``verify_gates.csv``."""

    criterion: int
    name: str
    passed: bool
    detail: str
    checks: tuple[Check, ...] = dataclasses.field(default=(), repr=False)


def _z(gap: float, std_error: float) -> float:
    """``gap`` in standard errors; over a zero standard error a zero gap is
    0 and any other gap is infinite."""
    return gap / std_error if std_error else (gap * math.inf if gap else 0.0)


def _worst(checks: Iterable[Check]) -> dict[str, Check]:
    """Per statistic, in first-seen order, its first worst check: NaN, else
    the largest value, or the smallest when one-sided."""
    worst: dict[str, Check] = {}
    for c in checks:
        w = worst.setdefault(c.statistic, c)
        sign = -1.0 if c.kind == ONE_SIDED else 1.0
        if math.isnan(c.value) > math.isnan(w.value) or sign * c.value > sign * w.value:
            worst[c.statistic] = c
    return worst


def _gate(criterion: int, name: str, checks: Iterable[Check]) -> GateResult:
    """The gate passes iff every check does; its detail gives each
    statistic's worst value, its cell and the bound."""
    checks = tuple(checks)
    detail = "; ".join(
        f"{'min' if c.kind == ONE_SIDED else 'max'} {statistic} = {_fmt(c.value)} at {c.cell} "
        f"(gate {'> ' if c.kind == ONE_SIDED else ''}{c.bound:g})"
        for statistic, c in _worst(checks).items()
    )
    return GateResult(criterion, name, all(c.passed for c in checks), detail, checks)


def mc_checks(rows: Iterable[ResultRow], gate: int = 0) -> list[Check]:
    """One check per Monte Carlo row of a figure with an exact row at its
    (p, d): |z| at most 3, or, for a row with standard error 0 (the model
    at p = d, where per iteration both rows are 1), no gap at all.  The
    checks carry ``gate``, 0 outside the gate suite."""
    rows = list(rows)
    exact = {(r.p, r.d): r.value for r in rows if r.method == METHOD_EXACT}
    checks = []
    for r in (r for r in rows if r.method == METHOD_MC and (r.p, r.d) in exact):
        cell, gap = f"(p={r.p}; d={r.d})", r.value - exact[r.p, r.d]
        if r.std_error:
            checks.append(Check(gate, cell, "|z|", abs(_z(gap, r.std_error)), 3.0, SIGMA_3))
        else:
            checks.append(Check(gate, cell, "|mc - exact|", abs(gap), 0.0, EXACT))
    return checks


def gate_ds_closed_form(n_sims: int = DEFAULT_NSIMS, seed: int = DEFAULT_SEED) -> GateResult:
    """Polling closed forms at p in {1, 2} versus MC over the dimension grid,
    on the rows of a figure with that p rule."""
    spec = ExperimentSpec("ds-closed-form-vs-mc", "ds", D_GRID, (1, 2), n_sims, seed,
                          include=(METHOD_EXACT, METHOD_MC))
    return _gate(1, spec.name, mc_checks(run_named_figure(spec), 1))


def gate_mb_closed_form(n_sims: int = DEFAULT_NSIMS, seed: int = DEFAULT_SEED) -> GateResult:
    """Model closed form versus MC at p in {1, 2, d/2, d}, on the MC rows of
    the ``mb-vary-d`` figure at the same seed and n_sims: the spec is that
    figure's, so it draws the figure draw of mb."""
    spec = dataclasses.replace(
        default_figure_spec("mb-vary-d", n_sims, seed), include=(METHOD_EXACT, METHOD_MC)
    )
    return _gate(2, "mb-closed-form-vs-mc", mc_checks(run_named_figure(spec), 2))


def gate_quadrature_constants(n_sims: int = DEFAULT_NSIMS, seed: int = DEFAULT_SEED) -> GateResult:
    """The general polling factor at p = 2 against its closed form, and the
    p = 3, 4 decrease-to-dimension-factor constants."""
    level2 = abs(polling_factor(2) - math.sqrt(2.0 / math.pi))
    checks = [Check(3, "(p=2)", "|pf2 - sqrt(2/pi)|", level2, 1e-10, EXACT)]
    for p, constant in ((3, DS_RATIO_P3), (4, DS_RATIO_P4)):
        checks += [
            Check(3, f"(p={p}; d={d})", f"|ratio{p} - {constant}|",
                  abs(expected_decrease_ds(p, d) / gamma_half_ratio(d) - constant), 1e-3, EXACT)
            for d in (p, 8, 64, 512, 4096)
        ]
    return _gate(3, "quadrature-constants", checks)


def gate_ratio_identities(n_sims: int = DEFAULT_NSIMS, seed: int = DEFAULT_SEED) -> GateResult:
    """The four p = 1 to p = 2 ratios by formula, and the two per-iteration
    ones by paired MC at d = 1000: an iteration at p = 2 costs exactly twice
    one at p = 1, so a per-evaluation cell would retest a per-iteration claim."""
    base = split_stream(RngStream(seed), 4)
    sqrt2 = math.sqrt(2.0)
    ds, mb = Variant.named("ds"), Variant.named("mb")
    checks = []
    for d in (8, 64, 1000, 1024):
        residuals = {
            "ds per-iteration": ds.exact(2, d) / ds.exact(1, d) - sqrt2,
            "mb per-iteration": mb.exact(2, d) / mb.exact(1, d) - math.pi / 2,
            "ds per-evaluation": ds.per_work(2, d, 1) / ds.per_work(1, d, 1) - sqrt2 / 2,
            "mb per-evaluation": mb.per_work(2, d, 1) / mb.per_work(1, d, 1) - math.pi / 4,
        }
        checks += [Check(4, f"({ratio}; d={d})", "formula residual", abs(r), 1e-10, EXACT)
                   for ratio, r in residuals.items()]
    for i, (variant, target) in enumerate((("ds", sqrt2), ("mb", math.pi / 2))):
        gap = paired_ratio_gap(variant, 1, 2, 1000, target, n_sims, split_stream(base, i))
        z = abs(_z(gap.mean, gap.std_error))
        checks.append(Check(4, f"({variant}; d=1000)", "paired |z|", z, 3.0, SIGMA_3))
    return _gate(4, "ratio-identities", checks)


def gate_per_evaluation_monotonicity(
    n_sims: int = DEFAULT_NSIMS, seed: int = DEFAULT_SEED
) -> GateResult:
    """Per-evaluation decrease strictly falls as p grows, by formula and paired MC."""
    base = split_stream(RngStream(seed), 5)
    checks = []
    for d, variant in itertools.product((64, 1024), VARIANTS):
        seq = [Variant.named(variant).per_work(p, d, 1) for p in range(1, min(d - 1, 64) + 1)]
        rises = float(sum(a <= b for a, b in zip(seq, seq[1:])))
        cell = f"({variant}; p<={len(seq)}; d={d})"
        checks.append(Check(5, cell, "formula steps not falling", rises, 0.0, EXACT))
    for cell, (variant, p) in enumerate(itertools.product(VARIANTS, range(1, 6))):
        # Value at p minus r(p) / r(p + 1) times that at p + 1 on common draws:
        # r(p) times the per-evaluation gap, so z is the same.
        rounds = Variant.named(variant).rounds
        delta = paired_ratio_gap(
            variant, p + 1, p, 1000, rounds(p, 1) / rounds(p + 1, 1), n_sims,
            split_stream(base, cell),
        )
        z = _z(delta.mean, delta.std_error)
        checks.append(Check(5, f"({variant}; p={p}; d=1000)", "paired z", z, 3.0, ONE_SIDED))
    return _gate(5, "per-evaluation-monotonicity", checks)


def gate_separability(n_sims: int = DEFAULT_NSIMS, seed: int = DEFAULT_SEED) -> GateResult:
    """Cross-ratio identity over 100 random (p1, p2, d1, d2) tuples with p1, p2
    in 1..8, both variants."""
    gen = split_stream(RngStream(seed), 6).generator()
    checks = []
    for _ in range(100):
        p1, p2 = int(gen.integers(1, 9)), int(gen.integers(1, 9))
        low = max(p1, p2)
        d1, d2 = int(gen.integers(low, 2049)), int(gen.integers(low, 2049))
        for record in map(Variant.named, VARIANTS):
            fn = record.exact
            gap = abs((fn(p1, d1) * fn(p2, d2)) / (fn(p1, d2) * fn(p2, d1)) - 1.0)
            cell = f"({record.name}; p={p1} {p2}; d={d1} {d2})"
            checks.append(Check(6, cell, "|cross-ratio - 1|", gap, 1e-10, EXACT))
    return _gate(6, "separability", checks)


def gate_asymptotics(n_sims: int = DEFAULT_NSIMS, seed: int = DEFAULT_SEED) -> GateResult:
    """Large-d forms within 1% of the exact values for d >= 100, p from 1 to d."""
    checks = []
    for record in map(Variant.named, VARIANTS):
        for d in (100, 128, 256, 512, 1024, 4096):
            for p in (1, 2, 3, 10, d // 2, d):
                exact, asym = record.exact(p, d), record.asymptotic(p, d)
                cell, gap = f"({record.name}; p={p}; d={d})", abs(asym - exact) / exact
                checks.append(Check(7, cell, "relative gap", gap, 0.01, EXACT))
    return _gate(7, "asymptotics", checks)


def gate_basis_invariance(n_sims: int = DEFAULT_NSIMS, seed: int = DEFAULT_SEED) -> GateResult:
    """Full-basis sampling agrees with the reduced path at matched (p, d).

    The full-basis draw depends on neither the variant nor any p below the
    widest, so it is one draw per d, read at each p: one
    ``full_basis_estimates`` call per d, on child stream 2i, with i the
    index in ``cells`` of that d's widest cell, scored for both variants.
    The reduced cells of the variant at index j of ``VARIANTS`` are scored
    as a figure scores them: one ``estimates`` call, on child stream 8 + j.
    """
    base = split_stream(RngStream(seed), 8)
    cells = ((1, 16), (4, 16), (8, 64), (32, 64))
    reduced = [
        estimates(variant, cells, n_sims, split_stream(base, 8 + j))
        for j, variant in enumerate(VARIANTS)
    ]
    fulls = {}
    for d in sorted({d for _, d in cells}):
        ps = tuple(p for p, e in cells if e == d)
        stream = split_stream(base, 2 * cells.index((max(ps), d)))
        fulls.update(zip(((p, d) for p in ps), full_basis_estimates(ps, d, n_sims, stream)))
    checks = []
    for i, (p, d) in enumerate(cells):
        for variant, full, ests in zip(VARIANTS, fulls[p, d], reduced):
            se = math.hypot(full.std_error, ests[i].std_error)
            z = abs(_z(full.mean - ests[i].mean, se))
            checks.append(Check(8, f"({variant}; p={p}; d={d})", "combined |z|", z, 3.0, SIGMA_3))
    return _gate(8, "basis-invariance", checks)


def gate_parallel_sweeps(n_sims: int = DEFAULT_NSIMS, seed: int = DEFAULT_SEED) -> GateResult:
    """Per-work argmax lands at p = c/2 (polling) and p = c (model), with the
    documented two-way tie for the model at c = 2: p = 2 and p = 4, both
    sqrt(pi)/4 times the dimension factor."""
    checks = []
    for record in map(Variant.named, VARIANTS):
        d = record.sweep_d
        for cores, tied in run_parallel_sweep(record.name, d, record.sweep_cores)[1].items():
            cell = f"({record.name}; c={cores})"
            rule = (2, 4) if (record.name, cores) == ("mb", 2) else (record.sweep_step(cores),)
            off = float(len(set(tied) ^ set(rule)))
            checks.append(Check(9, cell, "argmax points off the rule", off, 0.0, EXACT))
            if len(tied) > 1:
                gap = abs(record.per_work(tied[0], d, cores) - record.per_work(tied[1], d, cores))
                checks.append(Check(9, cell, "tie gap", gap, 1e-12, EXACT))
    return _gate(9, "parallel-sweeps", checks)


def gate_optimizer_behavior(n_sims: int = DEFAULT_NSIMS, seed: int = DEFAULT_SEED) -> GateResult:
    """Driver decreases match the projected-gradient norms exactly and the
    evaluation accounting matches the cost model."""
    _check_nsims(n_sims)
    base = split_stream(RngStream(seed), 10)
    d, p = 50, 3
    g = sample_unit_vector(d, split_stream(base, 0))
    checks = []
    for kind, stream_idx in (("ds-complete", 1), ("mb", 2)):
        variant = Variant.named(ITERATION_KINDS[kind])
        objective = ObjectiveHandle(lambda x, g=g: float(g @ x), d, name="linear")
        config = DriverConfig(p=p, max_evaluations=420, iteration_kind=kind)
        driver_rng = split_stream(base, stream_idx)
        trace = run_driver(objective, np.zeros(d), config, driver_rng)
        best, records = trace.best_values(), trace.records
        bases = itertools.islice(_bases(d, p, driver_rng.generator()), len(records) - 1)
        for k, basis in enumerate(bases, start=1):
            proj = float(np.linalg.norm(basis.T @ g, ord=variant.norm))
            gap = abs((best[k - 1] - best[k]) - records[k].step_size * proj)
            evals = records[k].eval_count - records[k - 1].eval_count
            checks += [
                Check(10, f"({kind}; k={k})", "decrease gap", gap, 1e-12, EXACT),
                Check(10, f"({kind}; k={k})", "evaluations off the cost",
                      abs(evals - variant.rounds(p, 1)), 0.0, EXACT),
            ]

    # Average evaluations of the p = 1 model iteration: the trial point reuses
    # the poll point whenever the model already points at it.
    d1 = 20
    g1 = sample_unit_vector(d1, split_stream(base, 3))
    objective1 = ObjectiveHandle(lambda x: float(g1 @ x), d1, name="linear")
    counts = np.empty(n_sims)
    reuse_rng = split_stream(base, 4)
    for k, basis in enumerate(itertools.islice(_bases(d1, 1, reuse_rng.generator()), n_sims)):
        _, _, counts[k] = mb_iteration(objective1, np.zeros(d1), 0.0, basis, 1.0)
    est, cell = _summarize(counts), f"(mb; p=1; d={d1})"
    others = float(np.count_nonzero((counts != 1) & (counts != 2)))
    return _gate(10, "optimizer-behavior", checks + [
        Check(10, cell, "p=1 model costs not 1 or 2", others, 0.0, EXACT),
        Check(10, cell, "p=1 model cost |z| from 1.5", abs(_z(est.mean - 1.5, est.std_error)),
              3.0, SIGMA_3),
    ])


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

def run_verify(
    seed: int = DEFAULT_SEED,
    n_sims: int = DEFAULT_NSIMS,
    out_dir: str | Path | None = None,
) -> tuple[list[GateResult], int]:
    """Run every gate; returns the results and a CLI exit code (0 iff all pass).

    With ``out_dir`` set, writes ``verify_gates.csv`` (one row per gate),
    ``verify_checks.csv`` (one ``Check`` per row, gate by gate; both files
    have deterministic bytes for a given seed) and a JSON manifest alongside,
    which also holds the seconds each gate took.  A bad ``n_sims`` is
    refused before the first gate.
    """
    _check_nsims(n_sims)
    results, seconds = [], []
    for gate in ALL_GATES:
        start = perf_counter()
        results.append(gate(n_sims=n_sims, seed=seed))
        seconds.append(perf_counter() - start)
    exit_code = 0 if all(r.passed for r in results) else 1
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for name, kind, records in (
            ("verify_gates.csv", GateResult, results),
            ("verify_checks.csv", Check, [c for r in results for c in r.checks]),
        ):
            (out / name).write_text(to_csv(kind, records), encoding="ascii", newline="\n")
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
