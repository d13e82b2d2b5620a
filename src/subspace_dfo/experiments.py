"""Reproduction grids, parallel-cost sweeps, named objectives, and the gate suite.

Everything here is deterministic given a seed: re-running any experiment with
the same spec and seed produces byte-identical output.  ``to_csv`` writes
every table (``ResultRow``, ``optimizer.TraceRecord``, ``GateResult``) under a
header of its record type's field names; a cell is empty for None, ``pass`` or
``FAIL`` for a bool, a float at 17 significant digits, and otherwise ``str``
with ``,`` written ``;``.  A figure's Monte Carlo cells, every (p, d) of one
variant, are scored on one draw from a child stream keyed by (variant,
max d): a cell at d reads the draw's first d coordinates.  So a cell's value
depends on the whole grid, not on its (p, d) alone.  A gate cell draws its
own stream, keyed by (variant, p, d).
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
    expected_decrease_mb,
    polling_factor,
)
from .montecarlo import (
    SAMPLER,
    _usable_cpus,
    estimate,
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
    a header of ``kind``'s field names; the module docstring gives the cells."""
    names = [field.name for field in dataclasses.fields(kind)]
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


def cell_stream(base: RngStream, variant: str, p: int, d: int) -> RngStream:
    """Child stream for one Monte Carlo cell, keyed by the cell's identity.

    Keying by (variant, p, d) rather than by enumeration order keeps a
    gate cell's randomness stable when other cells are added or removed.
    """
    variant_index = VARIANTS.index(variant)
    return split_stream(split_stream(split_stream(base, variant_index), p), d)


# How a figure draws its Monte Carlo rows; recorded in every figure manifest.
FIGURE_MC_DRAWS = (
    "one draw per figure, from the row stream of its largest d; a cell at d reads its first d "
    "coordinates"
)


def row_stream(base: RngStream, variant: str, d: int) -> RngStream:
    """Child stream keyed by (variant, d); a figure draws all its cells from
    the one at its largest d.

    It is the cell stream at p = 0, which is never a cell, so it differs from
    every cell stream.
    """
    return cell_stream(base, variant, 0, d)


def run_named_figure(spec: ExperimentSpec) -> list[ResultRow]:
    """Rows of a vary-d or vary-p grid: per cell, the methods ``spec.include``
    selects, in the metric ``spec.outputs``.

    Every Monte Carlo cell is scored by one ``estimates`` call on the row
    stream of the largest d under RngStream(spec.seed) (see ``row_stream``),
    so reruns with the same spec are bit-identical.  A d with no p draws
    nothing.
    """
    record = Variant.named(spec.variant)
    metric = spec.outputs
    formula_of = {METHOD_EXACT: record.exact, METHOD_ASYMPTOTIC: record.asymptotic}
    cells = [(p, d) for d in spec.d_values for p in p_values_for(d, spec.p_rule)]
    mc = {}
    if METHOD_MC in spec.include:
        stream = row_stream(RngStream(spec.seed), spec.variant, max(spec.d_values))
        mc = dict(zip(cells, estimates(spec.variant, cells, spec.n_sims, stream)))
    rows: list[ResultRow] = []
    for p, d in cells:
        # Per-evaluation rows divide by the evaluations of one iteration.
        scale = 1.0 if metric == METRIC_ITERATION else record.rounds(p, 1)
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
    variant = name.split("-")[0]
    perfev = "-perfev-" in name
    vary_p = name.endswith("-vary-p")
    if vary_p:
        d_values: tuple[int, ...] = (D_VARY_P,)
        p_rule: tuple[int, ...] | str = P_LIST_VARY_P
        include: tuple[str, ...] = (METHOD_EXACT, METHOD_MC)
    else:
        d_values = D_GRID
        p_rule = "standard"
        include = METHODS
    return ExperimentSpec(
        name=name,
        variant=variant,
        d_values=d_values,
        p_rule=p_rule,
        n_sims=n_sims,
        seed=seed,
        outputs=METRIC_EVALUATION if perfev else METRIC_ITERATION,
        include=include,
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


def _closed_form_cells(
    criterion: int, variant: str, p_rule: tuple[int, ...] | str, n_sims: int, seed: int
) -> tuple[bool, str]:
    """Whether MC matches the exact decrease at every p of
    ``p_values_for(d, p_rule)`` over D_GRID, and where |z| is largest.

    Each cell draws its own stream and must lie within 3 standard errors; a
    p = d cell must instead be exactly 1 with zero standard error.
    """
    base = _gate_stream(seed, criterion)
    record = Variant.named(variant)
    worst = 0.0
    worst_cell = (0, 0)
    ok = True
    for d in D_GRID:
        for p in p_values_for(d, p_rule):
            est = estimate(variant, p, d, n_sims, cell_stream(base, variant, p, d))
            exact = record.exact(p, d)
            if p == d:
                ok = ok and exact == 1.0 and est.mean == 1.0 and est.std_error == 0.0
                continue
            z = abs(est.mean - exact) / est.std_error
            if z > worst:
                worst, worst_cell = z, (p, d)
            ok = ok and z <= 3.0
    return ok, f"max |z| = {_fmt(worst)} at (p={worst_cell[0]}; d={worst_cell[1]})"


def gate_ds_closed_form(n_sims: int = DEFAULT_NSIMS, seed: int = DEFAULT_SEED) -> GateResult:
    """Polling closed forms at p in {1, 2} versus MC over the dimension grid."""
    ok, where = _closed_form_cells(1, "ds", (1, 2), n_sims, seed)
    return GateResult(1, "ds-closed-form-vs-mc", ok, f"{where}; gate |z| <= 3")


def gate_mb_closed_form(n_sims: int = DEFAULT_NSIMS, seed: int = DEFAULT_SEED) -> GateResult:
    """Model closed form versus MC at p in {1, 2, d/2, d}; p = d must be exact."""
    ok, where = _closed_form_cells(2, "mb", "standard", n_sims, seed)
    return GateResult(2, "mb-closed-form-vs-mc", ok, f"{where}; p=d cells exact")


def gate_quadrature_constants(
    n_sims: int = DEFAULT_NSIMS, seed: int = DEFAULT_SEED
) -> GateResult:
    """The general polling factor at p = 2 against its closed form, and the
    p = 3, 4 decrease-to-dimension-factor constants."""
    level2 = abs(polling_factor(2) - math.sqrt(2.0 / math.pi))
    ok = level2 <= 1e-10
    worst = {}
    for p, constant in ((3, DS_RATIO_P3), (4, DS_RATIO_P4)):
        ratios = (expected_decrease_ds(p, d) / gamma_half_ratio(d) for d in (p, 8, 64, 512, 4096))
        worst[p] = max(abs(ratio - constant) for ratio in ratios)
    ok = ok and all(w <= 1e-3 for w in worst.values())
    return GateResult(
        3,
        "quadrature-constants",
        ok,
        f"|pf2 - sqrt(2/pi)| = {_fmt(level2)}; |ratio3 - {DS_RATIO_P3}| = {_fmt(worst[3])}; "
        f"|ratio4 - {DS_RATIO_P4}| = {_fmt(worst[4])}",
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
        z = abs(gap.mean) / gap.std_error
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
            z = delta.mean / delta.std_error
            min_z = min(min_z, z)
            ok = ok and delta.mean > 0.0 and z > 3.0
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
        for j, (variant, full) in enumerate(zip(VARIANTS, fulls)):
            reduced = estimate(variant, p, d, n_sims, split_stream(base, 8 * j + 2 * i + 1))
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
    tie_cells = []
    for variant in VARIANTS:
        record = Variant.named(variant)
        _, ties = run_parallel_sweep(variant, record.sweep_d, record.sweep_cores)
        for cores, tied in ties.items():
            ok = ok and tied[0] == record.sweep_step(cores)
            notes.append(f"{variant} c={cores} argmax p={tied[0]}")
            if len(tied) > 1:
                tie_gap = abs(
                    record.per_work(tied[0], record.sweep_d, cores)
                    - record.per_work(tied[1], record.sweep_d, cores)
                )
                ok = ok and tie_gap <= 1e-12
                tie_cells.append((variant, cores, tied))
                notes.append(f"tie gap = {_fmt(tie_gap)}")
    # The one documented tie: the model's p = 2 and p = 4 at c = 2, both
    # sqrt(pi)/4 times the dimension factor.
    ok = ok and tie_cells == [("mb", 2, (2, 4))]
    return GateResult(9, "parallel-sweeps", ok, "; ".join(notes))


def gate_optimizer_behavior(
    n_sims: int = DEFAULT_NSIMS, seed: int = DEFAULT_SEED
) -> GateResult:
    """Driver decreases match the projected-gradient norms exactly and the
    evaluation accounting matches the cost model."""
    _check_nsims(n_sims)
    base = _gate_stream(seed, 10)
    d, p = 50, 3
    g = sample_unit_vector(d, split_stream(base, 0))
    worst_gap = 0.0
    ok = True
    for kind, stream_idx in (("ds-complete", 1), ("mb", 2)):
        variant = Variant.named(ITERATION_KINDS[kind])
        norm_ord, cost = variant.norm, variant.rounds(p, 1)
        objective = ObjectiveHandle(lambda x, g=g: float(g @ x), d, name="linear")
        config = DriverConfig(p=p, max_evaluations=420, iteration_kind=kind)
        driver_rng = split_stream(base, stream_idx)
        trace = run_driver(objective, np.zeros(d), config, driver_rng)
        best = trace.best_values()
        iterations = len(trace.records) - 1
        bases = itertools.islice(_bases(d, p, driver_rng.generator()), iterations)
        for k, basis in enumerate(bases, start=1):
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
    for k, basis in enumerate(itertools.islice(_bases(d1, 1, reuse_rng.generator()), n_sims)):
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

def run_verify(
    seed: int = DEFAULT_SEED,
    n_sims: int = DEFAULT_NSIMS,
    out_dir: str | Path | None = None,
) -> tuple[list[GateResult], int]:
    """Run every gate; returns the results and a CLI exit code (0 iff all pass).

    With ``out_dir`` set, writes ``verify_gates.csv`` (deterministic bytes for
    a given seed) and a JSON manifest alongside, which also holds the seconds
    each gate took.  A bad ``n_sims`` is refused before the first gate.
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
        (out / "verify_gates.csv").write_text(
            to_csv(GateResult, results), encoding="ascii", newline="\n"
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
