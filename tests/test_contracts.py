"""One contract table for the public inputs.

Each integer argument of the public API gets a bool, a float, NaN, 0 and -1;
each real-valued argument a bool, a string, NaN, both infinities, 0.0, -1.0
and an int beyond the float range; each named choice an unknown name, None
and a list; each list argument an empty, a repeated and an iterator value;
each integer flag of the CLI the same bad integers as text.  A library call
must raise a ValueError (or a subclass) whose message shows the value, and a
CLI call must exit 2 with a message naming the flag or the value, unless the
row is an accept that the function's docstring documents.  Every parameter
of every public callable has a row here or an exemption with its reason.
"""

import inspect
import math
import re

import numpy as np
import pytest

import subspace_dfo
from subspace_dfo import (
    DriverConfig,
    ExperimentSpec,
    ObjectiveHandle,
    RngStream,
    Variant,
    default_figure_spec,
    ds_iteration,
    estimate,
    estimates,
    expected_decrease_ds,
    expected_decrease_mb,
    gamma_half_ratio,
    log_gamma,
    make_objective,
    mb_iteration,
    paired_ratio_gap,
    per_evaluation_opportunistic,
    polling_factor,
    replicate_decreases,
    run_optimizer_experiment,
    run_parallel_sweep,
    run_verify,
    sample_stiefel,
    sample_unit_vector,
    split_stream,
)
from subspace_dfo.cli import main

ACCEPT = object()
BAD_INTS = (True, 2.5, math.nan, 0, -1)
HUGE = 10**400  # an int beyond the float range
BAD_REALS = (True, "1", math.nan, math.inf, -math.inf, 0.0, -1.0, HUGE)
BAD_NAMES = ("nope", None, ["nope"])
DS = Variant.named("ds")
BASIS = sample_stiefel(4, 2, RngStream(0))


def _spec(**fields) -> ExperimentSpec:
    return ExperimentSpec(**{"name": "x", "variant": "ds", "d_values": (8,), **fields})


def _optimize(d=4, seed=0, max_evaluations=10):
    return run_optimizer_experiment("sphere-quadratic", d, DriverConfig(1, max_evaluations), seed)


def _estimates(cells):
    values = estimates("ds", cells, 100, RngStream(0))
    if cells == ((2, 8), (2, 8)):
        assert values[0] == values[1]


def _iterate(iteration, fx=0.0, delta=0.5):
    # A refusal must come before any evaluation.
    objective = ObjectiveHandle(np.sum, 4)
    try:
        iteration(objective, np.zeros(4), fx, BASIS, delta)
    except ValueError:
        assert objective.eval_count == 0
        raise


# Each integer argument, called with the value in its place and good values
# elsewhere, and the values of BAD_INTS it accepts as documented (a seed or a
# stream index may be 0, and so may a budget).
INT_ARGS = {
    "RngStream-seed": (RngStream, {0}),
    "split_stream-k": (lambda v: split_stream(RngStream(0), v), {0}),
    "sample_stiefel-d": (lambda v: sample_stiefel(v, 1, RngStream(0)), ()),
    "sample_stiefel-p": (lambda v: sample_stiefel(4, v, RngStream(0)), ()),
    "sample_unit_vector-d": (lambda v: sample_unit_vector(v, RngStream(0)), ()),
    "gamma_half_ratio": (gamma_half_ratio, ()),
    "polling_factor": (polling_factor, ()),
    "expected_decrease_ds-p": (lambda v: expected_decrease_ds(v, 8), ()),
    "expected_decrease_ds-d": (lambda v: expected_decrease_ds(2, v), ()),
    "expected_decrease_mb-p": (lambda v: expected_decrease_mb(v, 8), ()),
    "expected_decrease_mb-d": (lambda v: expected_decrease_mb(2, v), ()),
    "per_evaluation_opportunistic-p": (lambda v: per_evaluation_opportunistic(v, 8), ()),
    "per_evaluation_opportunistic-d": (lambda v: per_evaluation_opportunistic(2, v), ()),
    "rounds-p": (lambda v: DS.rounds(v, 2), ()),
    "rounds-cores": (lambda v: DS.rounds(2, v), ()),
    "per_work-p": (lambda v: DS.per_work(v, 8, 2), ()),
    "per_work-d": (lambda v: DS.per_work(2, v, 2), ()),
    "per_work-cores": (lambda v: DS.per_work(2, 8, v), ()),
    "asymptotic-p": (lambda v: DS.asymptotic(v, 8), ()),
    "asymptotic-d": (lambda v: DS.asymptotic(2, v), ()),
    "sweep_step-cores": (DS.sweep_step, ()),
    "DriverConfig-p": (lambda v: DriverConfig(v, 10), ()),
    "DriverConfig-max_evaluations": (lambda v: DriverConfig(1, v), {0}),
    "ObjectiveHandle-dimension": (lambda v: ObjectiveHandle(np.sum, v), ()),
    "estimate-p": (lambda v: estimate("ds", v, 8, 100, RngStream(0)), ()),
    "estimate-d": (lambda v: estimate("ds", 2, v, 100, RngStream(0)), ()),
    "estimate-n_sims": (lambda v: estimate("ds", 2, 8, v, RngStream(0)), ()),
    "replicate_decreases-p": (lambda v: replicate_decreases("ds", v, 8, 100, RngStream(0)), ()),
    "replicate_decreases-d": (lambda v: replicate_decreases("ds", 2, v, 100, RngStream(0)), ()),
    "replicate_decreases-n_sims": (
        lambda v: replicate_decreases("ds", 2, 8, v, RngStream(0)), ()
    ),
    "estimates-p": (lambda v: estimates("ds", [(1, 8), (v, 8)], 100, RngStream(0)), ()),
    "estimates-d": (lambda v: estimates("ds", [(1, 8), (2, v)], 100, RngStream(0)), ()),
    "estimates-n_sims": (lambda v: estimates("ds", [(1, 8)], v, RngStream(0)), ()),
    "paired_ratio_gap-p1": (lambda v: paired_ratio_gap("ds", v, 2, 8, 1.0, 100, RngStream(0)), ()),
    "paired_ratio_gap-p2": (lambda v: paired_ratio_gap("ds", 1, v, 8, 1.0, 100, RngStream(0)), ()),
    "paired_ratio_gap-d": (lambda v: paired_ratio_gap("ds", 1, 2, v, 1.0, 100, RngStream(0)), ()),
    "paired_ratio_gap-n_sims": (
        lambda v: paired_ratio_gap("ds", 1, 2, 8, 1.0, v, RngStream(0)), ()
    ),
    "default_figure_spec-n_sims": (lambda v: default_figure_spec("ds-vary-d", n_sims=v), ()),
    "default_figure_spec-seed": (lambda v: default_figure_spec("ds-vary-d", seed=v), {0}),
    "make_objective-d": (lambda v: make_objective("sphere-quadratic", v, RngStream(0)), ()),
    "run_optimizer_experiment-d": (lambda v: _optimize(d=v), ()),
    "run_optimizer_experiment-seed": (lambda v: _optimize(seed=v), {0}),
    "run_parallel_sweep-d": (lambda v: run_parallel_sweep("ds", v, (2,)), ()),
    "ExperimentSpec-seed": (lambda v: _spec(seed=v), {0}),
    "ExperimentSpec-n_sims": (lambda v: _spec(n_sims=v), ()),
    "run_verify-seed": (lambda v: run_verify(seed=v, n_sims=100), {0}),
    "run_verify-n_sims": (lambda v: run_verify(n_sims=v), ()),
}
# Accepts that would run the whole gate suite: not a unit test.
LIBRARY_SKIPPED = {("run_verify-seed", 0)}

# Each real-valued argument, called with a value of BAD_REALS in its place,
# and the values it accepts as documented: any finite claimed ratio or
# incumbent value.
FINITE = {0.0, -1.0}
REAL_ARGS = {
    "DriverConfig-initial_step": (lambda v: DriverConfig(1, 10, initial_step=v), ()),
    "DriverConfig-expand_factor": (lambda v: DriverConfig(1, 10, expand_factor=v), ()),
    "DriverConfig-contract_factor": (lambda v: DriverConfig(1, 10, contract_factor=v), ()),
    "DriverConfig-min_step": (lambda v: DriverConfig(1, 10, min_step=v), ()),
    "ds_iteration-delta": (lambda v: _iterate(ds_iteration, delta=v), ()),
    "ds_iteration-fx": (lambda v: _iterate(ds_iteration, fx=v), FINITE),
    "mb_iteration-delta": (lambda v: _iterate(mb_iteration, delta=v), ()),
    "mb_iteration-fx": (lambda v: _iterate(mb_iteration, fx=v), FINITE),
    "paired_ratio_gap-target_ratio": (
        lambda v: paired_ratio_gap("ds", 1, 2, 8, v, 100, RngStream(0)), FINITE
    ),
    "log_gamma": (log_gamma, ()),
}

# Each named choice, called with a value of BAD_NAMES in its place; none is
# accepted.  A string ``p_rule`` names a rule and a list is read as p values.
NAME_ARGS = {
    "named-name": Variant.named,
    "estimate-variant": lambda v: estimate(v, 2, 8, 100, RngStream(0)),
    "estimate-reduction": lambda v: estimate("ds", 2, 8, 100, RngStream(0), v),
    "estimates-variant": lambda v: estimates(v, [(2, 8)], 100, RngStream(0)),
    "paired_ratio_gap-variant": lambda v: paired_ratio_gap(v, 1, 2, 8, 1.0, 100, RngStream(0)),
    "replicate_decreases-variant": lambda v: replicate_decreases(v, 2, 8, 100, RngStream(0)),
    "replicate_decreases-reduction": (
        lambda v: replicate_decreases("ds", 2, 8, 100, RngStream(0), v)
    ),
    "DriverConfig-iteration_kind": lambda v: DriverConfig(1, 10, iteration_kind=v),
    "make_objective-name": lambda v: make_objective(v, 4, RngStream(0)),
    "run_optimizer_experiment-function_name": (
        lambda v: run_optimizer_experiment(v, 4, DriverConfig(1, 10))
    ),
    "run_parallel_sweep-variant": lambda v: run_parallel_sweep(v, 64, (2,)),
    "ExperimentSpec-variant": lambda v: _spec(variant=v),
    "ExperimentSpec-outputs": lambda v: _spec(outputs=v),
    "ExperimentSpec-p_rule": lambda v: _spec(p_rule=v),
    "ExperimentSpec-include": lambda v: _spec(include=[v]),
    "default_figure_spec-name": default_figure_spec,
}

# Each list argument with an empty, a repeated and an iterator value, in that
# order: the expected text of the refusal, or ACCEPT.  A repeated cell in
# ``estimates`` gives the same estimate twice.
LIST_ROWS = {
    "estimates-cells": (
        _estimates,
        [((), "cells must be a non-empty list of (p, d) pairs, got ()"),
         (((2, 8), (2, 8)), ACCEPT), (iter(((1, 8), (2, 16))), ACCEPT)],
    ),
    "ExperimentSpec-d_values": (
        lambda v: _spec(d_values=v),
        [((), "d_values must name at least one value, got none"),
         ([8, 8], "d_values must not repeat a value, got [8, 8]"),
         (iter((8, 16)), ACCEPT)],
    ),
    "ExperimentSpec-p_rule": (
        lambda v: _spec(p_rule=v),
        [((), "p_rule must name at least one value, got none"),
         ([1, 2, 1], "p_rule must not repeat a value, got [1, 2, 1]"),
         (iter((1, 2)), ACCEPT)],
    ),
    "ExperimentSpec-include": (
        lambda v: _spec(include=v),
        [((), "include must name at least one value, got none"),
         (("mc", "mc"), "include must not repeat a value, got ('mc', 'mc')"),
         (iter(("mc",)), ACCEPT)],
    ),
    "run_parallel_sweep-cores": (
        lambda v: run_parallel_sweep("ds", 64, v),
        [((), "core counts must name at least one value, got none"),
         ((2, 2), "core counts must not repeat a value, got (2, 2)"),
         (iter((2, 4)), ACCEPT)],
    ),
}

def _integer_float(value):
    # A float with an integer value stands for that integer.
    assert gamma_half_ratio(value) == gamma_half_ratio(int(value))


def _shows(value_text: str) -> str:
    """A pattern for ``value_text`` as a token of a message, an integer
    written as a float included."""
    return rf"(?<![\w.]){re.escape(value_text)}(?:\.0)?(?![\w.])"


def _library_rows():
    for table, values in ((INT_ARGS, BAD_INTS), (REAL_ARGS, BAD_REALS)):
        for name, (call, accepts) in table.items():
            for value in values:
                if (name, value) in LIBRARY_SKIPPED:
                    continue
                expected = ACCEPT if value in accepts else None
                # HUGE goes by its formula in the id, not by its 401 digits.
                label = "10**400" if value is HUGE else repr(value)
                yield pytest.param(call, value, expected, id=f"{name}-{label}")
    for name, call in NAME_ARGS.items():
        for value in BAD_NAMES:
            yield pytest.param(call, value, None, id=f"{name}-{value!r}")
    for name, (call, cases) in LIST_ROWS.items():
        for kind, (value, expected) in zip(("empty", "repeat", "iterator"), cases):
            yield pytest.param(call, value, expected, id=f"{name}-{kind}")
    yield pytest.param(_integer_float, 2.0, ACCEPT, id="gamma_half_ratio-2.0")


@pytest.mark.parametrize("call,value,expected", _library_rows())
def test_library_input_contract(call, value, expected):
    if expected is ACCEPT:
        call(value)
        return
    with pytest.raises(ValueError) as exc:
        call(value)
    if expected is None:
        assert re.search(_shows(repr(value)), str(exc.value)), str(exc.value)
    else:
        assert expected in str(exc.value)


# Keys that name their parameter differently, the components of ``cells``
# included; a key with no parameter covers its callable's only one.
ROW_PARAMS = {
    "run_parallel_sweep-cores": "run_parallel_sweep-cores_list",
    "estimates-p": "estimates-cells",
    "estimates-d": "estimates-cells",
}
_RECORD = "an output record the package builds"
_STREAM = "a stream, which RngStream checks when it is built"
# Parameters with no row, each with its reason.
EXEMPT = {
    "RngStream-stream": "the spawn path split_stream builds",
    **{f"{owner}-{param}": _STREAM for owner, param in (
        ("sample_stiefel", "rng"), ("sample_unit_vector", "rng"), ("split_stream", "rng"),
        ("estimate", "rng"), ("estimates", "rng"), ("paired_ratio_gap", "rng"),
        ("replicate_decreases", "rng"), ("make_objective", "rng"), ("run_driver", "rng"),
    )},
    **{f"Variant-{field}": "the two records are built once, in formulas" for field in (
        "name", "exact", "p_factor", "points", "trial", "norm", "sweep_d", "sweep_cores"
    )},
    **{f"{record}-{field}": _RECORD for record, fields in (
        ("DriverTrace", ("records", "x")),
        ("TraceRecord", ("iteration", "eval_count", "best_value", "step_size")),
        ("Estimate", ("mean", "std_error")),
        ("GateResult", ("criterion", "name", "passed", "detail", "checks")),
        ("Check", ("gate", "cell", "statistic", "value", "bound", "kind")),
        ("ResultRow", ("variant", "d", "p", "method", "metric", "value", "std_error",
                       "n_sims", "seed")),
    ) for field in fields},
    **{f"{owner}-{param}": "an array: its contract is not in the table yet" for owner, param in (
        ("ds_iteration", "x"), ("ds_iteration", "basis"), ("mb_iteration", "x"),
        ("mb_iteration", "basis"), ("run_driver", "x0"),
    )},
    **{f"{owner}-objective": "an ObjectiveHandle, whose dimension has a row"
       for owner in ("ds_iteration", "mb_iteration", "run_driver")},
    "ObjectiveHandle-fn": "a callable, whose values the handle checks",
    "ObjectiveHandle-name": "a free label",
    "ExperimentSpec-name": "a free label",
    "run_driver-config": "a DriverConfig, whose fields have rows",
    "run_optimizer_experiment-config": "a DriverConfig, whose fields have rows",
    "run_named_figure-spec": "an ExperimentSpec, whose fields have rows",
    "run_verify-out_dir": "a path; a bad one fails as the file system fails it",
}


def _public_parameters():
    """(owner, parameter names) for each public callable and Variant method."""
    for name in subspace_dfo.__all__:
        obj = getattr(subspace_dfo, name)
        if callable(obj) and not (isinstance(obj, type) and issubclass(obj, Exception)):
            yield name, list(inspect.signature(obj).parameters)
    for name, method in inspect.getmembers(DS, inspect.ismethod):
        if not name.startswith("_"):
            yield name, list(inspect.signature(method).parameters)


def test_every_public_parameter_has_a_row_or_an_exemption():
    signatures = list(_public_parameters())
    public = {f"{owner}-{param}" for owner, params in signatures for param in params}
    sole = {owner: f"{owner}-{params[0]}" for owner, params in signatures if len(params) == 1}
    keys = {*INT_ARGS, *REAL_ARGS, *NAME_ARGS, *LIST_ROWS}
    covered = {sole.get(key, key) for key in (ROW_PARAMS.get(key, key) for key in keys)}
    missing = public - covered - set(EXEMPT)
    assert not missing, sorted(missing)
    assert not set(EXEMPT) & covered
    # A key of a parameter that no longer exists is stale.
    stale = (covered | set(EXEMPT)) - public
    assert not stale, sorted(stale)


FORMULA = ["formula", "--variant", "ds", "--d", "8", "--p", "2"]
MC = ["mc", "--variant", "ds", "--d", "8", "--p", "2", "--nsims", "100"]
GRID = ["figure", "ds-vary-d", "--d", "8", "--nsims", "100"]
SWEEP = ["figure", "parallel-sweep", "--d", "64"]
OPTIMIZE = ["optimize", "--function", "sphere-quadratic", "--d", "4", "--p", "2", "--budget", "20"]
VERIFY = ["verify", "--nsims", "100"]

# Each integer flag of each subcommand, on otherwise good arguments.
CLI_FLAGS = [
    (FORMULA, "--d"), (FORMULA, "--p"), (FORMULA, "--cores-model"),
    (MC, "--d"), (MC, "--p"), (MC, "--nsims"), (MC, "--seed"),
    (GRID, "--d"), (GRID, "--nsims"), (GRID, "--seed"),
    (SWEEP, "--d"), (SWEEP, "--cores-model"),
    (OPTIMIZE, "--d"), (OPTIMIZE, "--p"), (OPTIMIZE, "--budget"), (OPTIMIZE, "--delta0"),
    (OPTIMIZE, "--seed"),
    (VERIFY, "--nsims"), (VERIFY, "--seed"),
]
# The documented accepts among them: a seed of 0, a budget of 0 (the initial
# point alone) and a real initial step.  Each runs, except ``verify --seed 0``:
# the library rows for seed 0 cover it, and a whole gate suite is not a unit test.
CLI_ACCEPTS = {
    ("mc", "--seed", "0"), ("figure", "--seed", "0"), ("optimize", "--seed", "0"),
    ("optimize", "--budget", "0"), ("optimize", "--delta0", "2.5"),
}
CLI_SKIPPED = {("verify", "--seed", "0")}


def _cli_rows():
    for base, flag in CLI_FLAGS:
        for value in ("True", "2.5", "nan", "0", "-1"):
            key = (base[0], flag, value)
            if key in CLI_SKIPPED:
                continue
            name = " ".join(base[:2] if base[0] == "figure" else base[:1])
            yield pytest.param(base, flag, value, key in CLI_ACCEPTS, id=f"{name} {flag} {value}")


@pytest.mark.parametrize("base,flag,value,accepted", _cli_rows())
def test_cli_input_contract(tmp_path, capsys, base, flag, value, accepted):
    argv = [*base, flag, value]
    if base[0] != "formula":
        argv += ["--out", str(tmp_path / "out")]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    if accepted:
        assert code == 0, err
        return
    assert code == 2
    assert flag in err or re.search(_shows(value), err), err
