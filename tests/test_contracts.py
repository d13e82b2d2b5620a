"""One contract table for the public inputs.

Each integer argument of the public API gets a bool, a float, NaN, 0 and -1;
each list argument an empty, a repeated and an iterator value; each integer
flag of the CLI the same bad integers as text.  A library call must raise a
ValueError (or a subclass) whose message shows the value, and a CLI call must
exit 2 with a message naming the flag or the value, unless the row is an
accept that the function's docstring documents.
"""

import math
import re

import numpy as np
import pytest

from subspace_dfo import (
    DriverConfig,
    ExperimentSpec,
    ObjectiveHandle,
    RngStream,
    Variant,
    default_figure_spec,
    estimate,
    estimates,
    expected_decrease_ds,
    expected_decrease_mb,
    gamma_half_ratio,
    make_objective,
    paired_ratio_gap,
    per_evaluation_opportunistic,
    polling_factor,
    run_optimizer_experiment,
    run_parallel_sweep,
    sample_stiefel,
    sample_unit_vector,
    split_stream,
)
from subspace_dfo.cli import main

ACCEPT = object()
BAD_INTS = (True, 2.5, math.nan, 0, -1)
DS = Variant.named("ds")


def _spec(**fields) -> ExperimentSpec:
    return ExperimentSpec(**{"name": "x", "variant": "ds", "d_values": (8,), **fields})


def _optimize(d=4, seed=0, max_evaluations=10):
    return run_optimizer_experiment("sphere-quadratic", d, DriverConfig(1, max_evaluations), seed)


def _estimates(cells):
    values = estimates("ds", cells, 100, RngStream(0))
    if cells == ((2, 8), (2, 8)):
        assert values[0] == values[1]


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
    "estimates-p": (lambda v: estimates("ds", [(1, 8), (v, 8)], 100, RngStream(0)), ()),
    "estimates-d": (lambda v: estimates("ds", [(1, 8), (2, v)], 100, RngStream(0)), ()),
    "paired_ratio_gap-p1": (lambda v: paired_ratio_gap("ds", v, 2, 8, 1.0, 100, RngStream(0)), ()),
    "default_figure_spec-n_sims": (lambda v: default_figure_spec("ds-vary-d", n_sims=v), ()),
    "default_figure_spec-seed": (lambda v: default_figure_spec("ds-vary-d", seed=v), {0}),
    "make_objective-d": (lambda v: make_objective("sphere-quadratic", v, RngStream(0)), ()),
    "run_optimizer_experiment-d": (lambda v: _optimize(d=v), ()),
    "run_optimizer_experiment-seed": (lambda v: _optimize(seed=v), {0}),
    "run_parallel_sweep-d": (lambda v: run_parallel_sweep("ds", v, (2,)), ()),
    "ExperimentSpec-seed": (lambda v: _spec(seed=v), {0}),
    "ExperimentSpec-n_sims": (lambda v: _spec(n_sims=v), ()),
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
        [((), "include must name at least one method, got none"),
         (("mc", "mc"), "include must not repeat a method, got ('mc', 'mc')"),
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
    for name, (call, accepts) in INT_ARGS.items():
        for value in BAD_INTS:
            expected = ACCEPT if value in accepts else None
            yield pytest.param(call, value, expected, id=f"{name}-{value!r}")
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
