"""Tests of the benchmark itself: every correctness check fires on a tampered
output, and the tracer's self times add up.

Run from the root of a checkout:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import math

import numpy as np
import pytest

import checks
from tracer import Tracer

GATES_CSV = (
    "criterion,name,passed,detail\n"
    "1,ds-closed-form-vs-mc,pass,max |z| = 1.2\n"
    "2,mb-closed-form-vs-mc,pass,max |z| = 0.8\n"
)


def test_verify_check_passes_clean_output():
    assert checks.check_verify(0, GATES_CSV, 2, GATES_CSV) == (4, [])


@pytest.mark.parametrize(
    "exit_code, csv_text, reference",
    [
        (1, GATES_CSV, None),
        (0, GATES_CSV.replace("pass,max |z| = 0.8", "FAIL,max |z| = 3.8"), None),
        (0, "".join(GATES_CSV.splitlines(keepends=True)[:2]), None),
        (0, GATES_CSV, GATES_CSV.replace("1.2", "1.3")),
    ],
    ids=["exit-code", "failed-gate", "missing-gate", "bytes-changed"],
)
def test_verify_check_fires(exit_code, csv_text, reference):
    attempted, failures = checks.check_verify(exit_code, csv_text, 2, reference)
    assert attempted == 4 and len(failures) == 1


def _grid_rows(mc_value=0.30, se=0.01):
    return [
        {"variant": "ds", "d": 8, "p": 1, "method": "mc", "metric": "per-iteration",
         "value": mc_value, "std_error": se},
        {"variant": "ds", "d": 8, "p": 1, "method": "exact", "metric": "per-iteration",
         "value": 0.31, "std_error": None},
        {"variant": "ds", "d": 8, "p": 4, "method": "mc", "metric": "per-iteration",
         "value": 0.5, "std_error": 0.01},
    ]


CELLS = [(8, 1), (8, 4)]


def test_grid_check_passes_clean_output():
    assert checks.check_grid("g", _grid_rows(), CELLS, ("per-iteration",)) == (3, [])


def test_grid_check_fires_on_missing_mc_row():
    rows = [r for r in _grid_rows() if not (r["method"] == "mc" and r["p"] == 4)]
    assert len(checks.check_grid("g", rows, CELLS, ("per-iteration",))[1]) == 1


def test_grid_check_fires_beyond_five_sigma():
    rows = _grid_rows(mc_value=0.31 + 5.01 * 0.01)
    assert len(checks.check_grid("g", rows, CELLS, ("per-iteration",))[1]) == 1


def test_grid_check_needs_exact_match_without_noise():
    rows = _grid_rows(mc_value=0.3100001, se=0.0)
    assert len(checks.check_grid("g", rows, CELLS, ("per-iteration",))[1]) == 1


def test_sweep_check_fires():
    row = {"variant": "ds", "d": 64, "p": 1, "method": "exact", "metric": "per-work(2)",
           "value": 0.1, "std_error": None}
    assert checks.check_sweep("s", [row])[1] == []
    assert len(checks.check_sweep("s", [row, dict(row)])[1]) == 1
    assert len(checks.check_sweep("s", [{**row, "value": 1.5}])[1]) == 1
    assert len(checks.check_sweep("s", [])[1]) == 1


def test_trace_check_fires():
    assert checks.check_trace("t", [3.0, 2.0, 2.0], 7, 7) == (3, [])
    assert len(checks.check_trace("t", [3.0, math.nan], 7, 7)[1]) == 1
    assert len(checks.check_trace("t", [3.0, 2.0, 2.5], 7, 7)[1]) == 1
    assert len(checks.check_trace("t", [3.0, 2.0], 7, 8)[1]) == 1


def test_traced_run_self_times_add_up_and_count():
    import subspace_dfo as sdfo
    from subspace_dfo import DriverConfig

    tracer = Tracer()
    tracer.install()
    try:
        (trace, handle), wall = tracer.run_root(
            lambda: sdfo.run_optimizer_experiment(
                "sphere-quadratic", 100, DriverConfig(p=2, max_evaluations=42), 0
            )
        )
    finally:
        tracer.uninstall()
    m = {name: value for name, (value, unit) in tracer.metrics().items()}
    assert m["trace.self_sum_s"] == pytest.approx(wall, rel=1e-9)
    assert m["optimizer.run_driver.calls"] == 1
    assert m["optimizer.evaluations"] == handle.eval_count == trace.final.eval_count
    assert m["optimizer.budget_overshoot"] == handle.eval_count - 42 > 0
    assert m["rng.sample_stiefel.calls"] == m["optimizer.iterations"] == len(trace.records) - 1
    assert m["optimizer.sphere_d100_p2.us_per_eval"] > 0.0
    # Uninstalling restores the original functions.
    assert sdfo.run_optimizer_experiment.__module__ == "subspace_dfo.experiments"
    assert not hasattr(sdfo.run_optimizer_experiment, "__wrapped__")


def test_traced_mc_counters_follow_arguments():
    from subspace_dfo import RngStream, montecarlo

    tracer = Tracer()
    tracer.install()
    try:
        tracer.run_root(
            lambda: [montecarlo.estimate("ds", 2, 16, 100, RngStream(0)) for _ in range(2)]
            + [montecarlo.estimate("mb", 3, 16, 50, RngStream(1), "full-basis")]
        )
    finally:
        tracer.uninstall()
    m = {name: value for name, (value, unit) in tracer.metrics().items()}
    assert m["montecarlo.estimate.calls"] == 3
    assert m["montecarlo.replicates"] == 250
    assert m["montecarlo.normals_computed"] == 2 * 100 * 16 + 50 * 16 * 4
    assert m["montecarlo.unique_cell_ratio"] == pytest.approx(2 / 3)
    assert np.isclose(m["trace.self_sum_s"], m["trace.wall_s"])


def test_wall_sums_fastest_sample_of_each_part():
    import run

    bodies = [
        {"wall_s": 0.041, "work": 50, "failures": [], "part_ms": [10.0, 30.0], "partial": False},
        {"wall_s": 0.036, "work": 50, "failures": [], "part_ms": [20.0, 15.0], "partial": False},
        {"wall_s": 0.001, "work": 0, "failures": ["exception: boom"], "part_ms": [], "partial": False},
        {"wall_s": 0.008, "work": 25, "failures": [], "part_ms": [8.0], "partial": True},
    ]
    res = {"bodies": bodies, "peak_rss_mb": 60.0}
    metrics, extra = run.end_to_end("optimize", 0.1, res)
    assert metrics["wall_s"][0] == pytest.approx(0.023)
    assert metrics["work_per_s"][0] == pytest.approx(50 / 0.023)
    assert extra["run_samples"] == (5, "count")
    assert extra["extra_parts"] == (1, "count")
    one_part = [{**b, "part_ms": b["part_ms"][:1]} for b in bodies[:3]]
    metrics, _ = run.end_to_end("verify", 0.1, {**res, "bodies": one_part})
    assert metrics["wall_s"][0] == 0.036
