"""Correctness checks on the outputs of each workload.

Each check function takes parsed outputs and returns ``(attempted, failures)``:
the number of checks made and a list of one-line descriptions of those that
failed.  The benchmark's ``error_rate`` is failures plus raised exceptions
over checks attempted.  The functions are pure so that the benchmark's tests
can feed them tampered outputs.
"""

from __future__ import annotations

import csv
import io
import math

# An MC row and its exact partner must agree within this many standard errors.
# At 5 sigma a correct cell fails about once in 1.7 million.
Z_LIMIT = 5.0

Checked = tuple[int, list[str]]


def parse_rows(text: str) -> list[dict]:
    """Rows of a figure CSV with numeric fields converted."""
    rows = []
    for raw in csv.DictReader(io.StringIO(text)):
        rows.append(
            {
                "variant": raw["variant"],
                "d": int(raw["d"]),
                "p": int(raw["p"]),
                "method": raw["method"],
                "metric": raw["metric"],
                "value": float(raw["value"]),
                "std_error": float(raw["std_error"]) if raw["std_error"] else None,
            }
        )
    return rows


def check_verify(exit_code: int, csv_text: str, n_gates: int, reference: str | None) -> Checked:
    """``verify`` exits 0, every gate row passes, and the CSV bytes are stable.

    ``reference`` is the gate CSV of an earlier run of the same source tree,
    or None when this is the first.
    """
    failures = []
    if exit_code != 0:
        failures.append(f"verify exit code {exit_code}")
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    if len(rows) != n_gates:
        failures.append(f"verify wrote {len(rows)} gate rows, expected {n_gates}")
    failures += [
        f"gate {r['criterion']} ({r['name']}) did not pass" for r in rows if r["passed"] != "pass"
    ]
    if reference is not None and csv_text != reference:
        failures.append("verify_gates.csv bytes differ from an earlier run of the same source")
    return 2 + n_gates, failures


def check_grid(name: str, rows: list[dict], cells: list[tuple[int, int]], metrics: tuple[str, ...]) -> Checked:
    """Every spec'd (d, p) cell has an MC row per metric, and each MC row that
    has an exact partner agrees with it within ``Z_LIMIT`` standard errors."""
    attempted = 0
    failures = []
    by_key = {(r["method"], r["metric"], r["d"], r["p"]): r for r in rows}
    for metric in metrics:
        for d, p in cells:
            attempted += 1
            mc = by_key.get(("mc", metric, d, p))
            if mc is None:
                failures.append(f"{name}: no MC row for {metric} d={d} p={p}")
                continue
            exact = by_key.get(("exact", metric, d, p))
            if exact is None:
                continue
            attempted += 1
            gap = abs(mc["value"] - exact["value"])
            se = mc["std_error"] or 0.0
            if not (gap <= Z_LIMIT * se or (se == 0.0 and gap <= 1e-15)):
                failures.append(
                    f"{name}: {metric} d={d} p={p} MC {mc['value']!r} vs exact "
                    f"{exact['value']!r} (se {se!r})"
                )
    return attempted, failures


def check_sweep(name: str, rows: list[dict]) -> Checked:
    """A parallel sweep has rows, one per (metric, p), each a decrease in (0, 1]."""
    failures = []
    if not rows:
        failures.append(f"{name}: no rows")
    keys = [(r["metric"], r["p"]) for r in rows]
    if len(set(keys)) != len(keys):
        failures.append(f"{name}: repeated (metric, p) rows")
    if not all(0.0 < r["value"] <= 1.0 for r in rows):
        failures.append(f"{name}: value outside (0, 1]")
    return 3, failures


def check_trace(label: str, best_values: list[float], trace_evals: int, handle_evals: int) -> Checked:
    """Driver best values are finite and nonincreasing, and the trace's final
    evaluation count equals the objective handle's."""
    failures = []
    if not all(math.isfinite(v) for v in best_values):
        failures.append(f"{label}: non-finite best value")
    if any(b > a for a, b in zip(best_values, best_values[1:])):
        failures.append(f"{label}: best value increased")
    if trace_evals != handle_evals:
        failures.append(f"{label}: trace counts {trace_evals} evaluations, handle {handle_evals}")
    return 3, failures
