"""Span tracer for the traced benchmark run.

The tracer wraps every public function of the package's layer modules and
installs each wrapper wherever a caller looks the name up: the defining
module (so intra-module calls are seen), every module that imported the name
(``experiments.estimate``, ``optimizer.sample_stiefel``, ...), the package
namespace, and module-level tuples of functions such as
``experiments.ALL_GATES``.  Two methods are wrapped as well:
``RngStream.generator`` and the objective callable handed to
``ObjectiveHandle``, so that generator construction and evaluation time are
spans of their own.

Spans stay in memory as ``[key, start, end, parent, child_seconds]`` lists;
a span's self time is its duration minus the time of its direct children, so
the self times of all spans, the root span included, add up to the root's
duration.  Counters are computed from call arguments at the same boundaries
and are labelled "computed": they are what the arguments ask for, not a count
taken inside numpy.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
from collections import defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = ("rng", "specfun", "formulas", "montecarlo", "optimizer", "experiments", "cli")

# Thin file-writing helpers: their time belongs to the caller, so the figure
# CSV and manifest writes count as cli time and the verify files as
# experiments time.
UNWRAPPED = frozenset({"write_rows", "write_manifest"})

ROOT_KEY = "bench.body"
OBJECTIVE_KEY = "objective.call"
DRIVER_KEY = "optimizer.run_driver"

# Open-item cases of the project roadmap, reported on their own.
MC_CASE_D = 1000
MC_CASE_N = 10_000
MC_CASE_PS = (2, 500)
DRIVER_CASE = ("sphere-quadratic", 100, 2)

FIGURE_KEYS = (
    "ds-vary-d",
    "ds-vary-p",
    "ds-perfev-vary-d",
    "ds-perfev-vary-p",
    "mb-vary-d",
    "mb-vary-p",
    "mb-perfev-vary-d",
    "mb-perfev-vary-p",
    "parallel-sweep-ds",
    "parallel-sweep-mb",
)
GATE_COUNT = 10


def _arg(args: tuple, kwargs: dict, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def quantile(values: list[float], q: float) -> float:
    """Inclusive linear-interpolation quantile; 0.0 for an empty list."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1])


class Tracer:
    """Records spans and layer counters while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.normals_rng = 0
        self.mc_replicates = 0
        self.mc_normals = 0
        self.mc_self = defaultdict(float)
        self.cell_keys: list[tuple] = []
        self.cell_ms: list[float] = []
        self.mc_case_ms = defaultdict(list)
        self.driver_iterations = 0
        self.driver_successes = 0
        self.driver_evaluations = 0
        self.driver_overshoot = 0
        self.driver_case_s = 0.0
        self.driver_case_evals = 0
        self.quadrature_seen: set[tuple] = set()
        self.quadrature_cold_s = 0.0
        self.gate_s = defaultdict(float)
        self.figure_s = defaultdict(float)

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, key: str, hook=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [key, 0.0, 0.0, parent, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = end = perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][4] += end - start
            if hook is not None:
                hook(args, kwargs, result, end - start, end - start - span[4])
            return result

        return functools.update_wrapper(wrapper, fn)

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> None:
        package = importlib.import_module("subspace_dfo")
        modules = [importlib.import_module(f"subspace_dfo.{layer}") for layer in LAYERS]
        hooks = self._hooks()
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for name, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not name.startswith("_")
                    and name not in UNWRAPPED
                ):
                    key = f"{layer}.{name}"
                    wrappers[obj] = self._wrap(obj, key, hooks.get(key))
        for module in [package, *modules]:
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(module, name, wrappers[obj])
                elif isinstance(obj, tuple) and any(
                    inspect.isfunction(x) and x in wrappers for x in obj
                ):
                    self._patch(
                        module,
                        name,
                        tuple(wrappers.get(x, x) if inspect.isfunction(x) else x for x in obj),
                    )
        rng, optimizer = modules[0], modules[4]
        self._patch(rng.RngStream, "generator", self._wrap(rng.RngStream.generator, "rng.generator"))
        handle_init = optimizer.ObjectiveHandle.__init__
        wrap = self._wrap

        def traced_init(handle, fn, *args, **kwargs):
            handle_init(handle, wrap(fn, OBJECTIVE_KEY), *args, **kwargs)

        self._patch(optimizer.ObjectiveHandle, "__init__", traced_init)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, value = self._patches.pop()
            setattr(owner, name, value)

    def run_root(self, fn):
        """Call ``fn()`` inside the root span; returns its result and duration."""
        return self._wrap(fn, ROOT_KEY)(), self.spans[0][2] - self.spans[0][1]

    # -- counters at layer boundaries ----------------------------------------

    def _hooks(self) -> dict:
        return {
            "rng.sample_stiefel": self._on_stiefel,
            "rng.sample_unit_vector": self._on_unit_vector,
            "formulas.nested_sine_integral": self._on_quadrature,
            "montecarlo.estimate": self._on_estimate,
            "montecarlo.replicate_decreases": self._on_replicates,
            "montecarlo.paired_compare": self._on_paired(4),
            "montecarlo.paired_ratio_gap": self._on_paired(5),
            DRIVER_KEY: self._on_driver,
            "experiments.run_named_figure": self._on_figure,
            "experiments.run_parallel_sweep": self._on_sweep,
            **{f"experiments.{fn}": self._on_gate for fn in _gate_names()},
        }

    def _on_stiefel(self, args, kwargs, result, dur, self_s):
        self.normals_rng += _arg(args, kwargs, 0, "d") * _arg(args, kwargs, 1, "p")

    def _on_unit_vector(self, args, kwargs, result, dur, self_s):
        self.normals_rng += _arg(args, kwargs, 0, "d")

    def _on_quadrature(self, args, kwargs, result, dur, self_s):
        key = (_arg(args, kwargs, 0, "p"), _arg(args, kwargs, 1, "tol", 1e-10))
        if key not in self.quadrature_seen:
            self.quadrature_seen.add(key)
            self.quadrature_cold_s += dur

    def _on_estimate(self, args, kwargs, result, dur, self_s):
        variant, p, d, n_sims, rng = (
            _arg(args, kwargs, i, name)
            for i, name in enumerate(("variant", "p", "d", "n_sims", "rng"))
        )
        reduction = _arg(args, kwargs, 5, "reduction", "reduced")
        self.cell_keys.append((variant, p, d, n_sims, rng, reduction))
        self.cell_ms.append(dur * 1e3)
        if reduction == "reduced" and d == MC_CASE_D and n_sims == MC_CASE_N and p in MC_CASE_PS:
            self.mc_case_ms[p].append(dur * 1e3)

    def _on_replicates(self, args, kwargs, result, dur, self_s):
        p, d, n_sims = (_arg(args, kwargs, i, name) for i, name in ((1, "p"), (2, "d"), (3, "n_sims")))
        reduction = _arg(args, kwargs, 5, "reduction", "reduced")
        self.mc_replicates += n_sims
        self.mc_normals += n_sims * d * (1 if reduction == "reduced" else 1 + p)
        self.mc_self[reduction] += self_s

    def _on_paired(self, n_sims_index: int):
        def hook(args, kwargs, result, dur, self_s):
            d = _arg(args, kwargs, 3, "d")
            n_sims = _arg(args, kwargs, n_sims_index, "n_sims")
            self.mc_replicates += n_sims
            self.mc_normals += n_sims * d
            self.mc_self["paired"] += self_s

        return hook

    def _on_driver(self, args, kwargs, result, dur, self_s):
        objective = _arg(args, kwargs, 0, "objective")
        config = _arg(args, kwargs, 2, "config")
        best = [r.best_value for r in result.records]
        evals = result.final.eval_count
        self.driver_iterations += len(best) - 1
        self.driver_successes += sum(b < a for a, b in zip(best, best[1:]))
        self.driver_evaluations += evals
        self.driver_overshoot += max(0, evals - config.max_evaluations)
        if (objective.name, objective.dimension, config.p) == DRIVER_CASE:
            self.driver_case_s += dur
            self.driver_case_evals += evals

    def _on_figure(self, args, kwargs, result, dur, self_s):
        self.figure_s[_arg(args, kwargs, 0, "spec").name] += dur

    def _on_sweep(self, args, kwargs, result, dur, self_s):
        self.figure_s[f"parallel-sweep-{_arg(args, kwargs, 0, 'variant')}"] += dur

    def _on_gate(self, args, kwargs, result, dur, self_s):
        self.gate_s[result.criterion] += dur

    # -- reporting -----------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        """Write every span as CSV, times relative to the root span's start."""
        t0 = self.spans[0][1] if self.spans else 0.0
        lines = ["id,parent,key,start_s,end_s"]
        for i, (key, start, end, parent, _) in enumerate(self.spans):
            lines.append(f"{i},{parent},{key},{start - t0:.9f},{end - t0:.9f}")
        path.write_text("\n".join(lines) + "\n", encoding="ascii")

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric, by name, as (value, unit)."""
        calls = defaultdict(int)
        incl = defaultdict(float)
        self_by_key = defaultdict(float)
        self_by_layer = defaultdict(float)
        under_driver = [False] * len(self.spans)
        basis_s = objective_in_driver_s = 0.0
        for i, (key, start, end, parent, child) in enumerate(self.spans):
            if parent >= 0:
                under_driver[i] = under_driver[parent] or self.spans[parent][0] == DRIVER_KEY
            dur = end - start
            calls[key] += 1
            incl[key] += dur
            self_by_key[key] += dur - child
            self_by_layer[key.split(".", 1)[0]] += dur - child
            if under_driver[i] and key == "rng.sample_stiefel":
                basis_s += dur
            if under_driver[i] and key == OBJECTIVE_KEY:
                objective_in_driver_s += dur

        def layer_calls(layer: str) -> int:
            return sum(n for k, n in calls.items() if k.startswith(layer + "."))

        wall = incl[ROOT_KEY]
        driver_s = incl[DRIVER_KEY]
        evals = self.driver_evaluations
        mc_incl = sum(
            incl[k]
            for k in ("montecarlo.estimate", "montecarlo.paired_compare", "montecarlo.paired_ratio_gap")
        )
        stiefel_calls = calls["rng.sample_stiefel"]
        m: dict[str, tuple[float, str]] = {
            "rng.sample_stiefel.calls": (stiefel_calls, "count"),
            "rng.sample_stiefel.self_s": (self_by_key["rng.sample_stiefel"], "s"),
            "rng.sample_stiefel.us_per_call": (
                incl["rng.sample_stiefel"] / stiefel_calls * 1e6 if stiefel_calls else 0.0,
                "us",
            ),
            "rng.generator.calls": (calls["rng.generator"], "count"),
            "rng.generator.self_s": (self_by_key["rng.generator"], "s"),
            "rng.normals_computed": (self.normals_rng, "count"),
            "specfun.gamma_half_ratio.calls": (calls["specfun.gamma_half_ratio"], "count"),
            "formulas.calls": (layer_calls("formulas"), "count"),
            "formulas.nested_sine_integral.cold_s": (self.quadrature_cold_s, "s"),
            "montecarlo.estimate.calls": (calls["montecarlo.estimate"], "count"),
            "montecarlo.replicates": (self.mc_replicates, "count"),
            "montecarlo.normals_computed": (self.mc_normals, "count"),
            "montecarlo.bytes_computed": (self.mc_normals * 8, "B"),
            "montecarlo.reduced.self_s": (self.mc_self["reduced"], "s"),
            "montecarlo.full_basis.self_s": (self.mc_self["full-basis"], "s"),
            "montecarlo.paired.self_s": (self.mc_self["paired"], "s"),
            "montecarlo.replicates_per_s": (
                self.mc_replicates / mc_incl if mc_incl else 0.0,
                "1/s",
            ),
            "montecarlo.cell_samples": (len(self.cell_ms), "count"),
            "montecarlo.cell_p50_ms": (quantile(self.cell_ms, 0.5), "ms"),
            "montecarlo.cell_p90_ms": (quantile(self.cell_ms, 0.9), "ms"),
            "montecarlo.unique_cell_ratio": (
                len(set(self.cell_keys)) / len(self.cell_keys) if self.cell_keys else 0.0,
                "ratio",
            ),
            **{
                f"montecarlo.cell.d{MC_CASE_D}_p{p}.ms": (
                    statistics.median(self.mc_case_ms[p]) if self.mc_case_ms[p] else 0.0,
                    "ms",
                )
                for p in MC_CASE_PS
            },
            "optimizer.run_driver.calls": (calls[DRIVER_KEY], "count"),
            "optimizer.iterations": (self.driver_iterations, "count"),
            "optimizer.evaluations": (evals, "count"),
            "optimizer.objective_s": (incl[OBJECTIVE_KEY], "s"),
            "optimizer.basis_s": (basis_s, "s"),
            "optimizer.driver_self_s": (self_by_key[DRIVER_KEY], "s"),
            "optimizer.overhead_us_per_eval": (
                (driver_s - objective_in_driver_s) / evals * 1e6 if evals else 0.0,
                "us",
            ),
            "optimizer.eval_wait_share": (
                objective_in_driver_s / driver_s if driver_s else 0.0,
                "ratio",
            ),
            "optimizer.success_ratio": (
                self.driver_successes / self.driver_iterations if self.driver_iterations else 0.0,
                "ratio",
            ),
            "optimizer.budget_overshoot": (self.driver_overshoot, "count"),
            "optimizer.mb_iteration.calls": (calls["optimizer.mb_iteration"], "count"),
            "optimizer.mb_iteration.self_s": (self_by_key["optimizer.mb_iteration"], "s"),
            "optimizer.sphere_d100_p2.us_per_eval": (
                self.driver_case_s / self.driver_case_evals * 1e6 if self.driver_case_evals else 0.0,
                "us",
            ),
            **{f"experiments.gate.{c}.s": (self.gate_s[c], "s") for c in range(1, GATE_COUNT + 1)},
            **{f"experiments.figure.{name}.s": (self.figure_s[name], "s") for name in FIGURE_KEYS},
            "cli.main.self_s": (self_by_key["cli.main"], "s"),
            **{f"{layer}.self_s": (self_by_layer[layer], "s") for layer in LAYERS},
            "objective.self_s": (self_by_layer["objective"], "s"),
            "bench.self_s": (self_by_layer["bench"], "s"),
            "trace.wall_s": (wall, "s"),
            "trace.self_sum_s": (sum(self_by_layer.values()), "s"),
            "trace.spans": (len(self.spans), "count"),
        }
        return m


def _gate_names() -> list[str]:
    experiments = importlib.import_module("subspace_dfo.experiments")
    return [gate.__name__ for gate in experiments.ALL_GATES]
