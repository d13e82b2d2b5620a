"""The four benchmark workloads.

Each workload is closed-loop from one client: the next call into the package
starts when the previous one has returned.  A workload builds its inputs from
the benchmark seed in ``__init__`` (untimed; ``state_dir`` persists across
runs, ``src_dir`` is the package source).  Its timed body is a fixed list of
``parts`` (one CLI call, one figure call or one driver run each) that call
only the package's public API; each part is timed on its own.  ``check``
checks the outputs of the parts that ran (untimed) and returns the checks
made, the failures and ``work``, the number of work units completed, in the
unit named by ``work_unit``.

Parts look package functions up as module attributes at call time, so the
traced run's wrappers see the benchmark's own calls.
"""

from __future__ import annotations

import hashlib
import shutil
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import subspace_dfo as sdfo
from subspace_dfo import DriverConfig, ObjectiveHandle, RngStream, cli
from subspace_dfo.experiments import (
    ALL_GATES,
    D_GRID,
    FIGURE_NAMES,
    default_figure_spec,
    p_values_for,
)

FIGURE_NSIMS = 10_000


@dataclass
class BodyResult:
    wall_s: float
    work: float
    attempted: int
    failures: list[str]
    part_ms: list[float]
    # True when the body stopped before its last part (time was up).
    partial: bool = False


def _seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed % 2**63).integers(0, 2**32, size=n)]


def _mc_arrays() -> dict[str, int]:
    """Reduced MC draws one (block, d) normal array per block of replicates."""
    block = getattr(sdfo.montecarlo, "_BLOCK", 4096)
    d = max(D_GRID)
    return {f"reduced_mc_block_{block}x{d}": block * d * 8}


class Verify:
    """``subspace-dfo verify``: all gates of ``ALL_GATES`` at the default
    n_sims and the CLI's default seed, exactly as users run it.

    The gates are 3-sigma tests over about fifty cells, so an arbitrary seed
    fails one of them in roughly one run of seven by chance; the suite is run
    at the seed the CLI ships with, and the benchmark seed changes nothing.
    """

    name = "verify"
    work_unit = "gates"

    def __init__(self, seed: int, state_dir: Path, src_dir: Path) -> None:
        self.n_gates = len(ALL_GATES)
        digest = hashlib.sha256()
        for path in sorted(src_dir.rglob("*.py")):
            digest.update(path.relative_to(src_dir).as_posix().encode() + b"\0" + path.read_bytes())
        # Gate CSV of the first run of this source tree, compared on every later run.
        self.reference_path = state_dir / "verify-reference" / f"{digest.hexdigest()}.csv"

    largest_arrays = staticmethod(_mc_arrays)

    def parts(self, out_dir: Path) -> list:
        return [lambda: cli.main(["verify", "--out", str(out_dir)])]

    def check(self, out_dir: Path, outputs) -> tuple[int, list[str], float]:
        exit_code = outputs[0][0]
        csv_text = (out_dir / "verify_gates.csv").read_text(encoding="ascii")
        reference = None
        if self.reference_path.exists():
            reference = self.reference_path.read_text(encoding="ascii")
        elif exit_code == 0:
            self.reference_path.parent.mkdir(parents=True, exist_ok=True)
            self.reference_path.write_text(csv_text, encoding="ascii")
        attempted, failures = checks.check_verify(exit_code, csv_text, self.n_gates, reference)
        return attempted, failures, self.n_gates


class Figures:
    """The nine grids as ``scripts/reproduce_figures.py`` runs them in one
    process: the eight named grids, then both parallel sweeps."""

    name = "figures"
    work_unit = "cells"

    def __init__(self, seed: int, state_dir: Path, src_dir: Path) -> None:
        self.seed = seed % 2**63

    def _calls(self, out_dir: Path) -> list[tuple[str, list[str]]]:
        """(label, CLI arguments) of each figure call, in the script's order."""
        calls = []
        for name in FIGURE_NAMES:
            cmd = ["figure", name, "--nsims", str(FIGURE_NSIMS), "--seed", str(self.seed)]
            if name == "parallel-sweep":
                for variant in ("ds", "mb"):
                    sub = out_dir / f"parallel-sweep-{variant}"
                    calls.append((sub.name, cmd + ["--out", str(sub), "--variant", variant]))
            else:
                calls.append((name, cmd + ["--out", str(out_dir)]))
        return calls

    largest_arrays = staticmethod(_mc_arrays)

    def parts(self, out_dir: Path) -> list:
        return [lambda args=args: cli.main(args) for _, args in self._calls(out_dir)]

    def check(self, out_dir: Path, outputs) -> tuple[int, list[str], float]:
        attempted, failures, cells = 0, [], set()
        for (label, _), (exit_code, _) in zip(self._calls(out_dir), outputs):
            attempted += 1
            if exit_code != 0:
                failures.append(f"figure call {label} exited {exit_code}")
            if label.startswith("parallel-sweep"):
                rows = checks.parse_rows((out_dir / label / "parallel-sweep.csv").read_text())
                n, f = checks.check_sweep(label, rows)
            else:
                spec = default_figure_spec(label, n_sims=FIGURE_NSIMS, seed=self.seed)
                rows = checks.parse_rows((out_dir / f"{label}.csv").read_text())
                spec_cells = [(d, p) for d in spec.d_values for p in p_values_for(d, spec.p_rule)]
                metrics = ("per-evaluation",) if spec.outputs == "per-evaluation" else ("per-iteration",)
                n, f = checks.check_grid(label, rows, spec_cells, metrics)
            attempted, failures = attempted + n, failures + f
            cells.update((r["variant"], r["d"], r["p"]) for r in rows)
        return attempted, failures, len(cells)


# Driver runs over the named cheap objectives: every iteration kind, d from
# 12 to 1000 and p from 1 to 10, three seeds each (108 runs per body).
OPTIMIZE_OBJECTIVES = ("linear-random-g", "sphere-quadratic", "rosenbrock")
OPTIMIZE_KINDS = ("ds-complete", "ds-opportunistic", "mb")
OPTIMIZE_SHAPES = ((12, 1), (100, 2), (300, 5), (1000, 10))
OPTIMIZE_REPEATS = 3
OPTIMIZE_BUDGET = 300


class _DriverWorkload:
    work_unit = "evaluations"

    def parts(self, out_dir: Path) -> list:
        return [lambda case=case: self.run_case(*case) for case in self.cases]

    def check(self, out_dir: Path, outputs) -> tuple[int, list[str], float]:
        attempted, failures, evaluations = 0, [], 0
        for case, ((trace, handle), _) in zip(self.cases, outputs):
            n, f = checks.check_trace(
                str(case), list(trace.best_values()), trace.final.eval_count, handle.eval_count
            )
            attempted, failures = attempted + n, failures + f
            evaluations += handle.eval_count
        return attempted, failures, evaluations


class Optimize(_DriverWorkload):
    """Fixed-budget driver runs on the cheap named objectives, where basis
    sampling and driver bookkeeping are the whole cost."""

    name = "optimize"

    def __init__(self, seed: int, state_dir: Path, src_dir: Path) -> None:
        grid = [
            (obj, kind, d, p)
            for obj in OPTIMIZE_OBJECTIVES
            for kind in OPTIMIZE_KINDS
            for d, p in OPTIMIZE_SHAPES
        ]
        seeds = _seeds(seed, OPTIMIZE_REPEATS)
        self.cases = [(*g, s) for s in seeds for g in grid]

    @staticmethod
    def largest_arrays() -> dict[str, int]:
        d, p = max(OPTIMIZE_SHAPES)
        return {f"stiefel_gaussian_{d}x{p}": d * p * 8}

    @staticmethod
    def run_case(obj: str, kind: str, d: int, p: int, seed: int):
        config = DriverConfig(p=p, max_evaluations=OPTIMIZE_BUDGET, iteration_kind=kind)
        return sdfo.run_optimizer_experiment(obj, d, config, seed)


# A dense map with tanh sweeps, about 1.4 ms of numpy work per call on a
# 2-core x86 machine: evaluation, not the driver, dominates the run.
COSTLY_D = 100
COSTLY_ROWS = 4000
COSTLY_SWEEPS = 6
COSTLY_CASES = (("ds-complete", 2), ("ds-opportunistic", 5), ("mb", 10))
COSTLY_BUDGET = 700


class CostlyObjective:
    """f(x) = |x|^2 / 2 + |h(x)|^2 with h a few tanh sweeps through a fixed
    dense map; smooth, bounded below and finite everywhere."""

    def __init__(self, seed: int) -> None:
        gen = np.random.default_rng(seed)
        self.w = gen.standard_normal((COSTLY_ROWS, COSTLY_D)) / np.sqrt(COSTLY_D)

    def __call__(self, x: np.ndarray) -> float:
        h = x
        for _ in range(COSTLY_SWEEPS):
            h = self.w.T @ np.tanh(self.w @ h) / COSTLY_ROWS
        return float(0.5 * (x @ x) + h @ h)


class OptimizeCostly(_DriverWorkload):
    """The same driver on an objective costing about 1.4 ms per call, so
    waiting on evaluations is most of the wall time."""

    name = "optimize-costly"

    def __init__(self, seed: int, state_dir: Path, src_dir: Path) -> None:
        seeds = _seeds(seed, len(COSTLY_CASES) + 1)
        self.objective = CostlyObjective(seeds[0])
        self.cases = [(kind, p, s) for (kind, p), s in zip(COSTLY_CASES, seeds[1:])]

    @staticmethod
    def largest_arrays() -> dict[str, int]:
        return {f"costly_map_{COSTLY_ROWS}x{COSTLY_D}": COSTLY_ROWS * COSTLY_D * 8}

    def run_case(self, kind: str, p: int, seed: int):
        handle = ObjectiveHandle(self.objective, COSTLY_D, name="costly")
        config = DriverConfig(p=p, max_evaluations=COSTLY_BUDGET, iteration_kind=kind)
        return sdfo.run_driver(handle, np.ones(COSTLY_D), config, RngStream(seed)), handle


WORKLOADS = {w.name: w for w in (Verify, Figures, Optimize, OptimizeCostly)}


def run_parts(parts: list, may_start=None) -> list[tuple[object, float]]:
    """Run parts in order, each timed; stop before part ``i`` when
    ``may_start(i)`` is false.  Returns (output, seconds) per part run."""
    outputs = []
    for i, part in enumerate(parts):
        if may_start is not None and not may_start(i):
            break
        start = perf_counter()
        out = part()
        outputs.append((out, perf_counter() - start))
    return outputs


def run_body(workload, out_dir: Path, call=None, may_start=None) -> BodyResult:
    """Run one timed body into a fresh ``out_dir`` and check its outputs.

    ``call`` runs the body and returns (outputs, seconds); by default it is
    timed here.  ``may_start`` may stop the body early (see ``run_parts``).
    Exceptions propagate to the caller, which counts them.
    """
    out_dir.mkdir(parents=True)
    try:
        parts = workload.parts(out_dir)
        if call is None:
            start = perf_counter()
            outputs = run_parts(parts, may_start)
            wall = perf_counter() - start
        else:
            outputs, wall = call(lambda: run_parts(parts, may_start))
        attempted, failures, work = workload.check(out_dir, outputs)
        part_ms = [seconds * 1e3 for _, seconds in outputs]
        return BodyResult(wall, work, attempted, failures, part_ms, len(outputs) < len(parts))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
