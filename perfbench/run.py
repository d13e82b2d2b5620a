#!/usr/bin/env python3
"""Benchmark of subspace-dfo: four workloads, end-to-end metrics and a traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): ``verify``, ``figures``, ``optimize`` and
``optimize-costly``.  Each runs in one fresh worker process that imports the
package from this checkout's ``src``.

With ``--trace 0`` the run times ``import subspace_dfo`` in several fresh
processes (``setup_s``, the median), and repeats timed workload bodies for
about ``--seconds``.  A body is a list of parts (figure calls, driver runs);
the run reports the sum over the parts of each part's fastest sample (for
``verify``, one part, the fastest body): on a shared machine whose speed
drifts in phases of seconds to minutes, the fastest of several samples varies
far less from run to run than their median.  Every child runs with one BLAS
thread.

With ``--trace 1`` it runs one untraced body and, in a second fresh process,
one body with every public function of the package wrapped in spans
(tracer.py); it reports the per-layer metrics and the tracing overhead
(traced minus untraced wall time).

Human-readable lines come first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Every output, including span dumps and a result record with the environment,
goes under ``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from tracer import quantile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("verify", "figures", "optimize", "optimize-costly")
DRIVER_WORKLOADS = ("optimize", "optimize-costly")

# Timed imports for setup_s: half before the workload and half after it, so
# that they sample more than one phase of a shared machine's speed.
SETUP_IMPORTS = 16
# Every run must end within this many seconds.
DEADLINE_S = 170.0

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import subspace_dfo; "
    "print(time.perf_counter() - t); print(subspace_dfo.__file__)"
)


# One BLAS thread in every child.  With OpenBLAS's default of one thread per
# core, the optimizer's many small d x p products keep a second thread
# spinning on the other core, so the optimize body used two cores and its time
# followed the load of whatever else shared the machine.
BLAS_THREADS = "1"


def child_env() -> dict[str, str]:
    return {
        **os.environ,
        "PYTHONPATH": str(SRC),
        **{var: BLAS_THREADS for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def remaining(start: float) -> float:
    left = DEADLINE_S - (perf_counter() - start)
    if left <= 0:
        raise TimeoutError("benchmark deadline passed")
    return left


def time_imports(n: int, start: float) -> list[float]:
    """Seconds to import the package (numpy included), each in a fresh process."""
    times = []
    for _ in range(n):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            check=True, timeout=remaining(start),
        )
        seconds, module_file = out.stdout.split("\n")[:2]
        if SRC.resolve() not in Path(module_file).resolve().parents:
            raise RuntimeError(f"imported subspace_dfo from {module_file}, not from {SRC}")
        times.append(float(seconds))
    return times


def run_worker(workload: str, seed: int, seconds: float, traced: bool, start: float) -> dict:
    with tempfile.TemporaryDirectory(dir=WORK, prefix=f"{workload}-") as tmp:
        result_path = Path(tmp) / "result.json"
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--work-dir", tmp, "--result", str(result_path),
        ]
        if traced:
            cmd.append("--traced")
        subprocess.run(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
            check=True, timeout=remaining(start),
        )
        for spans in Path(tmp).glob("spans-*.csv"):
            shutil.move(str(spans), WORK / spans.name)
        return json.loads(result_path.read_text(encoding="ascii"))


def machine() -> dict:
    """Processor count and cache sizes of the machine the run measured."""
    caches = {}
    for level in ("LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            out = subprocess.run(["getconf", level], capture_output=True, text=True, timeout=10)
            caches[level.lower()] = int(out.stdout.strip())
        except (OSError, ValueError, subprocess.TimeoutExpired):
            caches[level.lower()] = None
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(), **caches}


def end_to_end(workload: str, setup_s: float, res: dict) -> tuple[dict, dict]:
    """End-to-end metrics for the result line, and further ones for people."""
    bodies = res["bodies"]
    full = [b for b in bodies if not b["partial"]]
    full_ok = [b for b in full if not b["failures"]]
    walls = [b["wall_s"] for b in full]
    fastest = min(full_ok or full, key=lambda b: b["wall_s"])
    wall, work = fastest["wall_s"], fastest["work"]
    if full_ok and len(fastest["part_ms"]) > 1:
        # The body is a fixed list of parts (figure calls, driver runs): the
        # fastest sample of every part, summed, needs only each part to meet
        # one fast moment of the machine, not a whole body.
        ok = [b["part_ms"] for b in bodies if not b["failures"]]
        fastest_ms = [min(ms[i] for ms in ok if len(ms) > i) for i in range(len(fastest["part_ms"]))]
        wall = sum(fastest_ms) / 1e3
    rate = work / wall
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "work_per_s": (rate, "1/s"),
    }
    extra = {
        "bodies": (len(full), "count"),
        "extra_parts": (sum(len(b["part_ms"]) for b in bodies if b["partial"]), "count"),
        "wall_median_s": (statistics.median(walls), "s"),
    }
    if workload == "figures":
        extra["cells_per_s"] = (rate, "1/s")
    if workload in DRIVER_WORKLOADS:
        extra["evals_per_s"] = (rate, "1/s")
        run_ms = [ms for b in bodies for ms in b["part_ms"]]
        extra["run_samples"] = (len(run_ms), "count")
        extra["run_p50_ms"] = (quantile(run_ms, 0.5), "ms")
        extra["run_p90_ms"] = (quantile(run_ms, 0.9), "ms")
    return metrics, extra


def print_table(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>16.6g} {unit}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    start = perf_counter()

    if not (SRC / "subspace_dfo" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)

    if args.trace:
        # Same warm-up as the untraced run: a processor just woken from idle runs
        # the first seconds of work slower, which would bias the overhead.
        time_imports(SETUP_IMPORTS // 2 + 1, start)
        plain = run_worker(args.workload, args.seed, 0, False, start)
        traced = run_worker(args.workload, args.seed, 0, True, start)
        runs = [plain, traced]
        metrics = {name: tuple(v) for name, v in traced["layers"].items()}
        untraced_wall = plain["bodies"][0]["wall_s"]
        metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
        metrics["trace.overhead_s"] = (metrics["trace.wall_s"][0] - untraced_wall, "s")
        extra = {}
        wall, self_sum = metrics["trace.wall_s"][0], metrics["trace.self_sum_s"][0]
        checks_here = 1
        failures_here = (
            [] if abs(self_sum - wall) <= 1e-6 * wall
            else [f"layer self times sum to {self_sum!r} s, traced wall is {wall!r} s"]
        )
    else:
        # The first import writes bytecode and is not counted.
        imports = time_imports(SETUP_IMPORTS // 2 + 1, start)[1:]
        res = run_worker(args.workload, args.seed, args.seconds, False, start)
        imports += time_imports(SETUP_IMPORTS // 2, start)
        setup_s = statistics.median(imports)
        runs = [res]
        metrics, extra = end_to_end(args.workload, setup_s, res)
        checks_here, failures_here = 0, []

    env = {**runs[-1]["env"], **machine()}
    failures = [f for r in runs for b in r["bodies"] for f in b["failures"]] + failures_here
    attempted = sum(b["attempted"] for r in runs for b in r["bodies"]) + checks_here
    extra["error_rate"] = (len(failures) / attempted, "ratio")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"work unit {runs[0]['work_unit']}")
    print_table("metrics:", metrics)
    print_table("also:", extra)
    for f in failures:
        print(f"FAILED: {f}")
    print("env: " + json.dumps(env, sort_keys=True))

    results_dir = WORK / "results"
    results_dir.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "metrics": {**metrics, **extra}, "failures": failures,
        "body_wall_s": [b["wall_s"] for r in runs for b in r["bodies"]],
        "env": env,
    }
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="ascii"
    )
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
