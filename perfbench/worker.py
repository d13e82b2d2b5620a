"""One workload in one fresh process; started by ``run.py``.

Runs timed bodies of the workload until the next one would end after
``--seconds`` (always at least one), then, for workloads whose body has
several parts, the parts of one more body while each is expected to end by
``--seconds``.  With ``--traced`` it runs exactly one body inside the span
tracer.  Writes a JSON result to ``--result``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import platform
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench_work"


def import_package():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import subspace_dfo

    if SRC.resolve() not in Path(subspace_dfo.__file__).resolve().parents:
        raise SystemExit(f"imported subspace_dfo from {subspace_dfo.__file__}, not from {SRC}")
    return subspace_dfo


def blas_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs_dir.glob("*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(str(lib)), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


def environment(package, workload) -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "package_version": package.__version__,
        # Computed from shapes, not measured: the largest float64 arrays of the workload.
        "largest_arrays_bytes_computed": workload.largest_arrays(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args()

    package = import_package()
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, STATE, SRC / "subspace_dfo")
    tracer = None
    if args.traced:
        from tracer import Tracer

        tracer = Tracer()
    bodies = []
    start = perf_counter()

    def run(may_start=None) -> None:
        out_dir = args.work_dir / f"out-{args.workload}-{len(bodies)}"
        body_start = perf_counter()
        try:
            if tracer is not None:
                tracer.install()
                try:
                    body = workloads.run_body(workload, out_dir, call=tracer.run_root)
                finally:
                    tracer.uninstall()
            else:
                body = workloads.run_body(workload, out_dir, may_start=may_start)
            if body.part_ms:
                bodies.append(body.__dict__)
        except Exception:
            traceback.print_exc()
            failure = "exception: " + traceback.format_exc(limit=1).strip()
            attempted = bodies[-1]["attempted"] if bodies else 1
            body = workloads.BodyResult(perf_counter() - body_start, 0, attempted, [failure], [])
            bodies.append(body.__dict__)

    while True:
        run()
        elapsed = perf_counter() - start
        if tracer is not None or elapsed * (len(bodies) + 1) / len(bodies) > args.seconds:
            break
    last = bodies[-1]["part_ms"]
    if tracer is None and len(last) > 1:
        # The parts of one more body, while each is expected to end by
        # --seconds: further samples of the first parts for the fastest-part sum.
        run(lambda i: perf_counter() - start + last[i] / 1e3 <= args.seconds)

    result = {
        "bodies": bodies,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "work_unit": workload.work_unit,
        "env": environment(package, workload),
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        tracer.write_spans(args.work_dir / f"spans-{args.workload}.csv")
    args.result.write_text(json.dumps(result), encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
