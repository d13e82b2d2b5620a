#!/usr/bin/env python3
"""Run the random-subspace optimizer on the named test functions.

Compares the three iteration kinds at a few subspace dimensions and prints
final values and evaluation counts, as a quick feel for how subspace
dimension trades per-iteration progress against per-evaluation cost.
"""

import argparse
import sys

from subspace_dfo import DriverConfig, run_optimizer_experiment
from subspace_dfo.experiments import OBJECTIVE_NAMES
from subspace_dfo.optimizer import ITERATION_KINDS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--function", choices=OBJECTIVE_NAMES, default="sphere-quadratic")
    parser.add_argument("--d", type=int, default=20)
    parser.add_argument("--budget", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--expand", type=float, default=2.0)
    args = parser.parse_args()

    print(f"{args.function}, d={args.d}, budget={args.budget}, seed={args.seed}")
    print(f"{'kind':>18} {'p':>4} {'final best':>14} {'evals':>6} {'iters':>6}")
    for kind in ITERATION_KINDS:
        for p in (1, 2, args.d // 2):
            config = DriverConfig(
                p=p,
                max_evaluations=args.budget,
                iteration_kind=kind,
                expand_factor=args.expand,
            )
            trace, _ = run_optimizer_experiment(args.function, args.d, config, args.seed)
            final = trace.final
            print(
                f"{kind:>18} {p:>4} {final.best_value:>14.6g} "
                f"{final.eval_count:>6} {final.iteration:>6}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
