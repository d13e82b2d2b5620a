#!/usr/bin/env python3
"""Reproduce every named experiment grid as CSV.

Writes one CSV plus one JSON manifest per figure into the output directory
(default ./figures, or SUBSPACE_DFO_OUTDIR when set).  Re-running with the
same seed reproduces the CSV bytes exactly.  ``--only`` runs the named
figures, each once, in the order of ``FIGURE_NAMES``.
"""

import argparse
import os
import sys
import time

from subspace_dfo.cli import ENV_OUTDIR
from subspace_dfo.cli import main as cli_main
from subspace_dfo.experiments import DEFAULT_NSIMS, DEFAULT_SEED, FIGURE_NAMES
from subspace_dfo.formulas import VARIANTS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=os.environ.get(ENV_OUTDIR, "figures"))
    parser.add_argument("--nsims", type=int, default=DEFAULT_NSIMS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--only", nargs="+", choices=FIGURE_NAMES, default=FIGURE_NAMES,
        help="subset of figures to run, each once in the default order (default: all)",
    )
    args = parser.parse_args()

    # FIGURE_NAMES order runs each variant's vary-d grid first: it makes the
    # variant's one figure draw, which the variant's other named grids read.
    names = [name for name in FIGURE_NAMES if name in args.only]
    start = time.perf_counter()
    for name in names:
        if name == "parallel-sweep":
            # Emit both sweep variants at their reference dimensions.  The
            # sweep is exact, so it takes no replicate count or seed.
            for variant in VARIANTS:
                sub_out = os.path.join(args.out, f"parallel-sweep-{variant}")
                code = cli_main(["figure", name, "--out", sub_out, "--variant", variant])
                if code != 0:
                    return code
        else:
            code = cli_main(
                ["figure", name, "--nsims", str(args.nsims), "--seed", str(args.seed),
                 "--out", args.out]
            )
            if code != 0:
                return code
    print(f"done in {time.perf_counter() - start:.1f}s -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
