"""Command-line front end.

Subcommands:

* ``formula``  print exact, per-evaluation, and asymptotic decrease values
* ``mc``       run the Monte Carlo estimator for one cell
* ``figure``   emit a named reproduction grid as CSV (plus a JSON manifest)
* ``optimize`` run the optimizer on a named test function, writing its trace
* ``verify``   run the full gate suite; exit code 0 iff every gate passes

The default output directory comes from ``SUBSPACE_DFO_OUTDIR`` when set;
flags override it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .errors import NonFiniteObjectiveError
from .experiments import (
    DEFAULT_NSIMS,
    DEFAULT_SEED,
    FIGURE_MC_DRAWS,
    FIGURE_NAMES,
    METHOD_ASYMPTOTIC,
    METHOD_EXACT,
    METHOD_MC,
    METRIC_EVALUATION,
    METRIC_ITERATION,
    OBJECTIVE_NAMES,
    ResultRow,
    _metric_divisor,
    default_figure_spec,
    run_named_figure,
    run_optimizer_experiment,
    run_parallel_sweep,
    run_verify,
    to_csv,
    write_manifest,
)
from .formulas import VARIANTS, Variant
from .montecarlo import REDUCTIONS, estimate
from .optimizer import ITERATION_KINDS, DriverConfig, TraceRecord
from .rng import RngStream

ENV_OUTDIR = "SUBSPACE_DFO_OUTDIR"


def _default_outdir() -> Path:
    return Path(os.environ.get(ENV_OUTDIR, "."))


def _text_line(r: ResultRow) -> str:
    if r.std_error is None:
        return f"{r.metric:>16}  {r.value:.12g}  [{r.method}]\n"
    return (f"{r.metric}  mean = {r.value:.12g}  std_error = {r.std_error:.3g}  "
            f"(n = {r.n_sims}, seed = {r.seed})\n")


def _write(payload: str, out: str | None) -> None:
    """Write ``payload`` to the file ``out``, or to stdout."""
    if out:
        Path(out).write_text(payload, encoding="ascii", newline="\n")
    else:
        sys.stdout.write(payload)


def _emit_rows(rows: list[ResultRow], fmt: str, out: str | None) -> None:
    """Write ``rows`` as text, csv or json to the file ``out``, or to stdout."""
    if fmt == "json":
        payload = json.dumps([asdict(r) for r in rows], indent=2) + "\n"
    elif fmt == "csv":
        payload = to_csv(ResultRow, rows)
    else:
        payload = "".join(map(_text_line, rows))
    _write(payload, out)


def _cmd_formula(args: argparse.Namespace) -> int:
    variant, p, d = args.variant, args.p, args.d
    record = Variant.named(variant)
    rows = [
        ResultRow(variant, d, p, METHOD_EXACT, METRIC_ITERATION, record.exact(p, d)),
        ResultRow(variant, d, p, METHOD_EXACT, METRIC_EVALUATION, record.per_work(p, d, 1)),
        ResultRow(variant, d, p, METHOD_ASYMPTOTIC, METRIC_ITERATION, record.asymptotic(p, d)),
    ]
    if args.cores_model is not None:
        c = args.cores_model
        rows.append(
            ResultRow(variant, d, p, METHOD_EXACT, f"per-work({c})", record.per_work(p, d, c))
        )
    _emit_rows(rows, args.format, args.out)
    return 0


def _cmd_mc(args: argparse.Namespace) -> int:
    est = estimate(args.variant, args.p, args.d, args.nsims, RngStream(args.seed), args.mode)
    metric = METRIC_EVALUATION if args.per_evaluation else METRIC_ITERATION
    scale = _metric_divisor(Variant.named(args.variant), metric, args.p)
    row = ResultRow(
        args.variant, args.d, args.p, METHOD_MC, metric, est.mean / scale, est.std_error / scale,
        args.nsims, args.seed,
    )
    _emit_rows([row], args.format, args.out)
    return 0


def _parse_cores(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers such as 2,4,8, got {text!r}") from None


def _cmd_figure(args: argparse.Namespace) -> int:
    name = args.name
    if name == "parallel-sweep":
        if args.config:
            raise ValueError(f"--config {args.config} does not apply to parallel-sweep, "
                             "which is exact and has no spec")
        variant = args.variant or VARIANTS[0]
        record = Variant.named(variant)
        d = args.d if args.d is not None else record.sweep_d
        cores = args.cores_model or record.sweep_cores
        ignored = [flag for flag in ("nsims", "seed") if getattr(args, flag) is not None]
        if ignored:
            flags = " and ".join(f"--{flag}" for flag in ignored)
            print(f"note: parallel-sweep is exact, so {flags} change nothing", file=sys.stderr)
        rows, ties = run_parallel_sweep(variant, d, cores)
        manifest = {
            "spec": {"name": name, "variant": variant, "d": d, "cores": list(cores)},
            "argmax": {str(c): tied[0] for c, tied in ties.items()},
            "ties": {str(c): list(tied) for c, tied in ties.items()},
        }
    else:
        if args.cores_model is not None:
            raise ValueError("--cores-model sets the core counts of parallel-sweep only; "
                             f"figure {name} has none")
        spec = default_figure_spec(name)
        if args.variant not in (None, spec.variant):
            raise ValueError(
                f"--variant {args.variant} disagrees with figure {name}, "
                f"whose variant is {spec.variant}"
            )
        config = {}
        if args.config:
            try:
                config = json.loads(Path(args.config).read_text())
            except (OSError, ValueError) as exc:
                raise ValueError(f"cannot read --config {args.config}: {exc}") from None
        # Config keys override the named figure's spec, and flags override both.
        spec = spec.merged(
            config,
            n_sims=args.nsims,
            seed=args.seed,
            d_values=(args.d,) if args.d is not None else None,
        )
        rows = run_named_figure(spec)
        manifest = {"spec": asdict(spec), "mc_draws": FIGURE_MC_DRAWS}
    out_dir = Path(args.out) if args.out else _default_outdir()
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{name}.csv"
    _emit_rows(rows, "csv", str(csv_path))
    write_manifest(out_dir / f"{name}.manifest.json", manifest)
    print(f"wrote {csv_path}")
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    config = DriverConfig(
        p=args.p,
        max_evaluations=args.budget,
        initial_step=args.delta0,
        iteration_kind=args.iteration,
    )
    trace, objective = run_optimizer_experiment(args.function, args.d, config, args.seed)
    _write(to_csv(TraceRecord, trace.records), args.out)
    if args.out:
        print(f"wrote {args.out}")
    final = trace.final
    print(
        f"# final best = {final.best_value:.12g} after {final.eval_count} evaluations "
        f"({objective.name})",
        file=sys.stderr,
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    out_dir = Path(args.out) if args.out else None
    results, exit_code = run_verify(seed=args.seed, n_sims=args.nsims, out_dir=out_dir)
    for r in results:
        tag = "PASS" if r.passed else "FAIL"
        print(f"[{tag}] criterion {r.criterion} ({r.name}): {r.detail}")
    print("verify:", "all gates passed" if exit_code == 0 else "GATE FAILURE")
    return exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subspace-dfo",
        description="Random-subspace derivative-free optimization and its decrease analysis",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--variant", choices=VARIANTS, required=True)
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--p", type=int, required=True)
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--format", choices=("text", "csv", "json"), default="text")

    p_formula = sub.add_parser("formula", help="print exact/asymptotic decrease values")
    add_common(p_formula)
    p_formula.add_argument("--cores-model", type=int, default=None,
                           help="also print the per-work value for this core count")
    p_formula.set_defaults(fn=_cmd_formula)

    p_mc = sub.add_parser("mc", help="run the Monte Carlo estimator")
    add_common(p_mc)
    p_mc.add_argument("--nsims", type=int, default=DEFAULT_NSIMS)
    p_mc.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_mc.add_argument("--mode", choices=REDUCTIONS, default="reduced")
    p_mc.add_argument("--per-evaluation", action="store_true")
    p_mc.set_defaults(fn=_cmd_mc)

    p_fig = sub.add_parser("figure", help="emit a named reproduction grid as CSV")
    p_fig.add_argument("name", choices=FIGURE_NAMES)
    p_fig.add_argument("--variant", choices=VARIANTS, default=None)
    p_fig.add_argument("--d", type=int, default=None)
    p_fig.add_argument("--nsims", type=int, default=None)
    p_fig.add_argument("--seed", type=int, default=None)
    p_fig.add_argument("--out", type=str, default=None)
    p_fig.add_argument("--config", type=str, default=None,
                       help="JSON file of ExperimentSpec fields that override the named "
                            "figure's (flags override both)")
    p_fig.add_argument("--cores-model", type=_parse_cores, default=None,
                       help="comma-separated core counts for parallel-sweep")
    p_fig.set_defaults(fn=_cmd_figure)

    p_opt = sub.add_parser("optimize", help="run the optimizer on a named test function")
    p_opt.add_argument("--function", choices=OBJECTIVE_NAMES, required=True)
    p_opt.add_argument("--d", type=int, required=True)
    p_opt.add_argument("--p", type=int, required=True)
    p_opt.add_argument("--iteration", choices=ITERATION_KINDS, default="ds-complete")
    p_opt.add_argument("--budget", type=int, required=True,
                       help="hard cap on evaluations: an iteration starts only if its "
                            "largest cost (2p polling, p+1 model step) fits in what is "
                            "left; the initial point is always evaluated")
    p_opt.add_argument("--delta0", type=float, default=1.0)
    p_opt.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_opt.add_argument("--out", type=str, default=None)
    p_opt.set_defaults(fn=_cmd_optimize)

    p_verify = sub.add_parser("verify", help="run the full gate suite")
    p_verify.add_argument("--nsims", type=int, default=DEFAULT_NSIMS)
    p_verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_verify.add_argument("--out", type=str, default=None)
    p_verify.set_defaults(fn=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, NonFiniteObjectiveError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
