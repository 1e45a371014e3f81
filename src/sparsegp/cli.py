"""Command-line entry point.

Subcommands:
  fit    fit an exact, nystrom, or svgp model to a CSV dataset and print
         predictions at the training inputs
  verify run the full verification suite and emit a report
  bounds evaluate a single named bound on a synthetic instance
  synth  generate a synthetic dataset and write it as CSV

Exit code of `verify` is 0 iff every check passes.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import bounds as bnd
from .data import load_csv, synth_prior_dataset, write_csv
from .errors import SparseGpError
from .exact import fit_krr
from .harness import ExperimentConfig, emit_report, make_problem, run_verification
from .kernels import make_kernel
from .nystrom import fit_nystrom, nystrom_factor, select_inducing

BOUND_NAMES = ("burt", "excess_risk", "rkhs_distance", "derivative",
               "expected_kl", "expected_excess_risk")


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kernel", default="gaussian", choices=["gaussian", "polynomial"])
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--degree", type=int, default=2)
    p.add_argument("--offset", type=float, default=0.0)
    p.add_argument("--n", type=int, default=60)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--m", type=int, default=8)
    p.add_argument("--noise-var", type=float, default=0.1)
    p.add_argument("--ridge", type=float, default=None,
                   help="ridge lambda; unset links it to the noise, noise_var / n")
    p.add_argument("--select", default="greedy_trace",
                   choices=["greedy_trace", "uniform"])
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--mc-samples", type=int, default=2000)
    p.add_argument("--format", default="text", choices=["json", "text"])


def _config(args) -> ExperimentConfig:
    return ExperimentConfig(
        kernel_family=args.kernel, gamma=args.gamma, degree=args.degree,
        offset=args.offset, n=args.n, d=args.d, m=args.m,
        noise_var=args.noise_var, ridge=args.ridge, select=args.select,
        seed=args.seed, mc_samples=args.mc_samples)


def cmd_fit(args) -> int:
    data = load_csv(args.data)
    kernel = make_kernel(args.kernel, input_dim=data.d, gamma=args.gamma,
                         degree=args.degree, offset=args.offset)
    ridge = args.ridge if args.ridge is not None else args.noise_var / data.n
    if args.model == "exact":
        preds = fit_krr(kernel, data, ridge).predict_many(data.inputs)
    elif args.model == "nystrom":
        ind = select_inducing(kernel, data, args.m, strategy=args.select,
                              seed=args.seed)
        preds = fit_nystrom(kernel, data, ind, ridge).predict_many(data.inputs)
    else:  # svgp
        ind = select_inducing(kernel, data, args.m, strategy=args.select,
                              seed=args.seed)
        preds = nystrom_factor(kernel, data, ind, args.noise_var).fitted
    # One %-format and one write for the whole table; 17 significant
    # digits round-trip every float64.
    row = ",".join(["%.17g"] * (data.d + 1)) + "\n"
    table = np.column_stack((data.inputs, preds))
    sys.stdout.write((row * data.n) % tuple(table.ravel().tolist()))
    return 0


def cmd_verify(args) -> int:
    report = run_verification(_config(args))
    print(emit_report(report, args.format))
    return 0 if report.overall_pass else 1


def cmd_bounds(args) -> int:
    config = _config(args)
    prob, ridge_prob, rng = make_problem(config)
    if args.name == "burt":
        recs = bnd.burt_upper_bound(prob)
    elif args.name == "excess_risk":
        recs = bnd.excess_risk_upper_bound(ridge_prob)
    elif args.name == "rkhs_distance":
        recs = (bnd.rkhs_distance_bound(ridge_prob),)
    elif args.name == "derivative":
        x = rng.uniform(-3.0, 3.0, size=config.d)
        recs = (bnd.derivative_gap_bound(prob, x, 0),)
    elif args.name == "expected_kl":
        mc, half, lo, hi = bnd.expected_kl_sandwich(
            prob, n_samples=config.mc_samples, seed=config.seed)
        print(f"mc_estimate={mc:.10g} ci_halfwidth={half:.10g} "
              f"lower={lo:.10g} upper={hi:.10g}")
        return 0
    else:  # expected_excess_risk
        rec, stderr = bnd.expected_excess_risk_lower_bound(
            ridge_prob, n_samples=config.mc_samples, seed=config.seed)
        recs = (rec,)
        print(f"stderr={stderr:.10g}")
    ok = True
    for rec in recs:
        ok = ok and rec.holds
        print(f"{rec.name}: lhs={rec.lhs:.10g} rhs={rec.rhs:.10g} "
              f"slack={rec.slack:.10g} holds={rec.holds}")
    return 0 if ok else 1


def cmd_synth(args) -> int:
    kernel = make_kernel(args.kernel, input_dim=args.d, gamma=args.gamma,
                         degree=args.degree, offset=args.offset)
    rng = np.random.default_rng(args.seed)
    X = rng.uniform(-3.0, 3.0, size=(args.n, args.d))
    data = synth_prior_dataset(kernel, X, args.noise_var, seed=args.seed + 1)
    write_csv(args.out, data)
    print(f"wrote {data.n} rows to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sparsegp")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a model to a CSV dataset")
    p_fit.add_argument("model", choices=["exact", "nystrom", "svgp"])
    p_fit.add_argument("--data", required=True, help="CSV file with header x1..xd,y")
    _add_model_flags(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_verify = sub.add_parser("verify", help="run the full verification suite")
    _add_model_flags(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_bounds = sub.add_parser("bounds", help="evaluate a single bound")
    p_bounds.add_argument("name", choices=BOUND_NAMES)
    _add_model_flags(p_bounds)
    p_bounds.set_defaults(func=cmd_bounds)

    p_synth = sub.add_parser("synth", help="generate a synthetic CSV dataset")
    p_synth.add_argument("--out", required=True)
    _add_model_flags(p_synth)
    p_synth.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SparseGpError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
