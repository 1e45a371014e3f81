"""Command-line entry point.

Subcommands, each taking only the flags it reads:
  fit    fit an exact, nystrom, or svgp model to a CSV dataset and print
         predictions at the training inputs
  verify run the full verification suite and emit a report
  bounds run the verification checks of one named bound (BOUNDS) and emit
         their report
  synth  generate a synthetic dataset and write it as CSV

ExperimentConfig is the one list of experiment parameters: each flag of
FLAGS but --format sets the config field named by its dest and defaults to
that field's default, and every subcommand builds its config, kernel and
ridge from the parsed fields. A new parameter is one ExperimentConfig
field plus one FLAGS entry. `fit` takes n and d from its CSV.

`verify` exits 0 iff every check passes, else 1. `bounds` exits 0 iff its
checks pass, 1 if one fails, and 2 if the set-up or one of its checks
errors or is skipped. A library or file error in `fit` or `synth`, and a
flag a subcommand does not take, exit 2.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace

import numpy as np

from .data import load_csv, synth_prior_dataset, write_csv
from .errors import SparseGpError
from .exact import fit_krr
from .harness import ExperimentConfig, emit_report, run_verification
from .linalg import _check_positive
from .nystrom import fit_nystrom, nystrom_factor, select_inducing

# The checks of `run_verification` each `sparsegp bounds NAME` reports.
BOUNDS = {
    "burt": ("burt_bound", "burt_bound_intermediate"),
    "quadratic_form": ("quadratic_form_gap",),
    "excess_risk": ("excess_risk_bound",),
    "rkhs_distance": ("rkhs_distance_bound",),
    "derivative": ("derivative_bound",),
    "expected_kl": ("expected_kl_sandwich",),
    "expected_excess_risk": ("expected_excess_risk_lower_bound",),
}


def _at_least(low: int, text: str, what: str) -> int:
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"{what} must be >= {low}, got {value}")
    return value


def dimension(text: str) -> int:
    """The value of --d: an input dimension, at least 1."""
    return _at_least(1, text, "input dimension d")


def size(text: str) -> int:
    """The value of --n: a number of data points, at least 1."""
    return _at_least(1, text, "number of points n")


def seed(text: str) -> int:
    """The value of --seed: a random seed, at least 0."""
    return _at_least(0, text, "seed")


def lengthscale(text: str) -> float:
    """The value of --gamma: a Gaussian length-scale, finite and greater than 0."""
    value = float(text)
    if not 0 < value < np.inf:
        raise argparse.ArgumentTypeError(
            f"length-scale gamma must be finite and > 0, got {value:g}")
    return value


# Every flag; each subcommand adds the ones it reads. Each flag but --format
# sets the ExperimentConfig field of its dest, and takes that field's
# default (build_parser).
FLAGS = {
    "--kernel": dict(dest="kernel_family", choices=["gaussian", "polynomial"]),
    "--gamma": dict(type=lengthscale),
    "--degree": dict(type=int),
    "--offset": dict(type=float),
    "--n": dict(type=size),
    "--d": dict(type=dimension),
    "--m": dict(type=int),
    "--noise-var": dict(type=float),
    "--ridge": dict(type=float, help="ridge lambda; unset links it to the noise, noise_var / n"),
    "--select": dict(choices=["greedy_trace", "uniform"]),
    "--seed": dict(type=seed),
    "--mc-samples": dict(type=int),
    "--format": dict(default="text", choices=["json", "text"]),
}
MODEL_FLAGS = ("--kernel", "--gamma", "--degree", "--offset", "--noise-var", "--seed")


def _add_flags(p: argparse.ArgumentParser, names) -> None:
    for name in names:
        p.add_argument(name, **FLAGS[name])


def _config(args) -> ExperimentConfig:
    return ExperimentConfig(**{f.name: getattr(args, f.name) for f in fields(ExperimentConfig)})


def cmd_fit(args) -> int:
    data = load_csv(args.data)
    config = replace(_config(args), n=data.n, d=data.d)
    if config.ridge is None:  # a linked ridge, noise_var / n: name the flag set
        _check_positive(config.noise_var, "noise_var")
    kernel = config.kernel()
    if args.model == "exact":
        preds = fit_krr(kernel, data, config.ridge_value()).predict_many(data.inputs)
    else:
        ind = select_inducing(kernel, data, config.m, strategy=config.select, seed=config.seed)
        if args.model == "nystrom":
            preds = fit_nystrom(kernel, data, ind, config.ridge_value()).predict_many(data.inputs)
        else:  # svgp
            preds = nystrom_factor(kernel, data, ind, config.noise_var).fitted
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
    report = run_verification(_config(args), BOUNDS[args.name])
    print(emit_report(report, args.format))
    broken = [c for c in report.checks if c.status in ("error", "skipped")]
    for c in broken:
        print(f"error: {c.detail}", file=sys.stderr)
    return 2 if broken else 0 if report.overall_pass else 1


def cmd_synth(args) -> int:
    config = _config(args)
    rng = np.random.default_rng(config.seed)
    X = rng.uniform(-3.0, 3.0, size=(config.n, config.d))
    data = synth_prior_dataset(config.kernel(), X, config.noise_var, seed=config.seed + 1)
    write_csv(args.out, data)
    print(f"wrote {data.n} rows to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False: a flag a subcommand does not take is an error, not
    # the prefix of one it does (--n of --noise-var)
    parser = argparse.ArgumentParser(prog="sparsegp", allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a model to a CSV dataset", allow_abbrev=False)
    p_fit.add_argument("model", choices=["exact", "nystrom", "svgp"])
    p_fit.add_argument("--data", required=True, help="CSV file with header x1..xd,y")
    _add_flags(p_fit, MODEL_FLAGS + ("--m", "--ridge", "--select"))
    p_fit.set_defaults(func=cmd_fit)

    p_verify = sub.add_parser("verify", help="run the full verification suite",
                              allow_abbrev=False)
    _add_flags(p_verify, FLAGS)
    p_verify.set_defaults(func=cmd_verify)

    p_bounds = sub.add_parser("bounds", help="run the checks of one bound",
                              allow_abbrev=False)
    p_bounds.add_argument("name", choices=BOUNDS)
    _add_flags(p_bounds, FLAGS)
    p_bounds.set_defaults(func=cmd_bounds)

    p_synth = sub.add_parser("synth", help="generate a synthetic CSV dataset",
                             allow_abbrev=False)
    p_synth.add_argument("--out", required=True)
    _add_flags(p_synth, MODEL_FLAGS + ("--n", "--d"))
    p_synth.set_defaults(func=cmd_synth)
    defaults = vars(ExperimentConfig())  # not dataclasses.asdict: it deep-copies
    for p in sub.choices.values():
        p.set_defaults(parser=p, **defaults)
    return parser


def main(argv=None) -> int:
    args, unknown = build_parser().parse_known_args(argv)
    if unknown:
        # argparse hands a subcommand's unknown flags back to the top-level
        # parser; reject them with the usage line of the subcommand
        args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        return args.func(args)
    except (SparseGpError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
