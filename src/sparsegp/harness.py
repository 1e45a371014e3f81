"""Experiment configuration and the end-to-end verification suite.

`make_problem` builds the seeded synthetic instance of a configuration.
CHECKS is the one table of the suite's checks, (name, run) in report
order; `verify_problem` runs all of them, or a named subset, on any
instance handed to it, and is the one place a check is called and
recorded. `run_verification` is `make_problem` then `verify_problem`,
assembled into a VerificationReport. `sparsegp verify` prints the whole
report, `sparsegp bounds NAME` the report of NAME's checks. Wall-clock
times are recorded per check but kept out of the JSON serialization so
identical configs produce byte-identical reports.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from . import bounds as bnd
from .data import Dataset, synth_prior_dataset
from .errors import InvalidParameter, SparseGpError, UnsupportedKernel
from .kernels import Kernel, make_kernel
from .linalg import noise_factor
from .nystrom import select_inducing
from .svgp import SvgpState, elbo_breakdown, elbos, psi_forward, stationarity_residual

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ExperimentConfig:
    kernel_family: str = "gaussian"
    gamma: float = 1.0
    degree: int = 2
    offset: float = 0.0
    n: int = 60
    d: int = 1
    m: int = 8
    noise_var: float = 0.1
    ridge: float | None = None  # None links the ridge to the noise: noise_var / n
    select: str = "greedy_trace"
    seed: int = 7
    mc_samples: int = 2000

    def kernel(self) -> Kernel:
        return make_kernel(self.kernel_family, input_dim=self.d, gamma=self.gamma,
                           degree=self.degree, offset=self.offset)

    def ridge_value(self) -> float:
        return self.noise_var / self.n if self.ridge is None else self.ridge

    def to_dict(self) -> dict:
        """The fields, with the ridge in use in place of a linked None,
        then whether it is linked and the certified tolerance."""
        return {**vars(self), "ridge": self.ridge_value() if self.n >= 1 else self.ridge,
                "link_noise_ridge": self.ridge is None, "tolerance": bnd.TOLERANCE}


@dataclass
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "error" | "skipped"
    detail: str = ""
    lhs: float | None = None
    rhs: float | None = None
    wall_clock: float = 0.0

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict:
        out = {"name": self.name, "status": self.status, "detail": self.detail}
        if self.lhs is not None:
            out["lhs"] = self.lhs
        if self.rhs is not None:
            out["rhs"] = self.rhs
        return out


@dataclass
class VerificationReport:
    config: dict
    checks: list = field(default_factory=list)

    @property
    def overall_pass(self) -> bool:
        return bool(self.checks) and all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "config": self.config,
            "checks": [c.to_dict() for c in self.checks],
            "overall_pass": self.overall_pass,
        }


def _record(name: str, run, *args) -> CheckResult:
    """Run one check and turn its result into a CheckResult: a BoundRecord
    passes when it holds; an (ok, detail) pair passes when ok is true, and
    an ok of "skipped" skips; a library error is reported as an error."""
    start = time.perf_counter()
    try:
        result = run(*args)
    except SparseGpError as exc:
        return CheckResult(name, "error", f"{type(exc).__name__}: {exc}",
                           wall_clock=time.perf_counter() - start)
    elapsed = time.perf_counter() - start
    if isinstance(result, bnd.BoundRecord):
        return CheckResult(name, "pass" if result.holds else "fail",
                           f"slack={result.slack:.6g}", result.lhs, result.rhs, elapsed)
    ok, detail = result
    status = ok if isinstance(ok, str) else "pass" if ok else "fail"
    return CheckResult(name, status, detail, wall_clock=elapsed)


def make_problem(config: ExperimentConfig) -> tuple[bnd.SparseProblem, bnd.SparseProblem,
                                                    np.ndarray]:
    """The seeded instance of `config` that `run_verification` evaluates:
    (problem at noise_var, problem at the config's ridge, 50-point grid).

    X ~ U[-3, 3]^(n x d) is drawn from a generator seeded with config.seed,
    the targets are a prior draw rescaled to norm at most 10, the inducing
    set is selected from X, and the grid is the generator's next draw from
    U[-3, 3]^(50 x d). The prior draw is taken through the factor of
    k_XX + noise_var I, which the problem at noise_var keeps with k_XX, so
    both are built once. Both problems draw their Monte-Carlo sample of
    config.mc_samples targets with seed config.seed + 4."""
    kernel = config.kernel()
    rng = np.random.default_rng(config.seed)
    X = rng.uniform(-3.0, 3.0, size=(config.n, config.d))
    kxx = kernel.gram(X)
    k_factor = noise_factor(kxx, config.noise_var)
    data = synth_prior_dataset(kernel, X, config.noise_var, seed=config.seed + 1,
                               factor=k_factor)
    scale = float(np.linalg.norm(data.targets))
    if scale > 10.0:
        data = Dataset(data.inputs, data.targets * (10.0 / scale))
    ind = select_inducing(kernel, data, config.m, strategy=config.select,
                          seed=config.seed)
    prob = bnd.SparseProblem(kernel, data, ind, config.noise_var,
                             mc_samples=config.mc_samples, mc_seed=config.seed + 4,
                             prior_kxx=kxx, prior_k_factor=k_factor)
    grid = rng.uniform(-3.0, 3.0, size=(50, config.d))
    return prob, prob.at_ridge(config.ridge_value()), grid


# The checks. Each reads (problem at noise_var, problem at the ridge, grid,
# seed) and returns a BoundRecord or an (ok, detail) pair. Only the probe
# checks read the seed; everything else comes from the problems.

def _equivalence(prob, ridge_prob, grid, seed):
    gap = float(np.max(np.abs(prob.nystrom.mean.predict_many(grid)
                              - prob.ridge_fit.predict_many(grid))))
    return gap <= bnd.TOLERANCE, f"max |m*(x) - nystrom(x)| = {gap:.3g}"


def _nystrom_routes(prob, ridge_prob, grid, seed):
    a, b = ridge_prob.ridge_fit, ridge_prob.ridge_fit_via_q
    gap = float(np.max(np.abs(a.predict_many(grid) - b.predict_many(grid))))
    return gap <= bnd.TOLERANCE, f"max route disagreement = {gap:.3g}"


def _elbo_decomposition(prob, ridge_prob, grid, seed):
    # The four-term expansion of -2 s2 ELBO at the optimum against the
    # factor's determinant-lemma form of the same number, both on the
    # factor's V: a wrong V is left to the equivalence and KL checks.
    total = elbo_breakdown(prob.nystrom, prob.optimal_state).term_sum()
    closed = -2.0 * prob.noise_var * prob.nystrom.elbo
    resid = abs(total - closed)
    ok = resid <= bnd.TOLERANCE * max(1.0, abs(closed))
    return ok, f"decomposition residual = {resid:.3g}"


def _psi_coefficients(prob, ridge_prob, grid, seed):
    gap = float(np.max(np.abs(psi_forward(prob.ind, prob.optimal_state.mu)
                              - prob.ridge_fit.coef)))
    return gap <= bnd.TOLERANCE, f"max |k_ZZ^-1 mu* - beta| = {gap:.3g}"


def _optimality(prob, ridge_prob, grid, seed):
    # Probes perturb (u*, R*) itself; R* and each probe's R are upper triangular.
    state, m = prob.optimal_state, prob.ind.m
    probe_rng = np.random.default_rng(seed + 2)
    states = [state]
    for _ in range(20):
        delta = probe_rng.standard_normal(m) * 0.1
        A = probe_rng.standard_normal((m, m)) * 0.05
        states.append(SvgpState(prob.ind, state.u + delta, state.R + np.triu(A)))
    values = elbos(prob.nystrom, states)
    worst_gain = float(np.max(values[1:] - values[0]))
    return worst_gain <= bnd.TOLERANCE, f"best probe gain = {worst_gain:.3g}"


def _kl_two_path(prob, ridge_prob, grid, seed):
    return prob.kl >= -1e-10, f"KL = {prob.kl:.6g}"


def _fixed_point(prob, ridge_prob, grid, seed):
    resid = stationarity_residual(prob.nystrom, prob.optimal_state)
    return resid <= 1e-6, f"max stationarity residual = {resid:.3g}"


def _excess_risk_identity(prob, ridge_prob, grid, seed):
    # n * excess = s2 * (quad_q - quad_k) with s2 = n * ridge
    direct = ridge_prob.noise_var * ridge_prob.quadratic_form_gap
    resid = abs(prob.n * ridge_prob.excess_risk - direct)
    return resid <= bnd.TOLERANCE * max(1.0, abs(direct)), f"identity residual = {resid:.3g}"


def _derivative(prob, ridge_prob, grid, seed):
    d = prob.data.d
    probe_rng = np.random.default_rng(seed + 6)
    X = np.empty((20, d))
    js = np.empty(20, dtype=int)
    for i in range(20):
        X[i] = probe_rng.uniform(-3.0, 3.0, size=d)
        js[i] = probe_rng.integers(d)
    try:
        lhs, rhs = bnd.derivative_gap_bounds(prob, X, js)
    except UnsupportedKernel:  # the kernel has no mixed second derivative
        return "skipped", "non-gaussian kernel"
    # A negative certified bound fails, as an inverted KL band does; it is
    # the probe reported. Otherwise the first largest excess is; a NaN
    # excess is picked and fails.
    negative = int(np.sum(rhs < 0))
    i = int(np.argmin(rhs)) if negative else int(np.argmax(lhs - rhs))
    ok = not negative and bool(lhs[i] <= rhs[i] + 1e-4 * max(1.0, rhs[i]))
    note = f", rhs < 0 at {negative} probes" if negative else ""
    return ok, f"worst lhs={lhs[i]:.3g} rhs={rhs[i]:.3g} over 20 probes, 0 skipped{note}"


def _worst_case(prob, ridge_prob, grid, seed):
    probe_rng = np.random.default_rng(seed + 3)
    X = probe_rng.uniform(-3.5, 3.5, size=(100, prob.data.d))
    # Probes that collide with a training input are skipped; if all of them
    # are, nothing was checked and the check fails.
    total, split = bnd.worst_case_decompositions(prob, X)
    resid = np.abs(total - split)[~bnd.training_collisions(prob, X)]
    worst = float(np.max(resid, initial=0.0))
    detail = (f"max decomposition residual = {worst:.3g} "
              f"over {resid.size} probes, {len(X) - resid.size} skipped")
    return resid.size > 0 and worst <= bnd.TOLERANCE, detail


def _expected_kl(prob, ridge_prob, grid, seed):
    mc, stderr, lo, hi = bnd.expected_kl_sandwich(prob)
    stderr3 = 3.0 * stderr
    ok = lo <= hi and mc + stderr3 >= lo - 1e-10 and mc - stderr3 <= hi + 1e-10
    return ok, f"mc={mc:.6g} band=[{lo:.6g},{hi:.6g}] 3se={stderr3:.3g}"


def _expected_excess(prob, ridge_prob, grid, seed):
    rec, stderr = bnd.expected_excess_risk_lower_bound(ridge_prob)
    ok = rec.lhs <= rec.rhs + 3.0 * stderr + 1e-10
    return ok, f"lhs={rec.lhs:.6g} mc={rec.rhs:.6g} 3se={3 * stderr:.3g}"


# (name, run) of every check, in report order.
CHECKS = (
    ("svgp_nystrom_equivalence", _equivalence),
    ("nystrom_two_routes", _nystrom_routes),
    ("elbo_decomposition", _elbo_decomposition),
    ("psi_maps_mu_star_to_beta", _psi_coefficients),
    ("elbo_optimality_probes", _optimality),
    ("kl_two_path", _kl_two_path),
    ("fixed_point_solver", _fixed_point),
    ("burt_bound", lambda p, r, *_: bnd.burt_upper_bound(p)[0]),
    ("burt_bound_intermediate", lambda p, r, *_: bnd.burt_upper_bound(p)[1]),
    ("quadratic_form_gap", lambda p, r, *_: bnd.quadratic_form_gap_bound(p)),
    ("excess_risk_identity", _excess_risk_identity),
    ("excess_risk_bound", lambda p, r, *_: bnd.excess_risk_upper_bound(r)),
    ("rkhs_distance_bound", lambda p, r, *_: bnd.rkhs_distance_bound(r)),
    ("derivative_bound", _derivative),
    ("worst_case_decomposition", _worst_case),
    ("expected_kl_sandwich", _expected_kl),
    ("expected_excess_risk_lower_bound", _expected_excess),
)


def verify_problem(prob, ridge_prob, grid, seed: int, names=None) -> list[CheckResult]:
    """Run the checks of CHECKS named in `names` (all of them when None), in
    report order, on the problem at noise_var, the problem at the ridge
    (`prob` itself when the ridge is linked) and the grid; the probe checks
    draw their probes from seed + 2, + 3 and + 6.

    The checks share the two problems, so their matrices and Monte-Carlo
    samples are built once, and only those the checks read. A check that
    raises a library error is reported as that check's error."""
    return [_record(name, run, prob, ridge_prob, grid, seed) for name, run in CHECKS
            if names is None or name in names]


def run_verification(config: ExperimentConfig, names=None) -> VerificationReport:
    """`verify_problem` on the instance `make_problem` builds from
    `config`, with config.seed, as a report. A second problem is built only
    when the ridge is not linked to the noise. A set-up that fails is
    reported as one "setup" error."""
    try:
        instance = make_problem(config)
    except (SparseGpError, ValueError) as exc:
        checks = [CheckResult("setup", "error", f"{type(exc).__name__}: {exc}")]
    else:
        checks = verify_problem(*instance, config.seed, names)
    return VerificationReport(config.to_dict(), checks)


def emit_report(report: VerificationReport, fmt: str = "json") -> str:
    """Serialize a report; JSON is deterministic, text is a human table."""
    if fmt == "json":
        return json.dumps(report.to_dict(), indent=2)
    if fmt == "text":
        lines = [f"{'check':40s} {'status':8s} detail"]
        for c in report.checks:
            status = c.status.upper() if c.status in ("pass", "fail") else c.status
            lines.append(f"{c.name:40s} {status:8s} {c.detail}  [{c.wall_clock:.3f}s]")
        lines.append(f"overall: {'PASS' if report.overall_pass else 'FAIL'}")
        return "\n".join(lines)
    raise InvalidParameter(f"unknown report format {fmt!r}; expected 'json' or 'text'")
