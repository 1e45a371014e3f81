"""Experiment configuration and the end-to-end verification suite.

`make_problem` builds the seeded synthetic instance of a configuration;
`run_verification` exercises every identity and bound in the library on it
and assembles a VerificationReport. Wall-clock
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
from .errors import SparseGpError
from .kernels import Kernel, make_kernel
from .nystrom import fit_nystrom_via_q, select_inducing
from .svgp import elbo_breakdown, elbos, fixed_point_solver, make_state, psi_forward

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
    tolerance: float = 1e-8

    def kernel(self) -> Kernel:
        return make_kernel(self.kernel_family, input_dim=self.d, gamma=self.gamma,
                           degree=self.degree, offset=self.offset)

    def ridge_value(self) -> float:
        return self.noise_var / self.n if self.ridge is None else self.ridge

    def to_dict(self) -> dict:
        return {
            "kernel_family": self.kernel_family,
            "gamma": self.gamma,
            "degree": self.degree,
            "offset": self.offset,
            "n": self.n,
            "d": self.d,
            "m": self.m,
            "noise_var": self.noise_var,
            "ridge": self.ridge_value() if self.n >= 1 else self.ridge,
            "link_noise_ridge": self.ridge is None,
            "select": self.select,
            "seed": self.seed,
            "mc_samples": self.mc_samples,
            "tolerance": self.tolerance,
        }


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


def _record(report: VerificationReport, name: str, fn) -> None:
    start = time.perf_counter()
    try:
        result = fn()
    except SparseGpError as exc:
        report.checks.append(CheckResult(
            name=name, status="error",
            detail=f"{type(exc).__name__}: {exc}",
            wall_clock=time.perf_counter() - start))
        return
    elapsed = time.perf_counter() - start
    if isinstance(result, bnd.BoundRecord):
        report.checks.append(CheckResult(
            name=name, status="pass" if result.holds else "fail",
            detail=f"slack={result.slack:.6g}", lhs=result.lhs, rhs=result.rhs,
            wall_clock=elapsed))
    else:
        ok, detail = result
        report.checks.append(CheckResult(
            name=name, status="pass" if ok else "fail", detail=detail,
            wall_clock=elapsed))


def _probe_count(evaluated: int, total: int) -> str:
    return f"over {evaluated} probes, {total - evaluated} skipped"


def make_problem(config: ExperimentConfig) -> tuple[bnd.SparseProblem, bnd.SparseProblem,
                                                    np.random.Generator]:
    """The seeded instance of `config` that `run_verification` and
    `sparsegp bounds` evaluate: (problem at noise_var, problem at the
    config's ridge, generator).

    X ~ U[-3, 3]^(n x d) is drawn from the generator seeded with
    config.seed, the targets are a prior draw rescaled to norm at most 10,
    and the inducing set is selected from X. Probe points are drawn from the
    returned generator afterwards."""
    kernel = config.kernel()
    rng = np.random.default_rng(config.seed)
    X = rng.uniform(-3.0, 3.0, size=(config.n, config.d))
    data = synth_prior_dataset(kernel, X, config.noise_var, seed=config.seed + 1)
    scale = float(np.linalg.norm(data.targets))
    if scale > 10.0:
        data = Dataset(data.inputs, data.targets * (10.0 / scale),
                       provenance=data.provenance)
    ind = select_inducing(kernel, data, config.m, strategy=config.select,
                          seed=config.seed)
    prob = bnd.SparseProblem(kernel, data, ind, config.noise_var)
    return prob, prob.at_ridge(config.ridge_value()), rng


def run_verification(config: ExperimentConfig) -> VerificationReport:
    """Run the full identity-and-bound suite on one synthetic instance.

    The checks share one SparseProblem, so its matrices are built once per
    run; a second problem is built only when the ridge is not linked to the
    noise. A build that fails is reported as an error by each check that
    needs it."""
    report = VerificationReport(config=config.to_dict())
    tol = config.tolerance
    try:
        bnd.require_mc_samples(config.mc_samples)
        prob, ridge_prob, rng = make_problem(config)
    except (SparseGpError, ValueError) as exc:
        report.checks.append(CheckResult(
            name="setup", status="error", detail=f"{type(exc).__name__}: {exc}"))
        return report

    kernel, data, ind, s2 = prob.kernel, prob.data, prob.ind, prob.noise_var
    grid = rng.uniform(-3.0, 3.0, size=(50, config.d))

    def check_equivalence():
        gap = float(np.max(np.abs(prob.nystrom.mean.predict_many(grid)
                                  - prob.ridge_fit.predict_many(grid))))
        return gap <= tol, f"max |m*(x) - nystrom(x)| = {gap:.3g}"

    def check_nystrom_routes():
        a = ridge_prob.ridge_fit
        b = fit_nystrom_via_q(kernel, data, ind, ridge_prob.ridge)
        gap = float(np.max(np.abs(a.predict_many(grid) - b.predict_many(grid))))
        return gap <= tol, f"max route disagreement = {gap:.3g}"

    def check_elbo_decomposition():
        state = prob.optimal_state
        bd = elbo_breakdown(state, data, s2)
        resid = abs(bd.term_sum() - bd.total_check)
        ok = resid <= tol * max(1.0, abs(bd.total_check))
        return ok, f"decomposition residual = {resid:.3g}"

    def check_psi_coefficients():
        gap = float(np.max(np.abs(psi_forward(ind, prob.optimal_state.mu)
                                  - prob.ridge_fit.coef)))
        return gap <= tol, f"max |k_ZZ^-1 mu* - beta| = {gap:.3g}"

    def check_optimality():
        state = prob.optimal_state
        probe_rng = np.random.default_rng(config.seed + 2)
        states = [state]
        for _ in range(20):
            delta = probe_rng.standard_normal(ind.m) * 0.1
            A = probe_rng.standard_normal((ind.m, ind.m)) * 0.05
            sigma = state.sigma + A @ A.T + 1e-6 * np.eye(ind.m)
            states.append(make_state(ind, state.mu + delta, sigma))
        values = elbos(states, data, s2)
        worst_gain = float(np.max(values[1:] - values[0]))
        return worst_gain <= tol, f"best probe gain = {worst_gain:.3g}"

    def check_kl_two_path():
        kl = prob.kl
        return kl >= -1e-10, f"KL = {kl:.6g}"

    def check_fixed_point():
        state = fixed_point_solver(kernel, data, ind, s2)
        target = prob.optimal_state
        gap = max(float(np.max(np.abs(state.mu - target.mu))),
                  float(np.max(np.abs(state.sigma - target.sigma))))
        return gap <= 1e-6, f"max-abs gap to closed form = {gap:.3g}"

    def check_excess_risk_identity():
        # n * excess = s2 * (quad_q - quad_k) with s2 = n * ridge
        direct = ridge_prob.noise_var * ridge_prob.quadratic_form_gap
        resid = abs(data.n * ridge_prob.excess_risk - direct)
        return resid <= tol * max(1.0, abs(direct)), f"identity residual = {resid:.3g}"

    def check_worst_case():
        probe_rng = np.random.default_rng(config.seed + 3)
        X = probe_rng.uniform(-3.5, 3.5, size=(100, config.d))
        # Probes that collide with a training input are skipped; if all of
        # them are, nothing was checked and the check fails.
        resid = bnd.worst_case_residuals(prob, X)[~bnd.training_collisions(prob, X)]
        worst = float(np.max(resid, initial=0.0))
        return (resid.size > 0 and worst <= tol,
                f"max decomposition residual = {worst:.3g} {_probe_count(resid.size, len(X))}")

    def check_expected_kl():
        mc, half, lo, hi = bnd.expected_kl_sandwich(
            prob, n_samples=config.mc_samples, seed=config.seed + 4)
        stderr3 = 3.0 * half / 1.96
        ok = (lo <= hi and mc + stderr3 >= lo - 1e-10
              and mc - stderr3 <= hi + 1e-10)
        return ok, f"mc={mc:.6g} band=[{lo:.6g},{hi:.6g}] 3se={stderr3:.3g}"

    def check_expected_excess():
        rec, stderr = bnd.expected_excess_risk_lower_bound(
            ridge_prob, n_samples=config.mc_samples, seed=config.seed + 5)
        ok = rec.lhs <= rec.rhs + 3.0 * stderr + 1e-10
        return ok, f"lhs={rec.lhs:.6g} mc={rec.rhs:.6g} 3se={3 * stderr:.3g}"

    def run_derivative():
        probe_rng = np.random.default_rng(config.seed + 6)
        X = np.empty((20, config.d))
        js = np.empty(20, dtype=int)
        for i in range(20):
            X[i] = probe_rng.uniform(-3.0, 3.0, size=config.d)
            js[i] = probe_rng.integers(config.d)
        lhs, rhs = bnd.derivative_gap_bounds(prob, X, js)
        # A negative certified bound fails, as an inverted KL band does; it
        # is the probe reported. Otherwise the first largest excess is; a NaN
        # excess is picked and fails.
        negative = int(np.sum(rhs < 0))
        i = int(np.argmin(rhs)) if negative else int(np.argmax(lhs - rhs))
        ok = not negative and bool(lhs[i] <= rhs[i] + 1e-4 * max(1.0, rhs[i]))
        note = f", rhs < 0 at {negative} probes" if negative else ""
        return ok, (f"worst lhs={lhs[i]:.3g} rhs={rhs[i]:.3g} "
                    f"{_probe_count(len(X), len(X))}{note}")

    _record(report, "svgp_nystrom_equivalence", check_equivalence)
    _record(report, "nystrom_two_routes", check_nystrom_routes)
    _record(report, "elbo_decomposition", check_elbo_decomposition)
    _record(report, "psi_maps_mu_star_to_beta", check_psi_coefficients)
    _record(report, "elbo_optimality_probes", check_optimality)
    _record(report, "kl_two_path", check_kl_two_path)
    _record(report, "fixed_point_solver", check_fixed_point)
    _record(report, "burt_bound", lambda: bnd.burt_upper_bound(prob)[0])
    _record(report, "burt_bound_intermediate", lambda: bnd.burt_upper_bound(prob)[1])
    _record(report, "quadratic_form_gap", lambda: bnd.quadratic_form_gap_bound(prob))
    _record(report, "excess_risk_identity", check_excess_risk_identity)
    _record(report, "excess_risk_bound",
            lambda: bnd.excess_risk_upper_bound(ridge_prob)[0])
    _record(report, "rkhs_distance_bound", lambda: bnd.rkhs_distance_bound(ridge_prob))
    if config.kernel_family == "gaussian":
        _record(report, "derivative_bound", run_derivative)
    else:
        report.checks.append(CheckResult(
            name="derivative_bound", status="skipped",
            detail="non-gaussian kernel"))
    _record(report, "worst_case_decomposition", check_worst_case)
    _record(report, "expected_kl_sandwich", check_expected_kl)
    _record(report, "expected_excess_risk_lower_bound", check_expected_excess)
    return report


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
    raise ValueError(f"unknown format {fmt!r}")
