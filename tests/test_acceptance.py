"""End-to-end acceptance checks for the exact/sparse equivalences and bounds.

Each test covers one advertised guarantee at its stated tolerance, over a
batch of randomized desk-scale instances (n in 40..100, d in {1, 2},
m in 1..12, unit-lengthscale Gaussian kernel, targets rescaled to norm
at most 10).  Every test emits a single PASS/FAIL line.
"""

import json
import sys
from dataclasses import dataclass

import numpy as np

from sparsegp.bounds import (SparseProblem, burt_upper_bound, derivative_gap_bounds,
                             excess_risk_upper_bound, expected_excess_risk_lower_bound,
                             expected_kl_sandwich, rkhs_distance_bound,
                             rkhs_distance_sq, worst_case_decompositions)
from sparsegp.data import Dataset, synth_prior_dataset
from sparsegp.exact import fit_krr
from sparsegp.harness import ExperimentConfig, emit_report, run_verification
from sparsegp.kernels import GaussianKernel
from sparsegp.nystrom import (fit_nystrom, make_inducing, nystrom_factor,
                              q_gram, select_inducing)
from sparsegp.svgp import (elbo, elbo_breakdown, make_state, optimal_parameters,
                           psi_forward, stationarity_residual)


@dataclass(frozen=True)
class Instance:
    kernel: GaussianKernel
    data: Dataset
    ind: object
    noise_var: float

    @property
    def ridge(self):
        return self.noise_var / self.data.n

    def problem(self, **mc):
        # ridge-side bounds read ridge = noise_var / n from the same problem
        return SparseProblem(self.kernel, self.data, self.ind, self.noise_var, **mc)


def make_instance(seed):
    rng = np.random.default_rng(seed)
    n = [40, 60, 100][seed % 3]
    d = 1 + (seed % 2)
    m = 1 + (seed % 12)
    noise_var = [0.1, 0.2, 0.3, 0.4, 0.5][seed % 5]
    kernel = GaussianKernel(lengthscale=1.0, input_dim=d)
    X = rng.uniform(-3, 3, size=(n, d))
    data = synth_prior_dataset(kernel, X, noise_var, seed=seed + 1)
    y = data.targets * min(1.0, 10.0 / np.linalg.norm(data.targets))
    data = Dataset(X, y)
    ind = select_inducing(kernel, data, m, strategy="greedy_trace", seed=seed)
    return Instance(kernel, data, ind, noise_var)


def emit(name, ok):
    print(f"{name}: {'PASS' if ok else 'FAIL'}", file=sys.__stdout__)
    assert ok, name


def grid(inst, count, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(-3, 3, size=(count, inst.data.d))


def test_sparse_posterior_mean_equals_sparse_ridge_fit():
    # optimized variational mean == direct sparse ridge fit at ridge = s2/n
    worst = 0.0
    for seed in range(20):
        inst = make_instance(seed)
        mean = nystrom_factor(inst.kernel, inst.data, inst.ind,
                              inst.noise_var).mean
        model = fit_nystrom(inst.kernel, inst.data, inst.ind, inst.ridge)
        points = grid(inst, 200, 1000 + seed)
        worst = max(worst, float(np.max(np.abs(mean.predict_many(points)
                                               - model.predict_many(points)))))
    emit("sparse_mean_equivalence", worst <= 1e-8)


def test_elbo_decomposition_identity(dense_elbo):
    # -2 s2 * elbo splits exactly into fit, Sigma-quadratic, KL, trace and
    # normalization terms for arbitrary variational states: their sum is
    # -2 s2 times the dense raw-coordinate ELBO
    ok = True
    for seed in range(50):
        inst = make_instance(seed % 10)
        rng = np.random.default_rng(2000 + seed)
        m = inst.ind.m
        mu = rng.standard_normal(m)
        A = rng.standard_normal((m, m))
        state = make_state(inst.ind, mu, A @ A.T + 0.1 * np.eye(m))
        fac = nystrom_factor(inst.kernel, inst.data, inst.ind, inst.noise_var)
        br = elbo_breakdown(fac, state)
        ref = -2 * inst.noise_var * dense_elbo(state, inst.data, inst.noise_var)
        ok = ok and abs(br.term_sum() - ref) <= 1e-8 * max(1.0, abs(ref))
    emit("elbo_decomposition", ok)


def test_variational_mean_maps_to_ridge_coefficients():
    # k_ZZ^{-1} mu* equals the sparse ridge coefficient vector
    worst = 0.0
    for seed in range(20):
        inst = make_instance(seed)
        star = optimal_parameters(nystrom_factor(inst.kernel, inst.data, inst.ind,
                                                 inst.noise_var))
        beta = fit_nystrom(inst.kernel, inst.data, inst.ind, inst.ridge).coef
        worst = max(worst, float(np.max(np.abs(
            psi_forward(inst.ind, star.mu) - beta))))
    emit("mu_to_coefficients", worst <= 1e-8)


def test_closed_form_parameters_maximize_elbo():
    # random perturbations never beat the closed form, and the mu gradient
    # vanishes there (central differences, h = 1e-5)
    ok = True
    for seed in range(5):
        inst = make_instance(seed)
        fac = nystrom_factor(inst.kernel, inst.data, inst.ind, inst.noise_var)
        star = optimal_parameters(fac)
        best = elbo(fac, star)
        m = inst.ind.m
        rng = np.random.default_rng(3000 + seed)
        for _ in range(100):
            mu = star.mu + 0.1 * rng.standard_normal(m)
            A = 0.05 * rng.standard_normal((m, m))
            state = make_state(inst.ind, mu, star.sigma + A @ A.T)
            ok = ok and elbo(fac, state) <= best + 1e-10
        h = 1e-5
        grad = np.zeros(m)
        for i in range(m):
            e = np.zeros(m)
            e[i] = h
            up = elbo(fac, make_state(inst.ind, star.mu + e, star.sigma))
            dn = elbo(fac, make_state(inst.ind, star.mu - e, star.sigma))
            grad[i] = (up - dn) / (2 * h)
        ok = ok and np.linalg.norm(grad) <= 1e-5
    emit("elbo_optimality", ok)


def test_kl_two_evaluation_paths_agree():
    # evidence-minus-ELBO and the explicit expansion agree to 1e-8 relative
    # (checked internally, raising on disagreement), and the KL vanishes
    # when the inducing points cover the data
    ok = True
    for seed in range(20):
        inst = make_instance(seed)
        kl = inst.problem().kl
        ok = ok and kl >= -1e-10
    inst = make_instance(0)
    full = make_inducing(inst.kernel, inst.data.inputs)
    kl0 = SparseProblem(inst.kernel, inst.data, full, inst.noise_var).kl
    ok = ok and abs(kl0) <= 1e-8
    emit("kl_two_path", ok)


def test_kl_upper_bounds_hold():
    # both the loose and the intermediate 2*KL bounds hold on every instance
    violations = 0
    for seed in range(50):
        inst = make_instance(seed)
        loose, tight = burt_upper_bound(inst.problem())
        if not (loose.holds and tight.holds and tight.rhs <= loose.rhs + 1e-12):
            violations += 1
    emit("kl_upper_bounds", violations == 0)


def test_excess_risk_identity_and_bound():
    # n * (risk gap) = s2 * (quadratic-form gap) at s2 = n * ridge, and the
    # trace-gap upper bound holds on every instance
    ok = True
    for seed in range(50):
        inst = make_instance(seed)
        n, y = inst.data.n, inst.data.targets
        Ck = inst.kernel.gram(inst.data.inputs) + inst.noise_var * np.eye(n)
        Cq = q_gram(inst.ind, inst.data.inputs) + inst.noise_var * np.eye(n)
        quad = y @ np.linalg.solve(Cq, y) - y @ np.linalg.solve(Ck, y)
        lhs = n * inst.problem().excess_risk
        rhs = inst.noise_var * quad
        ok = ok and abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))
        ok = ok and excess_risk_upper_bound(inst.problem()).holds
    emit("excess_risk", ok)


def test_rkhs_distance_bound_and_pointwise_consequence():
    # the squared RKHS distance bound holds, and it dominates the squared
    # pointwise gap through |f(x)|^2 <= ||f||^2 k(x, x)
    ok = True
    for seed in range(50):
        inst = make_instance(seed)
        rec = rkhs_distance_bound(inst.problem())
        ok = ok and rec.holds
        if seed < 10:
            dist_sq = rkhs_distance_sq(inst.problem())
            exact = fit_krr(inst.kernel, inst.data, inst.ridge)
            sparse = fit_nystrom(inst.kernel, inst.data, inst.ind, inst.ridge)
            points = grid(inst, 100, 4000 + seed)
            gap_sq = (exact.predict_many(points) - sparse.predict_many(points)) ** 2
            bound = dist_sq * inst.kernel.diag(points)
            ok = ok and bool(np.all(gap_sq <= bound + 1e-8 * np.maximum(1.0, bound)))
    emit("rkhs_distance", ok)


def test_posterior_mean_derivative_gap_bound():
    # squared derivative gaps stay under the trace-gap bound, allowing
    # finite-difference slack of 1e-4
    ok = True
    rng = np.random.default_rng(5000)
    for trial in range(20):
        inst = make_instance(trial % 10)
        x = rng.uniform(-3, 3, size=inst.data.d)
        j = int(rng.integers(inst.data.d))
        [lhs], [rhs] = derivative_gap_bounds(inst.problem(), x[None], [j])
        ok = ok and lhs <= rhs + 1e-4 * max(1.0, abs(rhs))
    emit("derivative_gap", ok)


def test_worst_case_variance_decomposition():
    # k*(x,x) + s2 splits into the interpolation residual and the ridge
    # part, to 1e-8 at off-sample points
    residuals = []
    for seed in range(10):
        inst = make_instance(seed)
        total, split = worst_case_decompositions(inst.problem(), grid(inst, 100, 6000 + seed))
        residuals.append(np.abs(total - split))
    # a probe on a training input has a NaN residual, which fails
    emit("worst_case_decomposition", bool(np.max(np.concatenate(residuals)) <= 1e-8))


def test_expected_kl_sandwich():
    # the analytic [t/(2 s2), t/s2] sandwich intersects the Monte-Carlo
    # confidence interval (3 stderr) on every instance
    ok = True
    for seed in range(10):
        inst = make_instance(seed)
        mc, stderr, low, high = expected_kl_sandwich(
            inst.problem(mc_samples=2000, mc_seed=seed))
        stderr3 = 3 * stderr
        ok = ok and (low <= mc + stderr3) and (mc - stderr3 <= high)
    emit("expected_kl_sandwich", ok)


def test_expected_excess_risk_lower_bound():
    # the log-det-ratio lower bound stays under the Monte-Carlo mean
    # within 3 stderr on every instance
    ok = True
    for seed in range(10):
        inst = make_instance(seed)
        rec, stderr = expected_excess_risk_lower_bound(
            inst.problem(mc_samples=2000, mc_seed=seed))
        ok = ok and rec.lhs <= rec.rhs + 3 * stderr
    emit("expected_excess_risk", ok)


def test_fixed_point_solver_matches_closed_form():
    # the whitened closed-form optimum solves the ELBO's stationarity
    # equations, checked with matrix products only
    ok = True
    for seed in range(20):
        inst = make_instance(seed)
        fac = nystrom_factor(inst.kernel, inst.data, inst.ind, inst.noise_var)
        ok = ok and stationarity_residual(fac, optimal_parameters(fac)) <= 1e-6
    emit("fixed_point_solver", ok)


def test_subspace_norms_agree_between_kernels():
    # for f in the inducing span, the norm computed in the approximate
    # kernel's space equals the norm computed in the original space
    ok = True
    for seed in range(5):
        inst = make_instance(seed)
        rng = np.random.default_rng(7000 + seed)
        Kzz = inst.kernel.gram(inst.ind.points)
        for _ in range(50):
            D = rng.uniform(-3, 3, size=(5, inst.data.d))
            alpha = rng.standard_normal(5)
            # route 1: expansion over D under the approximate kernel q
            norm_q = float(alpha @ q_gram(inst.ind, D) @ alpha)
            # route 2: project onto the inducing span and use k there
            c = np.linalg.solve(Kzz, inst.kernel.gram(inst.ind.points, D) @ alpha)
            norm_k = float(c @ Kzz @ c)
            scale = max(1.0, abs(norm_k))
            ok = ok and abs(norm_q - norm_k) <= 1e-8 * scale
    emit("subspace_norm_equality", ok)


def test_verification_report_is_deterministic():
    # two independent runs of the full verification suite produce
    # byte-identical JSON reports
    config = ExperimentConfig(n=40, m=6, mc_samples=1000)
    a = emit_report(run_verification(config), "json")
    b = emit_report(run_verification(config), "json")
    ok = a == b and json.loads(a)["overall_pass"] is True
    emit("report_determinism", ok)
