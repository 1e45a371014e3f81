"""Approximation-quality diagnostics and certified error bounds.

Each bound is returned as a BoundRecord pairing the measured quantity with
its certified upper (or lower) bound; `holds` uses a relative slack
tolerance of 1e-8.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import InternalInconsistency, PointCollision, UnsupportedKernel
from .exact import fit_gpr, fit_krr, log_marginal_likelihood
from .kernels import GaussianKernel, Kernel, as_points
from .linalg import factor_spd, logdet, operator_norm, solve
from .nystrom import (InducingSet, approx_kernel_q, dtc_posterior, fit_nystrom,
                      q_gram, trace_gap)
from .svgp import optimal_elbo, optimal_posterior

HOLDS_RTOL = 1e-8


@dataclass(frozen=True)
class GapDiagnostics:
    trace_gap: float
    opnorm_gap: float
    logdet_k: float
    logdet_q: float


@dataclass(frozen=True)
class BoundRecord:
    name: str
    lhs: float
    rhs: float

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    @property
    def holds(self) -> bool:
        return self.slack >= -HOLDS_RTOL * max(1.0, abs(self.rhs))


def _exact_and_q(kernel: Kernel, X, ind: InducingSet, noise_var: float):
    """k_XX, q_XX and the Cholesky factors of k_XX + s2 I and q_XX + s2 I:
    the explicit n x n side that the O(n m^2) closed forms are checked
    against."""
    X = as_points(X, kernel.input_dim)
    Kxx = kernel.gram(X)
    Qxx = q_gram(ind, X)
    shift = noise_var * np.eye(X.shape[0])
    return (Kxx, Qxx, factor_spd(Kxx + shift, jitter_ladder=[0.0]),
            factor_spd(Qxx + shift, jitter_ladder=[0.0]))


def _quadratic_form_gap(Fk, Fq, y) -> float:
    """y^T (q+s2 I)^{-1} y - y^T (k+s2 I)^{-1} y."""
    return float(y @ solve(Fq, y) - y @ solve(Fk, y))


def _mc_quadratic_forms(Fk, Fq, n_samples: int, seed: int):
    """y^T (k+s2 I)^{-1} y and y^T (q+s2 I)^{-1} y for n_samples seeded draws
    y ~ N(0, k_XX + s2 I), with the factors computed once."""
    rng = np.random.default_rng(seed)
    draws = Fk.lower @ rng.standard_normal((Fk.matrix_dim, n_samples))
    quad_k = np.sum(draws * solve(Fk, draws), axis=0)
    quad_q = np.sum(draws * solve(Fq, draws), axis=0)
    return quad_k, quad_q


def gap_diagnostics(kernel: Kernel, data: Dataset, ind: InducingSet,
                    noise_var: float) -> GapDiagnostics:
    Kxx, Qxx, Fk, Fq = _exact_and_q(kernel, data.inputs, ind, noise_var)
    gap = Kxx - Qxx
    return GapDiagnostics(
        trace_gap=float(np.trace(gap)),
        opnorm_gap=operator_norm(gap),
        logdet_k=logdet(Fk),
        logdet_q=logdet(Fq),
    )


def kl_to_exact_posterior(kernel: Kernel, data: Dataset, ind: InducingSet,
                          noise_var: float) -> float:
    """KL(optimized variational GP || exact posterior).

    Computed as evidence minus optimal ELBO, then cross-checked against
    the explicit log-det / quadratic-form / trace expansion; the two paths
    must agree to 1e-8 relative.
    """
    evidence = log_marginal_likelihood(kernel, data, noise_var)
    kl = evidence - optimal_elbo(kernel, data, ind, noise_var)

    Kxx, Qxx, Fk, Fq = _exact_and_q(kernel, data.inputs, ind, noise_var)
    explicit = 0.5 * (
        -logdet(Fk) + logdet(Fq)
        + _quadratic_form_gap(Fk, Fq, data.targets)
        + np.trace(Kxx - Qxx) / noise_var
    )
    if abs(kl - explicit) > 1e-8 * max(1.0, abs(kl)):
        raise InternalInconsistency(
            f"KL paths disagree: evidence-ELBO {kl!r} vs explicit {explicit!r}"
        )
    return float(kl)


def burt_upper_bound(kernel: Kernel, data: Dataset, ind: InducingSet,
                     noise_var: float) -> tuple[BoundRecord, BoundRecord]:
    """Bounds on 2*KL: the loose (t/s2)(||y||^2/s2 + 1) and the tighter
    intermediate with ||y||^2/(t + s2)."""
    kl2 = 2.0 * kl_to_exact_posterior(kernel, data, ind, noise_var)
    t = trace_gap(ind, data.inputs)
    y_sq = float(data.targets @ data.targets)
    loose = (t / noise_var) * (y_sq / noise_var + 1.0)
    tight = (t / noise_var) * (y_sq / (t + noise_var) + 1.0)
    return (
        BoundRecord("kl_upper_bound", kl2, loose),
        BoundRecord("kl_upper_bound_intermediate", kl2, tight),
    )


def quadratic_form_gap_bound(kernel: Kernel, data: Dataset, ind: InducingSet,
                             noise_var: float) -> BoundRecord:
    """y^T (q+s2 I)^{-1} y - y^T (k+s2 I)^{-1} y vs the opnorm-gap bound."""
    y = data.targets
    Kxx, Qxx, Fk, Fq = _exact_and_q(kernel, data.inputs, ind, noise_var)
    lhs = _quadratic_form_gap(Fk, Fq, y)
    op = operator_norm(Kxx - Qxx)
    y_sq = float(y @ y)
    rhs = y_sq * op / (noise_var * (op + noise_var))
    return BoundRecord("quadratic_form_gap", lhs, rhs)


def excess_risk(kernel: Kernel, data: Dataset, ind: InducingSet, ridge: float) -> float:
    """R_n(nystrom; y) - R_n(exact KRR; y), from model coefficients."""
    exact = fit_krr(kernel, data, ridge)
    sparse = fit_nystrom(kernel, data, ind, ridge)
    y = data.targets
    r_exact = float(np.mean((y - exact.predict_many(data.inputs)) ** 2)
                    + ridge * exact.rkhs_norm_sq())
    r_sparse = float(np.mean((y - sparse.predict_many(data.inputs)) ** 2)
                     + ridge * sparse.rkhs_norm_sq())
    return r_sparse - r_exact


def excess_risk_upper_bound(kernel: Kernel, data: Dataset, ind: InducingSet,
                            ridge: float) -> tuple[BoundRecord, BoundRecord]:
    """Trace and opnorm variants of the excess-risk upper bound."""
    lhs = excess_risk(kernel, data, ind, ridge)
    n = data.n
    y_sq = float(data.targets @ data.targets)
    t = trace_gap(ind, data.inputs)
    op = operator_norm(kernel.gram(data.inputs) - q_gram(ind, data.inputs))
    rhs_trace = y_sq * t / (n**2 * ridge * (t + n * ridge))
    rhs_op = y_sq * op / (n**2 * ridge * (op + n * ridge))
    return (
        BoundRecord("excess_risk_trace", lhs, rhs_trace),
        BoundRecord("excess_risk_opnorm", lhs, rhs_op),
    )


def rkhs_distance_sq(kernel: Kernel, data: Dataset, ind: InducingSet, ridge: float) -> float:
    """||f_exact - f_nystrom||^2 in the RKHS, by Gram quadratic forms."""
    exact = fit_krr(kernel, data, ridge)
    sparse = fit_nystrom(kernel, data, ind, ridge)
    alpha = exact.coefficients
    beta = sparse.beta
    Kxx = kernel.gram(data.inputs)
    Kxz = kernel.gram(data.inputs, ind.points)
    Kzz = kernel.gram(ind.points)
    return float(alpha @ Kxx @ alpha - 2.0 * alpha @ Kxz @ beta + beta @ Kzz @ beta)


def rkhs_distance_bound(kernel: Kernel, data: Dataset, ind: InducingSet,
                        ridge: float) -> BoundRecord:
    """||f_exact - f_nystrom||^2 <= 2 tr(k_XX - q_XX) ||y||^2 / (n ridge)^2."""
    lhs = rkhs_distance_sq(kernel, data, ind, ridge)
    n = data.n
    y_sq = float(data.targets @ data.targets)
    rhs = 2.0 * trace_gap(ind, data.inputs) * y_sq / (n * ridge) ** 2
    return BoundRecord("rkhs_distance", lhs, rhs)


def derivative_gap_bound(kernel: Kernel, data: Dataset, ind: InducingSet,
                         noise_var: float, x, j: int, fd_step: float = 1e-5) -> BoundRecord:
    """Squared gap of the j-th partial derivatives of the sparse and exact
    posterior means, against 2 t ||y||^2 d_j d'_j k(x,x) / s2^2.

    The derivatives are central finite differences with step `fd_step`, so
    the record is compared at a looser 1e-4 tolerance by callers.
    """
    if not isinstance(kernel, GaussianKernel):
        raise UnsupportedKernel("derivative bound requires the Gaussian kernel")
    x = as_points(x, kernel.input_dim)[0]
    exact = fit_gpr(kernel, data, noise_var)
    sparse_mean, _ = optimal_posterior(kernel, data, ind, noise_var)

    def partial(fn):
        hi, lo = x.copy(), x.copy()
        hi[j] += fd_step
        lo[j] -= fd_step
        return (fn(hi)[0] - fn(lo)[0]) / (2.0 * fd_step)

    lhs = (partial(sparse_mean) - partial(exact.mean_many)) ** 2
    y_sq = float(data.targets @ data.targets)
    dd = kernel.mixed_second_derivative(j, x)
    rhs = 2.0 * trace_gap(ind, data.inputs) * y_sq * dd / noise_var**2
    return BoundRecord("derivative_gap", float(lhs), float(rhs))


def worst_case_decomposition(kernel: Kernel, data: Dataset, ind: InducingSet,
                             noise_var: float, x) -> BoundRecord:
    """Split k*(x,x) + s2 into the squared worst-case interpolation error
    k(x,x) - q(x,x) and the squared worst-case sparse-ridge error
    dtc_cov(x,x) + s2; the record compares the two evaluation paths."""
    x = as_points(x, kernel.input_dim)
    if np.any(np.all(np.isclose(data.inputs, x[0], atol=1e-12), axis=1)):
        raise PointCollision("test point collides with a training input")
    _, k_star = optimal_posterior(kernel, data, ind, noise_var)
    _, dtc_cov = dtc_posterior(kernel, data, ind, noise_var)
    total = k_star(x, x) + noise_var
    interp = kernel.gram(x, x)[0, 0] - approx_kernel_q(ind, x, x)
    ridge_part = dtc_cov(x, x) + noise_var
    return BoundRecord("worst_case_decomposition", total, interp + ridge_part)


def worst_case_residual(kernel: Kernel, data: Dataset, ind: InducingSet,
                        noise_var: float, x) -> float:
    rec = worst_case_decomposition(kernel, data, ind, noise_var, x)
    return abs(rec.lhs - rec.rhs)


def expected_kl_sandwich(kernel: Kernel, X, ind: InducingSet, noise_var: float,
                         n_samples: int = 2000, seed: int = 0):
    """Monte-Carlo estimate of E_y[KL] under y ~ N(0, k_XX + s2 I),
    returned with its 1.96-stderr halfwidth and the a-priori sandwich
    [t/(2 s2), t/s2].

    A trace gap below -1e-10 * tr(k_XX) is not round-off: the band would be
    inverted, so InternalInconsistency is raised instead."""
    if n_samples < 100:
        raise ValueError("n_samples must be at least 100")
    Kxx, Qxx, Fk, Fq = _exact_and_q(kernel, X, ind, noise_var)
    t = float(np.trace(Kxx - Qxx))
    if t < -1e-10 * float(np.sum(np.diag(Kxx))):
        raise InternalInconsistency(
            f"negative trace gap t = {t!r} inverts the KL band; reduce m or "
            "check the inducing set for near-duplicate points")
    # Per-draw KL from the explicit expansion.
    quad_k, quad_q = _mc_quadratic_forms(Fk, Fq, n_samples, seed)
    kls = 0.5 * (logdet(Fq) - logdet(Fk) - quad_k + quad_q + t / noise_var)
    mc = float(np.mean(kls))
    stderr = float(np.std(kls, ddof=1) / np.sqrt(n_samples))
    return mc, 1.96 * stderr, t / (2.0 * noise_var), t / noise_var


def expected_excess_risk_lower_bound(kernel: Kernel, X, ind: InducingSet, ridge: float,
                                     n_samples: int = 2000, seed: int = 0
                                     ) -> tuple[BoundRecord, float]:
    """(1/n) log det ratio vs the Monte-Carlo mean excess risk under the
    prior model with s2 = n*ridge. The caller should allow 3 stderr of
    slack on top of the record's rhs."""
    if n_samples < 100:
        raise ValueError("n_samples must be at least 100")
    n = as_points(X, kernel.input_dim).shape[0]
    _, _, Fk, Fq = _exact_and_q(kernel, X, ind, n * ridge)
    lhs = (logdet(Fk) - logdet(Fq)) / n
    # n * excess risk = y^T (q+s2 I)^{-1} y - y^T (k+s2 I)^{-1} y
    quad_k, quad_q = _mc_quadratic_forms(Fk, Fq, n_samples, seed)
    excess = (quad_q - quad_k) / n
    mc = float(np.mean(excess))
    rec = BoundRecord("expected_excess_risk_lower", float(lhs), mc)
    return rec, float(np.std(excess, ddof=1) / np.sqrt(n_samples))
