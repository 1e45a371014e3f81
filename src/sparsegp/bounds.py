"""Approximation-quality diagnostics and certified error bounds.

Every bound reads one SparseProblem, which builds each matrix of a
(kernel, data, Z, s2) instance once. Each bound is returned as a
BoundRecord pairing the measured quantity with its certified upper (or
lower) bound; `holds` uses a relative slack tolerance of 1e-8. Ridge-side
bounds use lambda = s2 / n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data import Dataset
from .errors import DimensionMismatch, InternalInconsistency, InvalidCount, UnsupportedKernel
from .exact import GpPosterior
from .kernels import GaussianKernel, Kernel, as_points
from .linalg import factor_spd, logdet, operator_norm, solve
from .nystrom import (InducingSet, NystromFactor, NystromModel, fit_nystrom,
                      nystrom_factor, q_diag, q_gram)
from .svgp import SvgpState, elbo_from_factor, state_from_factor

HOLDS_RTOL = 1e-8
MIN_MC_SAMPLES = 100


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


@dataclass(frozen=True, eq=False)
class SparseProblem:
    """One (kernel, data, Z, s2) instance and the matrices its bounds read.

    Each member is built on first use and then kept, so a verify run forms
    k_XX, q_XX and the factors of k_XX + s2 I and q_XX + s2 I once. A build
    that raises is not kept: every reader gets the same typed error.
    """

    kernel: Kernel
    data: Dataset
    ind: InducingSet
    noise_var: float

    def __post_init__(self):
        if self.noise_var <= 0:
            raise ValueError("noise_var must be positive")

    @property
    def n(self) -> int:
        return self.data.n

    @property
    def ridge(self) -> float:
        """The ridge lambda = s2 / n linked to this problem's noise."""
        return self.noise_var / self.n

    def at_ridge(self, ridge: float) -> SparseProblem:
        """The problem whose ridge is `ridge`: self when it already is, else
        a new problem at s2 = n * ridge."""
        if ridge == self.ridge:
            return self
        return SparseProblem(self.kernel, self.data, self.ind, self.n * ridge)

    @cached_property
    def kxx(self) -> np.ndarray:
        return self.kernel.gram(self.data.inputs)

    @cached_property
    def qxx(self) -> np.ndarray:
        return q_gram(self.ind, self.data.inputs)

    @cached_property
    def k_factor(self):
        """Cholesky factor of k_XX + s2 I."""
        return factor_spd(self.kxx + self.noise_var * np.eye(self.n), jitter_ladder=[0.0])

    @cached_property
    def q_factor(self):
        """Cholesky factor of q_XX + s2 I, the explicit n x n side that the
        O(n m^2) closed forms are checked against."""
        return factor_spd(self.qxx + self.noise_var * np.eye(self.n), jitter_ladder=[0.0])

    @cached_property
    def nystrom(self) -> NystromFactor:
        return nystrom_factor(self.kernel, self.data, self.ind, self.noise_var)

    @cached_property
    def optimal_state(self) -> SvgpState:
        """(mu*, Sigma*), read from the whitened factor."""
        return state_from_factor(self.nystrom)

    @cached_property
    def optimal_elbo(self) -> float:
        return elbo_from_factor(self.nystrom)

    @cached_property
    def kl(self) -> float:
        """KL(optimized variational GP || exact posterior), evaluated once
        by `kl_to_exact_posterior` for every bound that reads it."""
        return kl_to_exact_posterior(self)

    @cached_property
    def ridge_fit(self) -> NystromModel:
        """The Nystrom ridge fit (`fit_nystrom`) at this problem's ridge."""
        return fit_nystrom(self.kernel, self.data, self.ind, self.ridge)

    @cached_property
    def excess_risk(self) -> float:
        """The excess risk of `ridge_fit`, evaluated once by `excess_risk`."""
        return excess_risk(self)

    @cached_property
    def quadratic_form_gap(self) -> float:
        """y^T (q+s2 I)^{-1} y - y^T (k+s2 I)^{-1} y."""
        y = self.data.targets
        return float(y @ solve(self.q_factor, y) - y @ self.exact.alpha)

    @cached_property
    def exact(self) -> GpPosterior:
        """Exact GP posterior; its alpha is also the KRR coefficient vector
        at ridge s2 / n."""
        return GpPosterior(kernel=self.kernel, train_inputs=self.data.inputs,
                           noise_var=self.noise_var,
                           alpha=solve(self.k_factor, self.data.targets),
                           factor=self.k_factor)

    @cached_property
    def evidence(self) -> float:
        return self.exact.log_evidence(self.data.targets)

    @cached_property
    def opnorm_gap(self) -> float:
        return operator_norm(self.kxx - self.qxx)


def require_mc_samples(n_samples: int) -> None:
    """Raise InvalidCount when a Monte-Carlo sample is too small for its
    standard error to mean anything."""
    if n_samples < MIN_MC_SAMPLES:
        raise InvalidCount(
            f"{n_samples} Monte-Carlo samples are too few; use "
            f"--mc-samples >= {MIN_MC_SAMPLES}")


def _explicit_trace_gap(prob: SparseProblem) -> float:
    """tr(k_XX - q_XX) from the two n x n Grams."""
    return float(np.trace(prob.kxx - prob.qxx))


def _mc_quadratic_forms(prob: SparseProblem, n_samples: int, seed: int):
    """y^T (k+s2 I)^{-1} y and y^T (q+s2 I)^{-1} y for n_samples seeded draws
    y = L_k z ~ N(0, k_XX + s2 I). The k side is ||z||^2; the q side is
    taken by Woodbury on the whitened factor in O(n m S)."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((prob.n, n_samples))
    draws = prob.k_factor.lower @ z
    quad_k = np.einsum("ij,ij->j", z, z)
    del z  # at most two n x S arrays are alive at once
    return quad_k, prob.nystrom.quad_forms(draws)


def kl_to_exact_posterior(prob: SparseProblem) -> float:
    """KL(optimized variational GP || exact posterior).

    Computed as evidence minus optimal ELBO, then cross-checked against
    the explicit log-det / quadratic-form / trace expansion on the n x n
    factors; the two paths must agree to 1e-8 relative.
    """
    kl = prob.evidence - prob.optimal_elbo
    explicit = 0.5 * (
        -logdet(prob.k_factor) + logdet(prob.q_factor)
        + prob.quadratic_form_gap
        + _explicit_trace_gap(prob) / prob.noise_var
    )
    if abs(kl - explicit) > 1e-8 * max(1.0, abs(kl)):
        raise InternalInconsistency(
            f"KL paths disagree: evidence-ELBO {kl!r} vs explicit {explicit!r}"
        )
    return float(kl)


def burt_upper_bound(prob: SparseProblem) -> tuple[BoundRecord, BoundRecord]:
    """Bounds on 2*KL: the loose (t/s2)(||y||^2/s2 + 1) and the tighter
    intermediate with ||y||^2/(t + s2)."""
    kl2 = 2.0 * prob.kl
    s2 = prob.noise_var
    t = prob.nystrom.trace_gap
    y_sq = float(prob.data.targets @ prob.data.targets)
    loose = (t / s2) * (y_sq / s2 + 1.0)
    tight = (t / s2) * (y_sq / (t + s2) + 1.0)
    return (
        BoundRecord("kl_upper_bound", kl2, loose),
        BoundRecord("kl_upper_bound_intermediate", kl2, tight),
    )


def quadratic_form_gap_bound(prob: SparseProblem) -> BoundRecord:
    """y^T (q+s2 I)^{-1} y - y^T (k+s2 I)^{-1} y vs the opnorm-gap bound."""
    s2 = prob.noise_var
    op = prob.opnorm_gap
    y_sq = float(prob.data.targets @ prob.data.targets)
    rhs = y_sq * op / (s2 * (op + s2))
    return BoundRecord("quadratic_form_gap", prob.quadratic_form_gap, rhs)


def excess_risk(prob: SparseProblem) -> float:
    """R_n(nystrom; y) - R_n(exact KRR; y) at ridge s2 / n, from model
    coefficients; `SparseProblem.excess_risk` keeps the value."""
    ridge = prob.ridge
    y = prob.data.targets
    alpha = prob.exact.alpha
    exact_at_X = prob.kxx @ alpha
    sparse = prob.ridge_fit
    r_exact = float(np.mean((y - exact_at_X) ** 2) + ridge * (alpha @ exact_at_X))
    r_sparse = float(np.mean((y - sparse.predict_many(prob.data.inputs)) ** 2)
                     + ridge * sparse.rkhs_norm_sq())
    return r_sparse - r_exact


def excess_risk_upper_bound(prob: SparseProblem) -> tuple[BoundRecord, BoundRecord]:
    """Trace and opnorm variants of the excess-risk upper bound."""
    lhs = prob.excess_risk
    n, ridge = prob.n, prob.ridge
    y_sq = float(prob.data.targets @ prob.data.targets)
    t = prob.nystrom.trace_gap
    op = prob.opnorm_gap
    rhs_trace = y_sq * t / (n**2 * ridge * (t + n * ridge))
    rhs_op = y_sq * op / (n**2 * ridge * (op + n * ridge))
    return (
        BoundRecord("excess_risk_trace", lhs, rhs_trace),
        BoundRecord("excess_risk_opnorm", lhs, rhs_op),
    )


def rkhs_distance_sq(prob: SparseProblem) -> float:
    """||f_exact - f_nystrom||^2 in the RKHS at ridge s2 / n, by Gram
    quadratic forms."""
    alpha = prob.exact.alpha
    beta = prob.ridge_fit.beta
    Kxz = prob.kernel.gram(prob.data.inputs, prob.ind.points)
    Kzz = prob.kernel.gram(prob.ind.points)
    return float(alpha @ prob.kxx @ alpha - 2.0 * alpha @ Kxz @ beta + beta @ Kzz @ beta)


def rkhs_distance_bound(prob: SparseProblem) -> BoundRecord:
    """||f_exact - f_nystrom||^2 <= 2 tr(k_XX - q_XX) ||y||^2 / (n ridge)^2."""
    lhs = rkhs_distance_sq(prob)
    y_sq = float(prob.data.targets @ prob.data.targets)
    rhs = 2.0 * prob.nystrom.trace_gap * y_sq / (prob.n * prob.ridge) ** 2
    return BoundRecord("rkhs_distance", lhs, rhs)


def derivative_gap_bounds(prob: SparseProblem, X, js,
                          fd_step: float = 1e-5) -> tuple[np.ndarray, np.ndarray]:
    """Batched `derivative_gap_bound`: (lhs, rhs) for the partial derivative
    js[i] at each row X[i]. The sparse mean k_XZ k_ZZ^{-1} mu* and the exact
    mean k_XX' alpha are evaluated on all 2 P shifted points at once."""
    kernel = prob.kernel
    if not isinstance(kernel, GaussianKernel):
        raise UnsupportedKernel("derivative bound requires the Gaussian kernel")
    X = as_points(X, kernel.input_dim)
    js = np.asarray(js, dtype=int).reshape(-1)
    if js.shape[0] != X.shape[0]:
        raise DimensionMismatch(f"{js.shape[0]} coordinates for {X.shape[0]} points")
    dd = np.array([kernel.mixed_second_derivative(int(j), x) for x, j in zip(X, js)])
    shift = np.zeros_like(X)
    shift[np.arange(X.shape[0]), js] = fd_step
    shifted = np.vstack([X + shift, X - shift])
    p = X.shape[0]

    def partial(gram, coef):
        # One Gram build for all 2 P points, then one dot product per row:
        # each mean is then bit-identical to a one-point evaluation, which a
        # matrix-vector product is not (it sums in another order, and the
        # difference quotient divides that round-off by fd_step).
        values = np.array([row @ coef for row in gram])
        return (values[:p] - values[p:]) / (2.0 * fd_step)

    lhs = (partial(kernel.gram(shifted, prob.ind.points), prob.nystrom.mean_coef)
           - partial(kernel.gram(shifted, prob.data.inputs), prob.exact.alpha)) ** 2
    y_sq = float(prob.data.targets @ prob.data.targets)
    rhs = 2.0 * prob.nystrom.trace_gap * y_sq * dd / prob.noise_var**2
    return lhs, rhs


def derivative_gap_bound(prob: SparseProblem, x, j: int,
                         fd_step: float = 1e-5) -> BoundRecord:
    """Squared gap of the j-th partial derivatives of the sparse and exact
    posterior means, against 2 t ||y||^2 d_j d'_j k(x,x) / s2^2.

    The derivatives are central finite differences with step `fd_step`, so
    the record is compared at a looser 1e-4 tolerance by callers.
    """
    x = as_points(x, prob.kernel.input_dim)[:1]
    lhs, rhs = derivative_gap_bounds(prob, x, [j], fd_step)
    return BoundRecord("derivative_gap", float(lhs[0]), float(rhs[0]))


def training_collisions(prob: SparseProblem, X) -> np.ndarray:
    """Mask of the rows of X that coincide (np.isclose, atol 1e-12) with a
    training input in every coordinate."""
    X = as_points(X, prob.kernel.input_dim)
    close = np.isclose(prob.data.inputs[None, :, :], X[:, None, :], atol=1e-12)
    return np.any(np.all(close, axis=2), axis=1)


def worst_case_decompositions(prob: SparseProblem, X) -> tuple[np.ndarray, np.ndarray]:
    """Split k*(x,x) + s2 into the squared worst-case interpolation error
    k(x,x) - q(x,x) and the squared worst-case sparse-ridge error
    dtc_var(x) + s2: (total, split) at each row of X, NaN on both sides
    where the row collides with a training input.

    The total is `optimal_var`; the split reads kernel.diag, q_diag and
    `dtc_var`, a separate evaluation."""
    X = as_points(X, prob.kernel.input_dim)
    fac, s2 = prob.nystrom, prob.noise_var
    total = fac.optimal_var(X) + s2
    interp = prob.kernel.diag(X) - q_diag(prob.ind, X)
    split = interp + (fac.dtc_var(X) + s2)
    collides = training_collisions(prob, X)
    total[collides] = np.nan
    split[collides] = np.nan
    return total, split


def worst_case_residuals(prob: SparseProblem, X) -> np.ndarray:
    """|total - split| of the decomposition at each row of X; NaN where the
    row collides with a training input."""
    total, split = worst_case_decompositions(prob, X)
    return np.abs(total - split)


def expected_kl_sandwich(prob: SparseProblem, n_samples: int = 2000, seed: int = 0):
    """Monte-Carlo estimate of E_y[KL] under y ~ N(0, k_XX + s2 I) (the
    problem's targets are not used), returned with its 1.96-stderr
    halfwidth and the a-priori sandwich [t/(2 s2), t/s2].

    A trace gap below -1e-10 * tr(k_XX) is not round-off: the band would be
    inverted, so InternalInconsistency is raised instead."""
    require_mc_samples(n_samples)
    s2 = prob.noise_var
    t = _explicit_trace_gap(prob)
    if t < -1e-10 * float(np.sum(np.diag(prob.kxx))):
        raise InternalInconsistency(
            f"negative trace gap t = {t!r} inverts the KL band; reduce m or "
            "check the inducing set for near-duplicate points")
    # Per-draw KL from the explicit expansion.
    quad_k, quad_q = _mc_quadratic_forms(prob, n_samples, seed)
    kls = 0.5 * (logdet(prob.q_factor) - logdet(prob.k_factor) - quad_k + quad_q + t / s2)
    mc = float(np.mean(kls))
    stderr = float(np.std(kls, ddof=1) / np.sqrt(n_samples))
    return mc, 1.96 * stderr, t / (2.0 * s2), t / s2


def expected_excess_risk_lower_bound(prob: SparseProblem, n_samples: int = 2000,
                                     seed: int = 0) -> tuple[BoundRecord, float]:
    """(1/n) log det ratio vs the Monte-Carlo mean excess risk under the
    prior model at ridge s2 / n (the problem's targets are not used). The
    caller should allow 3 stderr of slack on top of the record's rhs."""
    require_mc_samples(n_samples)
    n = prob.n
    lhs = (logdet(prob.k_factor) - logdet(prob.q_factor)) / n
    # n * excess risk = y^T (q+s2 I)^{-1} y - y^T (k+s2 I)^{-1} y
    quad_k, quad_q = _mc_quadratic_forms(prob, n_samples, seed)
    excess = (quad_q - quad_k) / n
    mc = float(np.mean(excess))
    rec = BoundRecord("expected_excess_risk_lower", float(lhs), mc)
    return rec, float(np.std(excess, ddof=1) / np.sqrt(n_samples))
