"""Approximation-quality diagnostics and certified error bounds.

Every bound reads one SparseProblem, which builds each matrix of a
(kernel, data, Z, s2) instance once. Each bound is returned as a
BoundRecord pairing the measured quantity with its certified upper (or
lower) bound; `holds` uses the relative slack tolerance TOLERANCE.
Ridge-side bounds read the problem at the ridge, `SparseProblem.at_ridge`,
and are written in its own s2 = n lambda, so no bound converts a ridge.
A certified bound that over- or underflow made vacuous (+inf, or 0 though
every factor of it is positive) is an InvalidParameter naming the flag
to change (`_certified`), never a check that passes. The explicit n x n q
side that the closed forms are checked against is one ExplicitQ record
per problem, `SparseProblem.explicit_q`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .data import Dataset
from .errors import DimensionMismatch, InternalInconsistency, InvalidCount, InvalidParameter
from .exact import GpPosterior, noise_of_ridge, regularized_risk
from .kernels import Kernel, KernelExpansion, as_points
from .linalg import (SpdFactor, _check_positive, logdet, lower_solve, noise_factor,
                     operator_norm, solve, upper_solve)
from .nystrom import (InducingSet, NystromFactor, _check_kernel, fit_nystrom, nystrom_factor,
                      q_diag, q_gram)
from .svgp import SvgpState, optimal_parameters

TOLERANCE = 1e-8  # the certified identities' tolerance; 1e-4 for finite differences
FD_STEP = 1e-5  # the central-difference step of derivative_gap_bounds
MIN_MC_SAMPLES = 100
# SparseProblem.mc_quadratic_forms draws and reduces its sample this many
# draws at a time, in a few n x _MC_BLOCK buffers instead of n x S arrays.
# On a 2-vCPU x86-64 VM at n = 400, m = 24, S = 2000 the sample's traced
# peak is 1.1 / 1.7 / 2.7 / 4.6 MB at widths 64 / 128 / 256 / 512, the
# peak RSS of a bare verify run 45.2 / 45.5 / 47.6 MB at 128 / 256 / 512,
# and the sample takes 27-29 ms at each width, 12 ms of it in the draws.
_MC_BLOCK = 256
# It forms L_k z^T this many rows of L_k at a time, reading only the lower
# triangle. On the same VM, at n = 2000 a block of 256 draws took 26.0 ms
# as one product with the full L_k and 22.9 / 17.8 / 17.6 ms in blocks of
# 64 / 128 / 256 rows; at n = 400 each way took 1.2 ms.
_MC_ROWS = 128


@dataclass(frozen=True)
class BoundRecord:
    lhs: float
    rhs: float

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    @property
    def holds(self) -> bool:
        return self.slack >= -TOLERANCE * max(1.0, abs(self.rhs))


@dataclass(frozen=True)
class ExplicitQ:
    """What SparseProblem keeps of the explicit n x n q side."""

    solve: np.ndarray  # (q_XX + s2 I)^{-1} y
    logdet: float  # log det(q_XX + s2 I)
    trace: float  # tr(G), G = k_XX - q_XX
    opnorm: float  # ||G||_2


@dataclass(frozen=True, eq=False)
class SparseProblem:
    """One (kernel, data, Z, s2) instance and the matrices its bounds read.

    Each member is built on first use and then kept, so a verify run forms
    k_XX and the factor of k_XX + s2 I once; they are the only n x n
    matrices it keeps. q_XX is built once, by the explicit q pass
    (explicit_q), whose ExplicitQ record keeps (q_XX + s2 I)^{-1} y,
    log det(q_XX + s2 I), tr(G) and ||G||_2 of the gap G = k_XX - q_XX and
    drops the factor of q_XX + s2 I and G; every explicit-q read goes
    through that record. K_XZ is built once, for the excess risk, the RKHS
    distance and the q route; k_ZZ is never built here: the ridge fit, its
    RKHS norm ||L_Z^T beta||^2 and the q route read the inducing set's
    factor L_Z. The log-det gap is taken once for the KL and both
    expected-value bounds, which also read one Monte-Carlo sample of
    mc_samples targets, seeded with mc_seed. The sample is drawn and
    reduced in blocks of draws through buffers allocated once, so it takes
    O(n _MC_BLOCK) memory and one pair of L_B solves at any mc_samples, and
    only its two quadratic forms per draw are kept. A caller that drew the targets through the factor of k_XX + s2 I passes
    it and k_XX as prior_kxx and prior_k_factor, and they are kept as they
    are; `at_ridge` passes its problem's k_XX on the same way. A build that
    raises is not kept: every reader gets the same typed error.
    """

    kernel: Kernel
    data: Dataset
    ind: InducingSet
    noise_var: float
    mc_samples: int = 2000
    mc_seed: int = 0
    prior_kxx: np.ndarray | None = field(default=None, repr=False)
    prior_k_factor: SpdFactor | None = field(default=None, repr=False)

    def __post_init__(self):
        _check_positive(self.noise_var, "noise_var")
        _check_kernel(self.kernel, self.ind)
        if self.mc_samples < MIN_MC_SAMPLES:
            raise InvalidCount(
                f"{self.mc_samples} Monte-Carlo samples are too few; use "
                f"--mc-samples >= {MIN_MC_SAMPLES}")

    @property
    def n(self) -> int:
        return self.data.n

    @property
    def ridge(self) -> float:
        """The ridge lambda = s2 / n linked to this problem's noise."""
        return self.noise_var / self.n

    def at_ridge(self, ridge: float) -> SparseProblem:
        """The problem whose ridge is `ridge`: self when it already is, else
        a new problem at s2 = `noise_of_ridge`(n, ridge) with the same
        Monte-Carlo settings that shares this problem's k_XX, so k_XX is
        built once for both; the factor of k_XX + s2 I is not the new
        problem's. InvalidParameter unless ridge is positive and finite and
        n * ridge is finite."""
        if ridge == self.ridge:
            return self
        return replace(self, noise_var=noise_of_ridge(self.n, ridge), prior_kxx=self.kxx,
                       prior_k_factor=None)

    @cached_property
    def kxx(self) -> np.ndarray:
        if self.prior_kxx is not None:
            return self.prior_kxx
        return self.kernel.gram(self.data.inputs)

    @cached_property
    def k_factor(self) -> SpdFactor:
        """Cholesky factor of k_XX + s2 I."""
        if self.prior_k_factor is not None:
            return self.prior_k_factor
        return noise_factor(self.kxx, self.noise_var)

    @cached_property
    def explicit_q(self) -> ExplicitQ:
        """The explicit n x n q side that the O(n m^2) closed forms are
        checked against, in one pass over one q_XX, built in O(n^2 m):
        factor q_XX + s2 I, keep (q_XX + s2 I)^{-1} y and its log-det and
        drop the factor, then turn q_XX into the gap G = k_XX - q_XX in
        place, keep tr(G) and ||G||_2 and drop G. Only these four are kept."""
        qxx = q_gram(self.ind, self.data.inputs)
        factor = noise_factor(qxx, self.noise_var)
        q_solve, q_logdet = solve(factor, self.data.targets), logdet(factor)
        del factor
        gap = np.subtract(self.kxx, qxx, out=qxx)
        return ExplicitQ(q_solve, q_logdet, float(np.trace(gap)), operator_norm(gap))

    @cached_property
    def nystrom(self) -> NystromFactor:
        return nystrom_factor(self.kernel, self.data, self.ind, self.noise_var)

    @cached_property
    def optimal_state(self) -> SvgpState:
        """(mu*, Sigma*), read from the whitened factor."""
        return optimal_parameters(self.nystrom)

    @cached_property
    def logdet_gap(self) -> float:
        """log det(k_XX + s2 I) - log det(q_XX + s2 I): the kept factor's
        log-det less the explicit q pass's."""
        return logdet(self.k_factor) - self.explicit_q.logdet

    @cached_property
    def kl(self) -> float:
        """KL(optimized variational GP || exact posterior), evaluated once
        for every bound that reads it.

        Computed as evidence minus optimal ELBO, then cross-checked against
        the explicit log-det / quadratic-form / trace expansion on the n x n
        factors; the two paths must agree to 1e-8 relative.
        """
        kl = self.exact.log_evidence() - self.nystrom.elbo
        explicit = 0.5 * (-self.logdet_gap + self.quadratic_form_gap
                          + self.explicit_q.trace / self.noise_var)
        if abs(kl - explicit) > 1e-8 * max(1.0, abs(kl)):
            raise InternalInconsistency(
                f"KL paths disagree: evidence-ELBO {kl!r} vs explicit {explicit!r}"
            )
        return float(kl)

    @cached_property
    def ridge_fit(self) -> KernelExpansion:
        """The Nystrom ridge fit (`fit_nystrom`) at this problem's ridge."""
        return fit_nystrom(self.kernel, self.data, self.ind, self.ridge)

    @cached_property
    def kxz(self) -> np.ndarray:
        """K_XZ over the ridge fit's centers Z, read by the excess risk (the
        fit's values at X), the RKHS distance and the q route."""
        return self.kernel.gram(self.data.inputs, self.ind.points)

    @cached_property
    def ridge_fit_norm_sq(self) -> float:
        """||f||^2 = beta^T k_ZZ beta = ||L_Z^T beta||^2 of the ridge fit,
        on the set's factor of k_ZZ."""
        return float(np.sum(np.square(self.ind.kzz_factor.lower.T @ self.ridge_fit.coef)))

    @cached_property
    def excess_risk(self) -> float:
        """R_n(nystrom; y) - R_n(exact KRR; y) at ridge s2 / n, both by
        `regularized_risk`: the excess risk of `ridge_fit`. The exact side
        reads its values and norm off the kept k_XX, the sparse side off
        K_XZ and the set's factor of k_ZZ."""
        alpha, beta = self.exact.mean.coef, self.ridge_fit.coef
        exact_at_X = self.kxx @ alpha
        r_exact = regularized_risk(exact_at_X, float(alpha @ exact_at_X), self.data, self.ridge)
        r_sparse = regularized_risk(self.kxz @ beta, self.ridge_fit_norm_sq, self.data, self.ridge)
        return r_sparse - r_exact

    @cached_property
    def ridge_fit_via_q(self) -> KernelExpansion:
        """The Nystrom ridge fit at this problem's ridge by a second route:
        KRR with the kernel q, f(x) = q_X(x)^T (q_XX + s2 I)^{-1} y, mapped
        back to M. With q_X(x) = k_XZ k_ZZ^{-1} k_Z(x), f = k_Z(.)^T beta for
        beta = k_ZZ^{-1} k_ZX (q_XX + s2 I)^{-1} y. It reads the explicit
        n x n q side, never `fit_nystrom`'s least-squares solve."""
        return KernelExpansion(self.kernel, self.ind.points,
                               solve(self.ind.kzz_factor, self.kxz.T @ self.explicit_q.solve))

    @cached_property
    def quadratic_form_gap(self) -> float:
        """y^T (q+s2 I)^{-1} y - y^T (k+s2 I)^{-1} y."""
        y = self.data.targets
        return float(y @ self.explicit_q.solve - y @ self.exact.mean.coef)

    @cached_property
    def exact(self) -> GpPosterior:
        """Exact GP posterior; its mean is also the KRR fit at ridge s2 / n."""
        return GpPosterior.from_factor(self.kernel, self.data, self.k_factor)

    @cached_property
    def y_sq(self) -> float:
        """||y||^2 of the targets, read by every bound that scales with it."""
        return float(self.data.targets @ self.data.targets)

    @cached_property
    def mc_quadratic_forms(self) -> tuple[np.ndarray, np.ndarray]:
        """y^T (k+s2 I)^{-1} y and y^T (q+s2 I)^{-1} y for the mc_samples
        draws y = L_k z ~ N(0, k_XX + s2 I) seeded with mc_seed. The z are
        the rows of rng.standard_normal((mc_samples, n)), drawn _MC_BLOCK
        rows at a time into one buffer, so the sample does not depend on
        the block width, and each block is reduced before the next is
        drawn. The k side is ||z||^2. The q side is the whitened factor's
        Woodbury solve with its two L_B solves taken once per sample, as
        U = L_B^{-T} L_B^{-1} V / s2: each block Y = L_k z^T, formed
        _MC_ROWS rows at a time from the lower triangle of L_k alone, gives
        e = U Y and r = Y - V^T e, reduced to ||r||^2 / s2 + ||e||^2, in
        O(n m S). Y, r and e reuse buffers allocated once per sample."""
        rng = np.random.default_rng(self.mc_seed)
        fac, s2, n, S = self.nystrom, self.noise_var, self.n, self.mc_samples
        L, V = self.k_factor.lower, fac.features
        U = upper_solve(fac.b_factor, lower_solve(fac.b_factor, V) / s2)
        starts = range(0, n, _MC_ROWS)
        diag = [np.tril(L[lo:lo + _MC_ROWS, lo:lo + _MC_ROWS]) for lo in starts]
        width = min(_MC_BLOCK, S)
        # One buffer holds a block's draws z (w x n), then its residuals r (n x w).
        shared, Y_buf = np.empty(width * n), np.empty((n, width))
        part_buf, e_buf = np.empty((_MC_ROWS, width)), np.empty((V.shape[0], width))
        quad_k, quad_q = np.empty(S), np.empty(S)
        for start in range(0, S, width):
            block = slice(start, min(start + width, S))
            w = block.stop - start
            z, Y, e = shared[:w * n].reshape(w, n), Y_buf[:, :w], e_buf[:, :w]
            rng.standard_normal(out=z)
            np.einsum("ij,ij->i", z, z, out=quad_k[block])
            for lo, tri in zip(starts, diag):
                hi = lo + tri.shape[0]
                np.matmul(tri, z[:, lo:hi].T, out=Y[lo:hi])
                if lo:
                    Y[lo:hi] += np.matmul(L[lo:hi, :lo], z[:, :lo].T, out=part_buf[:hi - lo, :w])
            np.matmul(U, Y, out=e)
            r = np.matmul(V.T, e, out=shared[:w * n].reshape(n, w))
            np.subtract(Y, r, out=r)
            q = quad_q[block]
            np.einsum("ij,ij->j", r, r, out=q)
            q /= s2
            q += np.einsum("ij,ij->j", e, e)
        return quad_k, quad_q


def burt_upper_bound(prob: SparseProblem) -> tuple[BoundRecord, BoundRecord]:
    """Bounds on 2*KL: the loose (t/s2)(||y||^2/s2 + 1) and the tighter
    intermediate with ||y||^2/(t + s2)."""
    kl2 = 2.0 * prob.kl
    t, s2 = prob.nystrom.trace_gap, prob.noise_var
    loose = (t / s2) * (prob.y_sq / s2 + 1.0)
    tight = (t / s2) * (prob.y_sq / (t + s2) + 1.0)
    return (
        BoundRecord(kl2, loose),
        BoundRecord(kl2, tight),
    )


def quadratic_form_gap_bound(prob: SparseProblem) -> BoundRecord:
    """y^T (q+s2 I)^{-1} y - y^T (k+s2 I)^{-1} y vs the opnorm-gap bound."""
    s2 = prob.noise_var
    op = prob.explicit_q.opnorm
    rhs = prob.y_sq * op / (s2 * (op + s2))
    return BoundRecord(prob.quadratic_form_gap, rhs)


def _certified(rhs, factors, flag: str, value: float):
    """rhs, a certified bound (a float or an array), unless over- or
    underflow made it vacuous. rhs is the nonnegative `factors` (floats or
    arrays, broadcast against each other) times a term that falls as the
    parameter set by `flag`, here `value`, grows. An infinite rhs, where
    that parameter is too small, or a rhs of 0 although every factor is
    positive, where it is too large, certifies nothing: InvalidParameter
    naming the flag."""
    if np.any(np.isinf(rhs)):
        raise InvalidParameter(f"{flag} {value:g} is too small: the bound overflows to inf")
    if np.any((rhs == 0.0) & (np.min(np.broadcast_arrays(*factors), axis=0) > 0.0)):
        raise InvalidParameter(f"{flag} {value:g} is too large: the bound underflows to 0")
    return rhs


def _rkhs_rhs(prob: SparseProblem, flag: str, value: float) -> float:
    """The RKHS-distance bound 2 (t / s2)(||y||^2 / s2), t = tr(k_XX - q_XX),
    at the problem's s2, certified in the parameter of `flag` (`_certified`)."""
    t, s2 = prob.nystrom.trace_gap, prob.noise_var
    return _certified(2.0 * (t / s2) * (prob.y_sq / s2), (t, prob.y_sq), flag, value)


def excess_risk_upper_bound(prob: SparseProblem) -> BoundRecord:
    """Excess risk at ridge s2 / n vs its trace upper bound
    ||y||^2 / (n s2) * t / (t + s2), certified in --ridge."""
    t, s2 = prob.nystrom.trace_gap, prob.noise_var
    rhs = prob.y_sq / (prob.n * s2) * (t / (t + s2))
    return BoundRecord(prob.excess_risk, _certified(rhs, (t, prob.y_sq), "--ridge", prob.ridge))


def rkhs_distance_sq(prob: SparseProblem) -> float:
    """||f_exact - f_nystrom||^2 in the RKHS at ridge s2 / n, by Gram
    quadratic forms."""
    alpha = prob.exact.mean.coef
    cross = alpha @ prob.kxz @ prob.ridge_fit.coef
    return float(alpha @ prob.kxx @ alpha - 2.0 * cross + prob.ridge_fit_norm_sq)


def rkhs_distance_bound(prob: SparseProblem) -> BoundRecord:
    """||f_exact - f_nystrom||^2 at ridge s2 / n vs 2 (t / s2)(||y||^2 / s2),
    certified in --ridge."""
    return BoundRecord(rkhs_distance_sq(prob), _rkhs_rhs(prob, "--ridge", prob.ridge))


def derivative_gap_bounds(prob: SparseProblem, X, js) -> tuple[np.ndarray, np.ndarray]:
    """Squared gap of the js[i]-th partial derivatives of the sparse and
    exact posterior means at each row X[i] (lhs), against
    2 (t / s2)(||y||^2 / s2) d_j d'_j k(x,x) (rhs): the RKHS-distance bound
    at this problem's s2 times d_j d'_j k(x,x).

    The derivatives are central finite differences with step FD_STEP, so
    callers compare lhs and rhs at a looser 1e-4 tolerance. The sparse mean
    (an expansion over Z) and the exact mean (over X) are evaluated on all
    2 P shifted points at once. A kernel without d_j d'_j k(x,x) raises
    UnsupportedKernel. A rhs that overflows to +inf (or underflows to 0) is
    an InvalidParameter naming --noise-var where the RKHS-distance bound
    does, else --gamma."""
    kernel = prob.kernel
    X = as_points(X, kernel.input_dim)
    js = np.asarray(js, dtype=int).reshape(-1)
    if js.shape[0] != X.shape[0]:
        raise DimensionMismatch(f"{js.shape[0]} coordinates for {X.shape[0]} points")
    dd = np.array([kernel.mixed_second_derivative(int(j), x) for x, j in zip(X, js)])
    shift = np.zeros_like(X)
    shift[np.arange(X.shape[0]), js] = FD_STEP
    shifted = np.vstack([X + shift, X - shift])
    p = X.shape[0]

    def partial(f: KernelExpansion):
        # One Gram build for all 2 P points, then one dot product per row:
        # each value then does not depend on P, which a matrix-vector
        # product does not promise (it may sum in another order, and the
        # difference quotient divides that round-off by FD_STEP).
        values = np.array([row @ f.coef for row in kernel.gram(shifted, f.centers)])
        return (values[:p] - values[p:]) / (2.0 * FD_STEP)

    lhs = (partial(prob.nystrom.mean) - partial(prob.exact.mean)) ** 2
    rkhs = _rkhs_rhs(prob, "--noise-var", prob.noise_var)
    with np.errstate(over="ignore"):  # an overflow to inf is _certified's error
        return lhs, _certified(rkhs * dd, (rkhs, dd), "--gamma", kernel.lengthscale)


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


def expected_kl_sandwich(prob: SparseProblem):
    """Monte-Carlo estimate of E_y[KL] under y ~ N(0, k_XX + s2 I) (the
    problem's targets are not used) on the problem's kept sample, returned
    with its standard error and the a-priori sandwich [t/(2 s2), t/s2].

    A trace gap below -1e-10 * tr(k_XX) is not round-off: the band would be
    inverted, so InternalInconsistency is raised instead."""
    s2 = prob.noise_var
    t = prob.explicit_q.trace
    if t < -1e-10 * float(np.sum(np.diag(prob.kxx))):
        raise InternalInconsistency(
            f"negative trace gap t = {t!r} inverts the KL band; reduce m or "
            "check the inducing set for near-duplicate points")
    # Per-draw KL from the explicit expansion.
    quad_k, quad_q = prob.mc_quadratic_forms
    kls = 0.5 * (-prob.logdet_gap - quad_k + quad_q + t / s2)
    stderr = float(np.std(kls, ddof=1) / np.sqrt(prob.mc_samples))
    return float(np.mean(kls)), stderr, t / (2.0 * s2), t / s2


def expected_excess_risk_lower_bound(prob: SparseProblem) -> tuple[BoundRecord, float]:
    """(1/n) log det ratio vs the Monte-Carlo mean excess risk under the
    prior model at ridge s2 / n (the problem's targets are not used) on the
    problem's kept sample, with its standard error. The caller should allow
    3 stderr of slack on top of the record's rhs."""
    n = prob.n
    lhs = prob.logdet_gap / n
    # n * excess risk = y^T (q+s2 I)^{-1} y - y^T (k+s2 I)^{-1} y
    quad_k, quad_q = prob.mc_quadratic_forms
    excess = (quad_q - quad_k) / n
    stderr = float(np.std(excess, ddof=1) / np.sqrt(prob.mc_samples))
    return BoundRecord(float(lhs), float(np.mean(excess))), stderr
