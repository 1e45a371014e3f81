import dataclasses

import numpy as np
import pytest
import scipy.stats

from sparsegp.data import Dataset
from sparsegp.errors import InvalidParameter
from sparsegp.exact import fit_gpr
from sparsegp.kernels import GaussianKernel
from sparsegp.nystrom import fit_nystrom, make_inducing, nystrom_factor, q_diag, q_gram
from sparsegp.svgp import (SvgpState, elbo, elbo_breakdown, elbos, feature_map_phi,
                           make_state, optimal_parameters, psi_forward, psi_inverse,
                           stationarity_residual)


@pytest.fixture
def kernel():
    return GaussianKernel(lengthscale=1.0)


def random_dataset(n, seed, d=1):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-3, 3, size=(n, d))
    y = rng.standard_normal(n)
    y *= min(1.0, 10.0 / np.linalg.norm(y))
    return Dataset(X, y)


def random_state(kernel, m, seed):
    rng = np.random.default_rng(seed)
    Z = rng.uniform(-3, 3, size=(m, kernel.input_dim))
    ind = make_inducing(kernel, Z)
    mu = rng.standard_normal(m)
    A = rng.standard_normal((m, m))
    sigma = A @ A.T + 0.1 * np.eye(m)
    return make_state(ind, mu, sigma)


def factor_of(state, data, s2):
    """The whitened factor of (data, s2) on the state's inducing set."""
    return nystrom_factor(state.inducing.kernel, data, state.inducing, s2)


def variational_mean(state, X):
    """m^nu(X) = k_XZ psi(mu): the interpolant of mu at Z, one value per row."""
    ind = state.inducing
    return ind.kernel.gram(X, ind.points) @ psi_forward(ind, state.mu)


def variational_var(state, X):
    """k^nu(x, x) = k(x, x) - q(x, x) + ||phi(x)||^2 at each row of X."""
    ind = state.inducing
    phi = feature_map_phi(state, X)
    return ind.kernel.diag(X) - q_diag(ind, X) + np.sum(phi**2, axis=1)


def test_variational_mean_linear_in_mu(kernel):
    state = random_state(kernel, 4, 0)
    doubled = make_state(state.inducing, 2 * state.mu, state.sigma)
    X = np.linspace(-3, 3, 5)[:, None]
    np.testing.assert_allclose(variational_mean(doubled, X),
                               2 * variational_mean(state, X), rtol=1e-10)


def test_variational_mean_interpolates_mu(kernel):
    # evaluating at the inducing points recovers mu
    state = random_state(kernel, 3, 1)
    np.testing.assert_allclose(variational_mean(state, state.inducing.points),
                               state.mu, rtol=0, atol=1e-8)


def test_variational_cov_at_inducing_points(kernel):
    # k - q vanishes on Z, so phi(z_i) . phi(z_j) is the whole covariance Sigma_ij
    state = random_state(kernel, 3, 2)
    Z = state.inducing.points
    phi = feature_map_phi(state, Z)
    assert phi.shape == (3, 3)
    np.testing.assert_allclose(phi @ phi.T, state.sigma, rtol=0, atol=1e-8)
    np.testing.assert_allclose(variational_var(state, Z), np.diag(state.sigma),
                               rtol=0, atol=1e-8)


def test_variational_cov_prior_sigma_recovers_q_free_prior(kernel):
    # Sigma = k_ZZ collapses the correction terms, leaving the prior kernel
    rng = np.random.default_rng(3)
    Z = rng.uniform(-3, 3, size=(4, 1))
    ind = make_inducing(kernel, Z)
    state = make_state(ind, np.zeros(4), kernel.gram(Z))
    X = np.linspace(-3, 3, 6)[:, None]
    np.testing.assert_allclose(variational_var(state, X), kernel.diag(X),
                               rtol=0, atol=1e-8)


def test_psi_maps_are_inverse(kernel):
    state = random_state(kernel, 5, 4)
    alpha = psi_forward(state.inducing, state.mu)
    assert np.allclose(psi_inverse(state.inducing, alpha), state.mu, atol=1e-8)
    rng = np.random.default_rng(5)
    a = rng.standard_normal(5)
    assert np.allclose(psi_forward(state.inducing, psi_inverse(state.inducing, a)),
                       a, atol=1e-8)


def test_feature_map_inner_products(kernel):
    # phi(x) . phi(x') equals the Sigma-dependent covariance correction
    # k_Z(x)^T k_ZZ^{-1} Sigma k_ZZ^{-1} k_Z(x')
    state = random_state(kernel, 4, 6)
    Z = state.inducing.points
    Kzz = kernel.gram(Z)
    X = np.array([[0.0], [0.5], [2.0]])
    X2 = np.array([[0.0], [-1.0], [2.0]])
    inner = feature_map_phi(state, X) @ feature_map_phi(state, X2).T
    a = np.linalg.solve(Kzz, kernel.gram(Z, X))
    b = np.linalg.solve(Kzz, kernel.gram(Z, X2))
    # a second solve path: relative agreement, the values reach ~1e4 here
    assert inner == pytest.approx(a.T @ state.sigma @ b, rel=1e-10, abs=1e-8)


def test_elbo_at_most_evidence(kernel):
    data = random_dataset(20, 7)
    s2 = 0.3
    evidence = fit_gpr(kernel, data, s2).log_evidence()
    for seed in range(5):
        state = random_state(kernel, 4, 100 + seed)
        assert elbo(factor_of(state, data, s2), state) <= evidence + 1e-10


def test_elbo_equals_evidence_when_inducing_covers_data(kernel):
    data = random_dataset(10, 8)
    s2 = 0.4
    ind = make_inducing(kernel, data.inputs)
    fac = nystrom_factor(kernel, data, ind, s2)
    assert elbo(fac, optimal_parameters(fac)) == pytest.approx(
        fit_gpr(kernel, data, s2).log_evidence(), abs=1e-8)


def test_elbo_breakdown_terms_sum(kernel, dense_elbo):
    # the terms sum to -2 s2 times the dense raw-coordinate ELBO
    data = random_dataset(15, 9)
    s2 = 0.25
    for seed in range(5):
        state = random_state(kernel, 4, 200 + seed)
        fac = factor_of(state, data, s2)
        ref = -2 * s2 * dense_elbo(state, data, s2)
        assert elbo_breakdown(fac, state).term_sum() == pytest.approx(ref, rel=1e-10)
        assert -2 * s2 * elbo(fac, state) == pytest.approx(ref, rel=1e-10)


def test_elbo_breakdown_signs(kernel):
    data = random_dataset(15, 10)
    s2 = 0.25
    state = random_state(kernel, 4, 11)
    br = elbo_breakdown(factor_of(state, data, s2), state)
    assert br.fit_plus_norm >= 0
    assert br.sigma_quadratic >= 0
    assert br.kl_regularizer >= -1e-10
    assert br.residual_trace >= -1e-10


def test_elbo_breakdown_kl_matches_gaussian_formula(kernel):
    state = random_state(kernel, 4, 12)
    data = random_dataset(10, 13)
    s2 = 0.3
    br = elbo_breakdown(factor_of(state, data, s2), state)
    Kzz = state.inducing.kernel.gram(state.inducing.points)
    S = state.sigma
    iK = np.linalg.inv(Kzz)
    kl = 0.5 * (np.trace(iK @ S) - 4
                + np.linalg.slogdet(Kzz)[1] - np.linalg.slogdet(S)[1])
    assert br.kl_regularizer == pytest.approx(2 * s2 * kl, rel=1e-8)


def test_optimal_parameters_maximize_elbo(kernel):
    data = random_dataset(20, 14)
    s2 = 0.3
    rng = np.random.default_rng(15)
    ind = make_inducing(kernel, rng.uniform(-3, 3, size=(4, 1)))
    fac = nystrom_factor(kernel, data, ind, s2)
    star = optimal_parameters(fac)
    best = elbo(fac, star)
    assert best == pytest.approx(fac.elbo, rel=1e-10)
    for seed in range(20):
        r = np.random.default_rng(300 + seed)
        mu = star.mu + 0.1 * r.standard_normal(4)
        A = 0.05 * r.standard_normal((4, 4))
        sigma = star.sigma + A @ A.T
        assert elbo(fac, make_state(ind, mu, sigma)) <= best + 1e-10


def test_optimal_elbo_closed_form(kernel):
    # L* is the q-model evidence minus the trace penalty
    data = random_dataset(25, 16)
    s2 = 0.35
    rng = np.random.default_rng(17)
    ind = make_inducing(kernel, rng.uniform(-3, 3, size=(5, 1)))
    Q = q_gram(ind, data.inputs)
    t = float(np.trace(kernel.gram(data.inputs) - Q))
    ev_q = scipy.stats.multivariate_normal(
        mean=np.zeros(data.n), cov=Q + s2 * np.eye(data.n),
        allow_singular=True).logpdf(data.targets)
    assert nystrom_factor(kernel, data, ind, s2).elbo == pytest.approx(
        ev_q - t / (2 * s2), rel=1e-8)


def test_optimal_posterior_matches_dtc(kernel):
    data = random_dataset(20, 18)
    s2 = 0.3
    rng = np.random.default_rng(19)
    ind = make_inducing(kernel, rng.uniform(-3, 3, size=(4, 1)))
    fac = nystrom_factor(kernel, data, ind, s2)
    xs = np.linspace(-3, 3, 9)
    opt, dtc = fac.optimal_var(xs), fac.dtc_var(xs)
    for x, v_opt, v_dtc in zip(xs, opt, dtc):
        # optimal variational variance carries the extra k - q residual
        gap = kernel.gram(np.atleast_2d(x))[0, 0] - q_gram(ind, np.atleast_2d(x))[0, 0]
        assert v_opt == pytest.approx(v_dtc + gap, abs=1e-8)


def test_optimal_mean_matches_sparse_ridge(kernel):
    data = random_dataset(20, 20)
    s2 = 0.4
    rng = np.random.default_rng(21)
    ind = make_inducing(kernel, rng.uniform(-3, 3, size=(4, 1)))
    star = optimal_parameters(nystrom_factor(kernel, data, ind, s2))
    model = fit_nystrom(kernel, data, ind, s2 / data.n)
    assert np.allclose(psi_forward(ind, star.mu), model.coef, atol=1e-8)


def stationarity_instance(kernel):
    data = random_dataset(20, 22)
    rng = np.random.default_rng(23)
    ind = make_inducing(kernel, rng.uniform(-3, 3, size=(4, 1)))
    return data, ind


def test_stationarity_residual_vanishes_at_optimum(kernel):
    data, ind = stationarity_instance(kernel)
    fac = nystrom_factor(kernel, data, ind, 0.3)
    assert stationarity_residual(fac, optimal_parameters(fac)) <= 1e-12


@pytest.mark.parametrize("s2_star, broken", [
    (0.1, lambda s: SvgpState(s.inducing, s.u + 1e-4 * np.eye(s.m)[0], s.R)),
    (0.1, lambda s: SvgpState(s.inducing, s.u, (1 + 1e-4) * s.R)),
    (0.11, lambda s: s),
], ids=["mean", "covariance", "other-noise"])
def test_stationarity_residual_flags_a_non_optimum(kernel, s2_star, broken):
    # a perturbed optimum at s2 = 0.1, or the optimum at s2 = 0.11, read at 0.1
    data, ind = stationarity_instance(kernel)
    star = optimal_parameters(nystrom_factor(kernel, data, ind, s2_star))
    assert stationarity_residual(nystrom_factor(kernel, data, ind, 0.1), broken(star)) > 1e-6


def test_state_functions_read_only_the_factors_v_trace_gap_data_and_noise(kernel):
    # With L_B, u*, the mean, m*(X) and the optimal ELBO taken away, every
    # SVGP function of a problem returns the same bits: none of them reads
    # the arithmetic that produced the optimum.
    data, ind = stationarity_instance(kernel)
    fac = nystrom_factor(kernel, data, ind, 0.3)
    bare = dataclasses.replace(fac, b_factor=None, u=None, mean=None, fitted=None,
                               elbo=float("nan"))
    rng = np.random.default_rng(24)
    A = rng.standard_normal((4, 4))
    states = [optimal_parameters(fac),
              make_state(ind, rng.standard_normal(4), A @ A.T + 0.1 * np.eye(4))]
    assert np.array_equal(elbos(bare, states), elbos(fac, states))
    for state in states:
        assert elbo(bare, state) == elbo(fac, state)
        assert elbo_breakdown(bare, state) == elbo_breakdown(fac, state)
        assert stationarity_residual(bare, state) == stationarity_residual(fac, state)


@pytest.mark.parametrize("call", [elbo, elbo_breakdown, stationarity_residual])
def test_state_functions_reject_a_state_on_another_inducing_set(kernel, call):
    # elbos is covered by test_batched_probes
    data, ind = stationarity_instance(kernel)
    fac = nystrom_factor(kernel, data, ind, 0.3)
    state = optimal_parameters(nystrom_factor(kernel, data, make_inducing(kernel, ind.points),
                                              0.3))
    with pytest.raises(InvalidParameter, match="^a state is not on the factor's inducing set"):
        call(fac, state)
