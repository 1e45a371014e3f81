import numpy as np
import pytest
import scipy.stats

from sparsegp.data import Dataset
from sparsegp.exact import log_marginal_likelihood
from sparsegp.kernels import GaussianKernel
from sparsegp.nystrom import fit_nystrom, make_inducing, nystrom_factor, q_diag, q_gram
from sparsegp.svgp import (elbo, elbo_breakdown, feature_map_phi,
                           fixed_point_solver, make_state,
                           mu_stationarity_residual, optimal_elbo,
                           optimal_parameters, psi_forward, psi_inverse)


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


def variational_mean(state, X):
    """m^nu(X) = k_XZ psi(mu): the interpolant of mu at Z, one value per row."""
    ind = state.inducing
    return ind.kernel.gram(X, ind.points) @ psi_forward(ind, state.mu)


def variational_var(state, X):
    """k^nu(x, x) = k(x, x) - q(x, x) + ||phi(x)||^2 at each row of X."""
    ind = state.inducing
    phi = np.array([feature_map_phi(state, x) for x in X])
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
    phi = np.array([feature_map_phi(state, z) for z in Z])
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
    for x, x2 in [(0.0, 0.0), (0.5, -1.0), (2.0, 2.0)]:
        inner = float(feature_map_phi(state, x) @ feature_map_phi(state, x2))
        a = np.linalg.solve(Kzz, kernel.gram(Z, np.atleast_2d(x))[:, 0])
        b = np.linalg.solve(Kzz, kernel.gram(Z, np.atleast_2d(x2))[:, 0])
        # a second solve path: relative agreement, the values reach ~1e4 here
        assert inner == pytest.approx(a @ state.sigma @ b, rel=1e-10, abs=1e-8)


def test_elbo_at_most_evidence(kernel):
    data = random_dataset(20, 7)
    s2 = 0.3
    evidence = log_marginal_likelihood(kernel, data, s2)
    for seed in range(5):
        state = random_state(kernel, 4, 100 + seed)
        assert elbo(state, data, s2) <= evidence + 1e-10


def test_elbo_equals_evidence_when_inducing_covers_data(kernel):
    data = random_dataset(10, 8)
    s2 = 0.4
    ind = make_inducing(kernel, data.inputs)
    state = optimal_parameters(kernel, data, ind, s2)
    assert elbo(state, data, s2) == pytest.approx(
        log_marginal_likelihood(kernel, data, s2), abs=1e-8)


def test_elbo_breakdown_terms_sum(kernel):
    data = random_dataset(15, 9)
    s2 = 0.25
    for seed in range(5):
        state = random_state(kernel, 4, 200 + seed)
        br = elbo_breakdown(state, data, s2)
        assert br.term_sum() == pytest.approx(br.total_check, rel=1e-10)
        assert br.total_check == pytest.approx(-2 * s2 * elbo(state, data, s2),
                                               rel=1e-10)


def test_elbo_breakdown_signs(kernel):
    data = random_dataset(15, 10)
    s2 = 0.25
    state = random_state(kernel, 4, 11)
    br = elbo_breakdown(state, data, s2)
    assert br.fit_plus_norm >= 0
    assert br.sigma_quadratic >= 0
    assert br.kl_regularizer >= -1e-10
    assert br.residual_trace >= -1e-10


def test_elbo_breakdown_kl_matches_gaussian_formula(kernel):
    state = random_state(kernel, 4, 12)
    data = random_dataset(10, 13)
    s2 = 0.3
    br = elbo_breakdown(state, data, s2)
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
    star = optimal_parameters(kernel, data, ind, s2)
    best = elbo(star, data, s2)
    assert best == pytest.approx(optimal_elbo(kernel, data, ind, s2), rel=1e-10)
    for seed in range(20):
        r = np.random.default_rng(300 + seed)
        mu = star.mu + 0.1 * r.standard_normal(4)
        A = 0.05 * r.standard_normal((4, 4))
        sigma = star.sigma + A @ A.T
        assert elbo(make_state(ind, mu, sigma), data, s2) <= best + 1e-10


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
    assert optimal_elbo(kernel, data, ind, s2) == pytest.approx(
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
        gap = kernel(x, x) - q_gram(ind, np.atleast_2d(x))[0, 0]
        assert v_opt == pytest.approx(v_dtc + gap, abs=1e-8)


def test_optimal_mean_matches_sparse_ridge(kernel):
    data = random_dataset(20, 20)
    s2 = 0.4
    rng = np.random.default_rng(21)
    ind = make_inducing(kernel, rng.uniform(-3, 3, size=(4, 1)))
    star = optimal_parameters(kernel, data, ind, s2)
    model = fit_nystrom(kernel, data, ind, s2 / data.n)
    assert np.allclose(psi_forward(ind, star.mu), model.beta, atol=1e-8)


def test_fixed_point_solver_recovers_optimum(kernel):
    data = random_dataset(20, 22)
    s2 = 0.3
    rng = np.random.default_rng(23)
    ind = make_inducing(kernel, rng.uniform(-3, 3, size=(4, 1)))
    star = optimal_parameters(kernel, data, ind, s2)
    solved = fixed_point_solver(kernel, data, ind, s2)
    assert np.allclose(solved.mu, star.mu, atol=1e-6)
    assert np.allclose(solved.sigma, star.sigma, atol=1e-6)


def test_mu_stationarity_residual_vanishes_at_optimum(kernel):
    data = random_dataset(15, 26)
    s2 = 0.3
    rng = np.random.default_rng(27)
    ind = make_inducing(kernel, rng.uniform(-3, 3, size=(4, 1)))
    star = optimal_parameters(kernel, data, ind, s2)
    assert mu_stationarity_residual(kernel, data, star, s2) <= 1e-8
    shifted = make_state(ind, star.mu + 1.0, star.sigma)
    assert mu_stationarity_residual(kernel, data, shifted, s2) > 1e-4
