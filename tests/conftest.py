import numpy as np
import pytest

from sparsegp import linalg
from sparsegp.data import Dataset
from sparsegp.kernels import GaussianKernel


@pytest.fixture
def kernel():
    return GaussianKernel(lengthscale=1.0)


def _random_dataset(n, seed, d=1):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-3, 3, size=(n, d))
    y = rng.standard_normal(n)
    y *= min(1.0, 10.0 / np.linalg.norm(y))
    return Dataset(X, y)


@pytest.fixture
def random_dataset():
    """random_dataset(n, seed, d=1): X ~ U[-3, 3]^(n x d) and standard
    normal targets scaled to norm at most 10, from one seeded generator."""
    return _random_dataset


@pytest.fixture
def dense_elbo():
    """The ELBO of raw (mu, Sigma) by the textbook dense formula, an
    independent reference for `svgp.elbo`: the expected Gaussian
    log-likelihood under q(f_X), whose mean is k_XZ k_ZZ^{-1} mu and
    whose variances are diag(k_XX - q_XX + k_XZ k_ZZ^{-1} Sigma k_ZZ^{-1} k_ZX),
    minus KL(N(mu, Sigma) || N(0, k_ZZ)), with np.linalg.solve and slogdet
    on k_ZZ and Sigma."""

    def value(state, data, noise_var):
        ind, X, y = state.inducing, data.inputs, data.targets
        mu, sigma = state.mu, state.sigma
        Kzz = ind.kernel.gram(ind.points)
        P = np.linalg.solve(Kzz, ind.kernel.gram(ind.points, X))  # k_ZZ^{-1} k_ZX
        var = ind.kernel.diag(X) - np.sum(P * (Kzz @ P), axis=0) + np.sum(P * (sigma @ P), axis=0)
        resid = y - P.T @ mu
        loglik = (-0.5 * data.n * np.log(2 * np.pi * noise_var)
                  - (resid @ resid + np.sum(var)) / (2 * noise_var))
        kl = 0.5 * (np.trace(np.linalg.solve(Kzz, sigma)) + mu @ np.linalg.solve(Kzz, mu)
                    - state.m + np.linalg.slogdet(Kzz)[1] - np.linalg.slogdet(sigma)[1])
        return float(loglik - kl)

    return value


@pytest.fixture
def symmetric_copies(monkeypatch):
    """The shapes of the matrices linalg copies as (A + A.T)/2, where it
    cannot read one in place; a run that factors only exactly symmetric,
    writeable matrices leaves the list empty."""
    shapes = []
    copy = linalg._symmetric_copy

    def counting_copy(A):
        shapes.append(np.shape(A))
        return copy(A)

    monkeypatch.setattr(linalg, "_symmetric_copy", counting_copy)
    return shapes
