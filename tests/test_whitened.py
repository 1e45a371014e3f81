"""The whitened Nystrom closed forms on ill-conditioned instances of
`run_verification`, where the raw k_ZZ + s2^{-1} k_ZX k_XZ system loses
the answer."""

import numpy as np
import pytest

from sparsegp import linalg, svgp
from sparsegp.harness import ExperimentConfig, make_problem
from sparsegp.nystrom import nystrom_factor
from sparsegp.svgp import elbo, elbo_breakdown, optimal_parameters


def test_posterior_means_match_q_route_at_small_noise():
    config = ExperimentConfig(n=60, m=30, noise_var=1e-4)
    prob, _, grid = make_problem(config)  # grid: run_verification's 50 points
    kernel, data, ind, s2 = prob.kernel, prob.data, prob.ind, prob.noise_var
    reference = prob.ridge_fit_via_q.predict_many(grid)  # KRR with q at ridge s2 / n
    mean = nystrom_factor(kernel, data, ind, s2).mean.predict_many(grid)
    np.testing.assert_allclose(mean, reference, rtol=0, atol=1e-8)


def test_optimal_state_exists_and_elbo_closes_at_n800():
    # the four-term expansion at the optimum against -2 s2 times the
    # factor's determinant-lemma ELBO
    config = ExperimentConfig(n=800, m=40, seed=7)
    prob, _, _ = make_problem(config)
    kernel, data, ind, s2 = prob.kernel, prob.data, prob.ind, prob.noise_var
    fac = nystrom_factor(kernel, data, ind, s2)
    closed = -2 * s2 * fac.elbo
    total = elbo_breakdown(fac, optimal_parameters(fac)).term_sum()
    assert abs(total - closed) <= 1e-8 * max(1.0, abs(closed))


def test_optimal_parameters_factors_nothing(monkeypatch):
    # the optimum is read from the built factor: no Cholesky runs
    prob, _, _ = make_problem(ExperimentConfig(n=100, m=10))
    fac = prob.nystrom

    def refuse(*args, **kwargs):
        raise AssertionError("optimal_parameters ran a Cholesky factor")

    monkeypatch.setattr(svgp, "factor_spd", refuse)
    monkeypatch.setattr(linalg, "factor_spd", refuse)
    monkeypatch.setattr(np.linalg, "cholesky", refuse)
    state = optimal_parameters(fac)
    monkeypatch.undo()
    assert state.inducing is fac.inducing
    np.testing.assert_array_equal(state.u, fac.u)
    np.testing.assert_allclose(state.R @ state.R.T @ fac.b_factor.lower @ fac.b_factor.lower.T,
                               np.eye(10), rtol=0, atol=1e-10)


@pytest.mark.parametrize("over", [
    dict(n=400, m=24),
    dict(n=800, m=40),
    dict(n=60, m=30, noise_var=1e-4),
    dict(select="uniform", n=800, m=40),
    dict(n=2000, m=60),
    dict(kernel_family="polynomial", m=5),
], ids=["n400", "n800", "noise1e-4", "uniform800", "n2000", "polynomial"])
def test_elbo_at_the_optimum_is_the_closed_form(over):
    # The ELBO of (mu*, Sigma*), evaluated on the Nystrom features, meets
    # the factor's determinant-lemma form to 1e-12 relative, even where
    # cond(k_ZZ) reaches 1e16.
    prob, _, _ = make_problem(ExperimentConfig(**over))
    closed = prob.nystrom.elbo
    gap = abs(elbo(prob.nystrom, prob.optimal_state) - closed)
    assert gap <= 1e-12 * abs(closed)
