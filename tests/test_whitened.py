"""The whitened Nystrom closed forms on ill-conditioned instances of
`run_verification`, where the raw k_ZZ + s2^{-1} k_ZX k_XZ system loses
the answer."""

import numpy as np

from sparsegp.harness import ExperimentConfig, make_problem
from sparsegp.nystrom import fit_nystrom_via_q, nystrom_factor
from sparsegp.svgp import elbo_breakdown, optimal_parameters


def test_posterior_means_match_q_route_at_small_noise():
    config = ExperimentConfig(n=60, m=30, noise_var=1e-4)
    prob, _, rng = make_problem(config)
    kernel, data, ind, s2 = prob.kernel, prob.data, prob.ind, prob.noise_var
    grid = rng.uniform(-3.0, 3.0, size=(50, config.d))  # run_verification's grid
    reference = fit_nystrom_via_q(kernel, data, ind, s2 / data.n).predict_many(grid)
    mean = nystrom_factor(kernel, data, ind, s2).mean(grid)
    np.testing.assert_allclose(mean, reference, rtol=0, atol=1e-8)


def test_optimal_state_exists_and_elbo_closes_at_n800():
    config = ExperimentConfig(n=800, m=40, seed=7)
    prob, _, _ = make_problem(config)
    kernel, data, ind, s2 = prob.kernel, prob.data, prob.ind, prob.noise_var
    state = optimal_parameters(kernel, data, ind, s2)
    bd = elbo_breakdown(state, data, s2)
    assert abs(bd.term_sum() - bd.total_check) <= 1e-8 * max(1.0, abs(bd.total_check))
