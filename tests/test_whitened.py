"""The whitened Nystrom closed forms on ill-conditioned instances of
`run_verification`, where the raw k_ZZ + s2^{-1} k_ZX k_XZ system loses
the answer."""

import numpy as np

from sparsegp.data import Dataset, synth_prior_dataset
from sparsegp.harness import ExperimentConfig
from sparsegp.nystrom import dtc_posterior, fit_nystrom_via_q, select_inducing
from sparsegp.svgp import elbo_breakdown, optimal_parameters, optimal_posterior


def verification_instance(config):
    """The kernel, data, inducing set and 50-point grid that
    run_verification builds for `config`."""
    kernel = config.kernel()
    rng = np.random.default_rng(config.seed)
    X = rng.uniform(-3.0, 3.0, size=(config.n, config.d))
    data = synth_prior_dataset(kernel, X, config.noise_var, seed=config.seed + 1)
    scale = float(np.linalg.norm(data.targets))
    if scale > 10.0:
        data = Dataset(data.inputs, data.targets * (10.0 / scale))
    ind = select_inducing(kernel, data, config.m, strategy=config.select,
                          seed=config.seed)
    return kernel, data, ind, rng.uniform(-3.0, 3.0, size=(50, config.d))


def test_posterior_means_match_q_route_at_small_noise():
    config = ExperimentConfig(n=60, m=30, noise_var=1e-4)
    kernel, data, ind, grid = verification_instance(config)
    s2 = config.noise_var
    reference = fit_nystrom_via_q(kernel, data, ind, s2 / data.n).predict_many(grid)
    for posterior in (optimal_posterior, dtc_posterior):
        mean, _ = posterior(kernel, data, ind, s2)
        np.testing.assert_allclose(mean(grid), reference, rtol=0, atol=1e-8)


def test_optimal_state_exists_and_elbo_closes_at_n800():
    config = ExperimentConfig(n=800, m=40, seed=7)
    kernel, data, ind, _ = verification_instance(config)
    s2 = config.noise_var
    state = optimal_parameters(kernel, data, ind, s2)
    bd = elbo_breakdown(state, data, s2)
    assert abs(bd.term_sum() - bd.total_check) <= 1e-8 * max(1.0, abs(bd.total_check))
