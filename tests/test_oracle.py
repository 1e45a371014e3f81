"""A 50-digit reference for the Nystrom ridge fit.

The float64 Grams of an ill-conditioned instance are solved again by
mpmath at mp.dps = 50, through the normal equations: at that precision
squaring cond(k_ZZ) costs nothing, so the reference is exact to far below
the float64 fit's error.
"""

import mpmath
import numpy as np

from sparsegp.harness import ExperimentConfig, make_problem
from sparsegp.nystrom import fit_nystrom


def test_ridge_fit_matches_a_50_digit_solve_of_the_same_problem():
    # n=60, m=30, s2=1e-4: greedy selection factors k_ZZ without jitter, so
    # the float64 Grams below are the problem fit_nystrom solves
    prob, _, grid = make_problem(ExperimentConfig(n=60, m=30, noise_var=1e-4))
    kernel, data, ind = prob.kernel, prob.data, prob.ind
    assert ind.kzz_factor.jitter_used == 0.0
    kxz, kzz = kernel.gram(data.inputs, ind.points), kernel.gram(ind.points)
    with mpmath.workdps(50):
        K = mpmath.matrix(kxz.tolist())
        normal = data.n * mpmath.mpf(prob.ridge) * mpmath.matrix(kzz.tolist()) + K.T * K
        beta = mpmath.lu_solve(normal, K.T * mpmath.matrix(data.targets.tolist()))
        at_grid = mpmath.matrix(kernel.gram(grid, ind.points).tolist()) * beta
        reference = np.array([float(v) for v in at_grid])
    fit = fit_nystrom(kernel, data, ind, prob.ridge)
    assert np.max(np.abs(fit.predict_many(grid) - reference)) <= 1e-10
