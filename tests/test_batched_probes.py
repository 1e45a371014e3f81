"""The batched probe evaluations agree with their one-point or dense
references: the posterior variances, the ELBO of many states, the
derivative bound and the worst-case decomposition."""

import numpy as np
import pytest

from sparsegp.bounds import (SparseProblem, derivative_gap_bounds,
                             training_collisions, worst_case_decompositions)
from sparsegp.data import Dataset
from sparsegp.errors import DimensionMismatch, InvalidParameter
from sparsegp.kernels import GaussianKernel, PolynomialKernel
from sparsegp.linalg import factor_spd
from sparsegp.nystrom import make_inducing, nystrom_factor, q_gram, select_inducing
from sparsegp.svgp import elbo, elbos, make_state


def instance(kernel, n=40, m=6, seed=0, d=1):
    rng = np.random.default_rng(seed)
    data = Dataset(rng.uniform(-3, 3, size=(n, d)), rng.standard_normal(n))
    return data, select_inducing(kernel, data, m), rng


def dense_q_posterior_var(ind, data, noise_var, x):
    """q(x, x) - q_xX (q_XX + s2 I)^{-1} q_Xx, from the n x n q Gram."""
    x = np.atleast_2d(x)
    q_xX = q_gram(ind, x, data.inputs)[0]
    C = q_gram(ind, data.inputs) + noise_var * np.eye(data.n)
    return q_gram(ind, x)[0, 0] - q_xX @ np.linalg.solve(C, q_xX)


@pytest.mark.parametrize("kernel", [GaussianKernel(lengthscale=1.0),
                                    PolynomialKernel(degree=2, offset=1.0)],
                         ids=["gaussian", "polynomial"])
def test_batched_variances_match_pointwise_covariances(kernel):
    data, ind, rng = instance(kernel, m=3 if isinstance(kernel, PolynomialKernel) else 6)
    fac = nystrom_factor(kernel, data, ind, 0.2)
    X = rng.uniform(-3.5, 3.5, size=(50, 1))
    opt, dtc = fac.optimal_var(X), fac.dtc_var(X)
    assert opt.shape == dtc.shape == (50,)
    for i, x in enumerate(X):
        ref = dense_q_posterior_var(ind, data, 0.2, x)
        assert dtc[i] == pytest.approx(ref, abs=1e-8)
        # the optimal posterior adds back the k - q residual
        gap = kernel.gram(x[None, :])[0, 0] - q_gram(ind, x[None, :])[0, 0]
        assert opt[i] == pytest.approx(gap + ref, abs=1e-8)


def test_elbos_equal_one_state_elbos():
    kernel = GaussianKernel(lengthscale=1.0)
    data, ind, rng = instance(kernel)
    states = []
    for _ in range(5):
        A = rng.standard_normal((ind.m, ind.m))
        states.append(make_state(ind, rng.standard_normal(ind.m), A @ A.T + 0.1 * np.eye(ind.m)))
    fac = nystrom_factor(kernel, data, ind, 0.2)
    assert elbos(fac, states).tolist() == [elbo(fac, s) for s in states]


def test_elbos_reject_states_on_different_inducing_sets():
    kernel = GaussianKernel(lengthscale=1.0)
    data, ind, _ = instance(kernel)
    other = make_inducing(kernel, ind.points)
    states = [make_state(i, np.zeros(i.m), np.eye(i.m)) for i in (ind, other)]
    fac = nystrom_factor(kernel, data, ind, 0.2)
    with pytest.raises(InvalidParameter, match="^a state is not on the factor's inducing set; "
                       "build the factor on the states' inducing set$"):
        elbos(fac, states)


@pytest.mark.parametrize("d", [1, 2])
def test_derivative_gap_bounds_match_one_point_bound(d):
    kernel = GaussianKernel(lengthscale=1.0, input_dim=d)
    data, ind, rng = instance(kernel, d=d)
    prob = SparseProblem(kernel, data, ind, 0.3)
    X = rng.uniform(-3, 3, size=(7, d))
    js = rng.integers(d, size=7)
    lhs, rhs = derivative_gap_bounds(prob, X, js)
    for i in range(7):
        [lhs_i], [rhs_i] = derivative_gap_bounds(prob, X[i:i + 1], js[i:i + 1])
        assert lhs[i] == pytest.approx(lhs_i, rel=1e-8, abs=1e-14)
        assert rhs[i] == rhs_i
    with pytest.raises(DimensionMismatch):
        derivative_gap_bounds(prob, X, js[:3])


def test_worst_case_decompositions_match_dense_q_posterior():
    kernel = GaussianKernel(lengthscale=1.0)
    data, ind, rng = instance(kernel)
    prob = SparseProblem(kernel, data, ind, 0.3)
    X = np.vstack([rng.uniform(-3.5, 3.5, size=(9, 1)), data.inputs[:2]])
    total, split = worst_case_decompositions(prob, X)
    assert training_collisions(prob, X).tolist() == [False] * 9 + [True] * 2
    assert np.all(np.isnan(total[9:])) and np.all(np.isnan(split[9:]))
    for i in range(9):
        x = X[i]
        # k*(x, x) + s2 = (k - q)(x, x) + DTC variance + s2
        ref = (kernel.gram(x[None, :])[0, 0] - q_gram(ind, x[None, :])[0, 0]
               + dense_q_posterior_var(ind, data, 0.3, x) + 0.3)
        assert total[i] == pytest.approx(ref, abs=1e-8)
        assert split[i] == pytest.approx(ref, abs=1e-8)
    assert np.all(np.abs(total[:9] - split[:9]) <= 1e-8)


def test_worst_case_residuals_skip_every_training_input():
    kernel = GaussianKernel(lengthscale=1.0)
    data, ind, _ = instance(kernel, n=15, m=4)
    prob = SparseProblem(kernel, data, ind, 0.3)
    assert np.all(training_collisions(prob, data.inputs))
    total, split = worst_case_decompositions(prob, data.inputs)
    assert np.all(np.isnan(np.abs(total - split)))


@pytest.mark.parametrize("n", [1, 7, 64, 300])
def test_factor_spd_is_bit_identical_to_numpy_cholesky(n):
    rng = np.random.default_rng(n)
    A = rng.standard_normal((n, n))
    A = A @ A.T + n * np.eye(n)
    F = factor_spd(A, jitter_ladder=[0.0])
    assert np.array_equal(F.lower, np.linalg.cholesky(A))
    # A jittered rung factors A + jitter I, also bit for bit.
    v = rng.standard_normal(n)
    F = factor_spd(np.outer(v, v), jitter_ladder=[0.0, 1e-6])
    assert F.jitter_used > 0 or n == 1
    shifted = np.outer(v, v) + F.jitter_used * np.eye(n)
    assert np.array_equal(F.lower, np.linalg.cholesky(shifted))
