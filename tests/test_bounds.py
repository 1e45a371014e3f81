import tracemalloc

import numpy as np
import pytest

from sparsegp.bounds import (BoundRecord, SparseProblem, burt_upper_bound,
                             derivative_gap_bounds, excess_risk_upper_bound,
                             expected_excess_risk_lower_bound, expected_kl_sandwich,
                             quadratic_form_gap_bound, rkhs_distance_bound,
                             rkhs_distance_sq, worst_case_decompositions)
from sparsegp.data import Dataset
from sparsegp import bounds
from sparsegp.errors import InternalInconsistency, UnsupportedKernel
from sparsegp.exact import fit_krr
from sparsegp.kernels import GaussianKernel, PolynomialKernel
from sparsegp.linalg import logdet, noise_factor, solve
from sparsegp.nystrom import fit_nystrom, make_inducing, q_gram, select_inducing, trace_gap


@pytest.fixture
def kernel():
    return GaussianKernel(lengthscale=1.0)


def random_dataset(n, seed, d=1):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-3, 3, size=(n, d))
    y = rng.standard_normal(n)
    y *= min(1.0, 10.0 / np.linalg.norm(y))
    return Dataset(X, y)


def random_inducing(kernel, m, seed):
    rng = np.random.default_rng(seed)
    return make_inducing(kernel, rng.uniform(-3, 3, size=(m, kernel.input_dim)))


def test_bound_record_slack_and_holds():
    assert BoundRecord(1.0, 2.0).slack == 1.0
    assert BoundRecord(1.0, 2.0).holds
    assert BoundRecord(2.0, 1.0).slack == -1.0
    assert not BoundRecord(2.0, 1.0).holds
    # tiny negative slack within rounding still counts as holding
    assert BoundRecord(1.0 + 1e-12, 1.0).holds


def test_gap_diagnostics_orderings(kernel):
    data = random_dataset(25, 0)
    ind = random_inducing(kernel, 4, 1)
    prob = SparseProblem(kernel, data, ind, 0.3)
    G = prob.kxx - q_gram(prob.ind, prob.data.inputs)
    q_factor = noise_factor(q_gram(prob.ind, prob.data.inputs), prob.noise_var)
    t = float(np.trace(G))
    assert t >= prob.explicit_q.opnorm >= 0
    assert logdet(prob.k_factor) >= logdet(q_factor)
    # the kept log-det gap and trace are the explicit sums, bit for bit
    assert prob.logdet_gap == logdet(prob.k_factor) - logdet(q_factor)
    assert -prob.logdet_gap == logdet(q_factor) - logdet(prob.k_factor)
    assert prob.explicit_q.trace == float(np.trace(G))
    assert t == pytest.approx(trace_gap(ind, data.inputs), rel=1e-10)
    assert prob.nystrom.trace_gap == pytest.approx(t, rel=1e-10)


def test_kl_zero_when_inducing_covers_data(kernel):
    data = random_dataset(12, 2)
    ind = make_inducing(kernel, data.inputs)
    assert SparseProblem(kernel, data, ind, 0.3).kl == pytest.approx(0.0, abs=1e-8)


def test_kl_nonnegative_and_matches_explicit_formula(kernel):
    data = random_dataset(20, 3)
    ind = random_inducing(kernel, 4, 4)
    s2 = 0.3
    kl = SparseProblem(kernel, data, ind, s2).kl
    assert kl >= -1e-10
    n, y = data.n, data.targets
    Ck = kernel.gram(data.inputs) + s2 * np.eye(n)
    Cq = q_gram(ind, data.inputs) + s2 * np.eye(n)
    explicit = 0.5 * (np.linalg.slogdet(Cq)[1] - np.linalg.slogdet(Ck)[1]
                      + y @ np.linalg.solve(Cq, y) - y @ np.linalg.solve(Ck, y)
                      + trace_gap(ind, data.inputs) / s2)
    assert kl == pytest.approx(explicit, rel=1e-8, abs=1e-10)


def test_burt_bound_holds_and_intermediate_is_tighter(kernel):
    data = random_dataset(30, 5)
    ind = random_inducing(kernel, 5, 6)
    loose, tight = burt_upper_bound(SparseProblem(kernel, data, ind, 0.3))
    assert loose.holds and tight.holds
    assert loose.lhs == tight.lhs
    assert tight.rhs <= loose.rhs + 1e-12
    assert loose.lhs == pytest.approx(
        2 * SparseProblem(kernel, data, ind, 0.3).kl, rel=1e-10)


def test_quadratic_form_gap_bound(kernel):
    data = random_dataset(25, 7)
    ind = random_inducing(kernel, 4, 8)
    s2 = 0.4
    rec = quadratic_form_gap_bound(SparseProblem(kernel, data, ind, s2))
    assert rec.holds
    assert rec.lhs >= -1e-10
    n, y = data.n, data.targets
    Ck = kernel.gram(data.inputs) + s2 * np.eye(n)
    Cq = q_gram(ind, data.inputs) + s2 * np.eye(n)
    direct = y @ np.linalg.solve(Cq, y) - y @ np.linalg.solve(Ck, y)
    assert rec.lhs == pytest.approx(direct, rel=1e-8)


def test_excess_risk_nonnegative_and_zero_at_full_cover(kernel):
    data = random_dataset(15, 9)
    lam = 0.02
    assert SparseProblem(kernel, data, make_inducing(kernel, data.inputs),
                         data.n * lam).excess_risk == pytest.approx(0.0, abs=1e-10)
    ind = random_inducing(kernel, 3, 10)
    assert SparseProblem(kernel, data, ind, data.n * lam).excess_risk >= -1e-10


def test_excess_risk_quadratic_form_identity(kernel):
    # n * (risk gap) = s2 * (quadratic-form gap) with s2 = n * ridge
    data = random_dataset(20, 11)
    lam = 0.02
    s2 = data.n * lam
    ind = random_inducing(kernel, 4, 12)
    n, y = data.n, data.targets
    Ck = kernel.gram(data.inputs) + s2 * np.eye(n)
    Cq = q_gram(ind, data.inputs) + s2 * np.eye(n)
    quad_diff = y @ np.linalg.solve(Cq, y) - y @ np.linalg.solve(Ck, y)
    assert n * SparseProblem(kernel, data, ind, s2).excess_risk == pytest.approx(
        s2 * quad_diff, rel=1e-8, abs=1e-12)


def test_excess_risk_upper_bounds_hold(kernel):
    data = random_dataset(30, 13)
    ind = random_inducing(kernel, 5, 14)
    assert excess_risk_upper_bound(SparseProblem(kernel, data, ind, data.n * 0.01)).holds


def test_rkhs_distance_sq_zero_at_full_cover(kernel):
    data = random_dataset(12, 15)
    ind = make_inducing(kernel, data.inputs)
    assert rkhs_distance_sq(SparseProblem(kernel, data, ind, data.n * 0.05)) == pytest.approx(0.0, abs=1e-8)


def test_rkhs_distance_controls_pointwise_gap(kernel):
    # |f_exact(x) - f_sparse(x)|^2 <= ||f_exact - f_sparse||^2 k(x, x)
    data = random_dataset(20, 16)
    lam = 0.05
    ind = random_inducing(kernel, 4, 17)
    dist_sq = rkhs_distance_sq(SparseProblem(kernel, data, ind, data.n * lam))
    assert dist_sq >= -1e-12
    exact = fit_krr(kernel, data, lam)
    sparse = fit_nystrom(kernel, data, ind, lam)
    xs = np.linspace(-3, 3, 25)
    gap = exact.predict_many(xs) - sparse.predict_many(xs)
    assert np.all(gap**2 <= dist_sq * kernel.diag(xs) + 1e-10)


def test_rkhs_distance_bound_holds(kernel):
    data = random_dataset(30, 18)
    ind = random_inducing(kernel, 5, 19)
    assert rkhs_distance_bound(SparseProblem(kernel, data, ind, data.n * 0.02)).holds


def test_derivative_gap_bound_holds(kernel):
    data = random_dataset(25, 20)
    ind = random_inducing(kernel, 5, 21)
    [lhs], [rhs] = derivative_gap_bounds(SparseProblem(kernel, data, ind, 0.3), [0.7], [0])
    assert lhs <= rhs + 1e-4 * max(1.0, abs(rhs))


def test_derivative_gap_bound_rejects_polynomial():
    data = random_dataset(10, 22)
    poly = PolynomialKernel(degree=2, offset=1.0)
    ind = make_inducing(poly, data.inputs[:3])
    with pytest.raises(UnsupportedKernel):
        derivative_gap_bounds(SparseProblem(poly, data, ind, 0.3), [0.0], [0])


def test_worst_case_decomposition_residual(kernel):
    data = random_dataset(20, 23)
    ind = random_inducing(kernel, 4, 24)
    prob = SparseProblem(kernel, data, ind, 0.3)
    total, split = worst_case_decompositions(prob, np.linspace(-2.9, 2.9, 11))
    assert np.all(np.abs(total - split) <= 1e-8)
    total, split = worst_case_decompositions(prob, 1.23)
    assert total[0] == pytest.approx(split[0], rel=1e-10)


def test_expected_kl_sandwich_brackets_monte_carlo(kernel):
    rng = np.random.default_rng(27)
    X = rng.uniform(-3, 3, size=(30, 1))
    data = Dataset(X, np.zeros(30))
    ind = select_inducing(kernel, data, 5)
    mc, stderr, low, high = expected_kl_sandwich(
        SparseProblem(kernel, data, ind, 0.3, mc_samples=2000, mc_seed=1))
    assert 0 <= low <= high
    # the analytic sandwich must intersect the Monte-Carlo interval
    assert low <= mc + 3 * stderr + 1e-12
    assert mc - 3 * stderr <= high + 1e-12
    assert stderr > 0


def test_expected_kl_sandwich_rejects_negative_trace_gap(kernel, monkeypatch):
    # q_XX above k_XX makes t < 0, which would invert the band [t/2s2, t/s2]
    monkeypatch.setattr(bounds, "q_gram",
                        lambda ind, X: kernel.gram(X) + 0.1 * np.eye(len(X)))
    rng = np.random.default_rng(28)
    X = rng.uniform(-3, 3, size=(20, 1))
    ind = make_inducing(kernel, X[:3])
    with pytest.raises(InternalInconsistency, match="trace gap t = .*reduce m"):
        expected_kl_sandwich(SparseProblem(kernel, Dataset(X, np.zeros(20)), ind, 0.3,
                                           mc_samples=200))


def test_expected_kl_sandwich_rejects_tiny_sample(kernel):
    rng = np.random.default_rng(28)
    X = rng.uniform(-3, 3, size=(10, 1))
    ind = make_inducing(kernel, X[:3])
    with pytest.raises(ValueError):
        SparseProblem(kernel, Dataset(X, np.zeros(10)), ind, 0.3, mc_samples=10)


def test_expected_excess_risk_lower_bound_holds(kernel):
    rng = np.random.default_rng(29)
    X = rng.uniform(-3, 3, size=(30, 1))
    data = Dataset(X, np.zeros(30))
    ind = select_inducing(kernel, data, 5)
    rec, stderr = expected_excess_risk_lower_bound(
        SparseProblem(kernel, data, ind, data.n * 0.01, mc_samples=2000, mc_seed=2))
    assert rec.lhs <= rec.rhs + 3 * stderr


def test_expected_kl_mc_is_seeded(kernel):
    rng = np.random.default_rng(30)
    X = rng.uniform(-3, 3, size=(15, 1))
    ind = make_inducing(kernel, X[:4])
    # two problems, so the second estimate does not read the first's kept sample
    a, b = (expected_kl_sandwich(SparseProblem(kernel, Dataset(X, np.zeros(15)), ind, 0.3,
                                               mc_samples=500, mc_seed=9))
            for _ in range(2))
    assert a == b


def test_both_expected_value_bounds_read_one_sample(kernel):
    # On one sample, mc_KL - t/(2 s2) = (n/2) (mc_excess - lhs_excess): the
    # per-draw KL and excess risk differ by the draw-free log-det ratio.
    rng = np.random.default_rng(31)
    data = Dataset(rng.uniform(-3, 3, size=(40, 1)), np.zeros(40))
    prob = SparseProblem(kernel, data, select_inducing(kernel, data, 6), 0.2,
                         mc_samples=1000, mc_seed=3)
    assert prob.at_ridge(prob.ridge) is prob
    mc_kl, _, low, _ = expected_kl_sandwich(prob)
    rec, _ = expected_excess_risk_lower_bound(prob)
    gap = mc_kl - low - 0.5 * prob.n * (rec.rhs - rec.lhs)
    assert abs(gap) <= 1e-12 * max(1.0, abs(mc_kl))


def _sample_problem(kernel, n, mc_samples, seed=32):
    rng = np.random.default_rng(seed)
    data = Dataset(rng.uniform(-3, 3, size=(n, 1)), np.zeros(n))
    return SparseProblem(kernel, data, select_inducing(kernel, data, 8), 0.1,
                         mc_samples=mc_samples, mc_seed=seed + 1)


def test_monte_carlo_sample_matches_the_whole_sample_reference(kernel):
    # The draws are the rows of one (S, n) standard-normal array; the q side
    # agrees with the explicit n x n factor of q_XX + s2 I.
    prob = _sample_problem(kernel, 30, 700)
    quad_k, quad_q = prob.mc_quadratic_forms
    z = np.random.default_rng(prob.mc_seed).standard_normal((700, 30))
    assert np.array_equal(quad_k, np.einsum("ij,ij->i", z, z))
    Y = prob.k_factor.lower @ z.T
    q_factor = noise_factor(q_gram(prob.ind, prob.data.inputs), prob.noise_var)
    reference = np.einsum("ij,ij->j", Y, solve(q_factor, Y))
    assert np.max(np.abs(quad_q - reference) / reference) <= 1e-12


def test_monte_carlo_sample_does_not_depend_on_the_block_width(kernel, monkeypatch):
    forms = []
    for width in (7, 300):
        monkeypatch.setattr(bounds, "_MC_BLOCK", width)
        forms.append(_sample_problem(kernel, 30, 701).mc_quadratic_forms)
    (k7, q7), (k300, q300) = forms
    assert np.array_equal(k7, k300)
    assert np.max(np.abs(q7 - q300) / q300) <= 1e-12


@pytest.mark.parametrize("n, mc_samples, buffers", [(400, 2000, 1.0), (100, 20000, 0.25)])
def test_monte_carlo_sample_is_reduced_in_bounded_memory(kernel, n, mc_samples, buffers):
    # Only a few n x _MC_BLOCK arrays are alive at once, not n x S ones; the
    # factors the sample reads are built before tracing starts.
    prob = _sample_problem(kernel, n, mc_samples)
    prob.k_factor, prob.nystrom
    tracemalloc.start()
    try:
        prob.mc_quadratic_forms
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (n * mc_samples * 8) < buffers
