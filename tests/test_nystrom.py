import numpy as np
import pytest

from sparsegp.data import Dataset
from sparsegp.bounds import SparseProblem
from sparsegp.data import synth_prior_dataset
from sparsegp.errors import InvalidCount, InvalidParameter
from sparsegp.exact import fit_gpr, fit_krr
from sparsegp.kernels import GaussianKernel, PolynomialKernel
from sparsegp import nystrom
from sparsegp.linalg import lower_solve, noise_factor, upper_solve
from sparsegp.nystrom import (PIVOT_RTOL, fit_nystrom, make_inducing, nystrom_factor,
                              q_diag, q_gram, select_inducing, trace_gap)
from sparsegp.svgp import psi_forward


def test_make_inducing_rejects_duplicates(kernel):
    with pytest.raises(InvalidCount):
        make_inducing(kernel, np.array([[0.0], [0.0]]))


def test_q_interpolates_at_inducing_points(kernel):
    Z = np.array([[-1.0], [0.5], [2.0]])
    ind = make_inducing(kernel, Z)
    # q agrees with k whenever one argument is an inducing point
    X = np.linspace(-3, 3, 7)[:, None]
    np.testing.assert_allclose(q_gram(ind, Z, X), kernel.gram(Z, X), rtol=0, atol=1e-10)
    np.testing.assert_allclose(q_gram(ind, X, Z), kernel.gram(X, Z), rtol=0, atol=1e-10)


def test_q_equals_k_when_inducing_covers_data(kernel):
    X = np.array([[-2.0], [0.0], [1.5]])
    ind = make_inducing(kernel, X)
    Q = q_gram(ind, X)
    assert np.allclose(Q, kernel.gram(X), atol=1e-10)


def test_q_gram_psd_and_dominated(kernel):
    rng = np.random.default_rng(0)
    X = rng.uniform(-3, 3, size=(12, 1))
    ind = make_inducing(kernel, rng.uniform(-3, 3, size=(4, 1)))
    Q = q_gram(ind, X)
    assert np.linalg.eigvalsh(0.5 * (Q + Q.T)).min() >= -1e-10
    # k - q is a positive-semidefinite residual, so its diagonal is nonnegative
    gap = kernel.gram(X) - Q
    assert np.linalg.eigvalsh(0.5 * (gap + gap.T)).min() >= -1e-8


def test_projection_fixes_span_elements(kernel):
    Z = np.array([[-1.0], [0.0], [1.0]])
    ind = make_inducing(kernel, Z)
    coef = np.array([0.5, -1.0, 2.0])

    def f(x):
        return float(coef @ kernel.gram(Z, np.atleast_2d(x))[:, 0])

    # psi_forward gives the coefficients k_ZZ^{-1} f_Z of the projection onto M
    proj_coef = psi_forward(ind, np.array([f(z) for z in Z]))
    for x in np.linspace(-3, 3, 9):
        val = float(proj_coef @ kernel.gram(Z, np.array([[x]]))[:, 0])
        assert val == pytest.approx(f(x), abs=1e-9)


def test_projection_evaluates_via_q(kernel):
    rng = np.random.default_rng(1)
    ind = make_inducing(kernel, rng.uniform(-3, 3, size=(4, 1)))
    # projecting a point evaluator reproduces q: P(k(., x))(x') = q(x, x')
    x = np.array([0.7])
    coef = psi_forward(ind, kernel.gram(ind.points, x[None, :]).ravel())
    x2 = np.array([[-1.2]])
    val = float(coef @ kernel.gram(ind.points, x2)[:, 0])
    assert val == pytest.approx(q_gram(ind, x[None, :], x2)[0, 0], abs=1e-10)


def test_fit_nystrom_routes_agree(kernel, random_dataset):
    # direct m x m system vs kernel-ridge regression under q
    data = random_dataset(30, 2)
    ind = make_inducing(kernel, np.array([[-2.0], [-0.5], [1.0], [2.5]]))
    lam = 0.01
    direct = fit_nystrom(kernel, data, ind, lam)
    via_q = SparseProblem(kernel, data, ind, data.n * lam).ridge_fit_via_q
    assert np.allclose(direct.coef, via_q.coef, atol=1e-8)
    xs = np.linspace(-3, 3, 11)
    assert direct.predict_many(xs) == pytest.approx(via_q.predict_many(xs), abs=1e-8)


def test_fit_nystrom_exact_when_inducing_covers_data(kernel, random_dataset):
    data = random_dataset(10, 3)
    ind = make_inducing(kernel, data.inputs)
    lam = 0.05
    sparse = fit_nystrom(kernel, data, ind, lam)
    full = fit_krr(kernel, data, lam)
    xs = np.linspace(-3, 3, 11)
    assert sparse.predict_many(xs) == pytest.approx(full.predict_many(xs), abs=1e-8)


def test_dtc_matches_exact_when_inducing_covers_data(kernel, random_dataset):
    # with Z = X the mean matches the exact posterior everywhere, and the
    # covariance matches once the k - q residual is added back
    data = random_dataset(10, 4)
    ind = make_inducing(kernel, data.inputs)
    s2 = 0.3
    fac = nystrom_factor(kernel, data, ind, s2)
    exact = fit_gpr(kernel, data, s2)
    xs = np.linspace(-3, 3, 7)
    gaps = kernel.diag(xs) - q_diag(ind, xs)
    assert fac.mean.predict_many(xs) == pytest.approx(exact.mean.predict_many(xs), abs=1e-8)
    assert gaps + fac.dtc_var(xs) == pytest.approx(np.diag(exact.cov(xs)), abs=1e-8)
    # at the inducing points themselves the residual vanishes
    z = data.inputs[:1]
    assert fac.dtc_var(z)[0] == pytest.approx(exact.cov(z)[0, 0], abs=1e-8)


def test_dtc_mean_matches_nystrom_regression(kernel, random_dataset):
    # posterior mean of the sparse GP equals the sparse ridge fit at ridge = s2/n
    data = random_dataset(25, 5)
    ind = make_inducing(kernel, np.array([[-2.0], [0.0], [2.0]]))
    s2 = 0.4
    mean = nystrom_factor(kernel, data, ind, s2).mean
    model = fit_nystrom(kernel, data, ind, s2 / data.n)
    xs = np.linspace(-3, 3, 11)
    assert mean.predict_many(xs) == pytest.approx(model.predict_many(xs), abs=1e-8)


def test_trace_gap_zero_when_inducing_covers_data(kernel):
    X = np.array([[-1.0], [0.0], [2.0]])
    ind = make_inducing(kernel, X)
    assert trace_gap(ind, X) == pytest.approx(0.0, abs=1e-10)


def test_trace_gap_matches_direct_sum(kernel):
    rng = np.random.default_rng(6)
    X = rng.uniform(-3, 3, size=(15, 1))
    ind = make_inducing(kernel, rng.uniform(-3, 3, size=(5, 1)))
    direct = sum(kernel.gram(x[None, :])[0, 0] - q_gram(ind, x[None, :])[0, 0] for x in X)
    assert trace_gap(ind, X) == pytest.approx(direct, rel=1e-10)


def test_trace_gap_decreases_with_more_inducing(kernel, random_dataset):
    data = random_dataset(40, 7)
    gaps = [trace_gap(select_inducing(kernel, data, m), data.inputs)
            for m in (1, 3, 6, 10)]
    assert all(a >= b - 1e-10 for a, b in zip(gaps, gaps[1:]))


def test_select_inducing_greedy_avoids_cluster(kernel):
    # one far point plus a tight cluster: greedy picks one of each, never
    # both clustered points
    X = np.array([[0.0], [10.0], [10.001]])
    data = Dataset(X, np.zeros(3))
    ind = select_inducing(kernel, data, 2, strategy="greedy_trace")
    picked = sorted(ind.points.ravel().tolist())
    assert picked[0] == 0.0
    assert picked[1] in (10.0, 10.001)


def column_major_update(L, pivot, step):
    """The pivot column's correction L[:, :step] L[pivot, :step], by BLAS
    over the column-major n x m factor."""
    return L[:, :step] @ L[pivot, :step]


def einsum_update(L, pivot, step):
    """The same correction summed by einsum, in another order."""
    return np.einsum("ij,j->i", L[:, :step], L[pivot, :step])


def full_gram_greedy(kernel, X, m, update=column_major_update):
    """Reference greedy selection over the full n x n Gram matrix, stopping
    at the same relative floor as select_inducing.

    Returns the chosen indices and whether the rank-exhausted padding
    branch ran.
    """
    n = X.shape[0]
    K = kernel.gram(X)
    resid = np.diag(K).copy()
    floor = PIVOT_RTOL * np.max(resid)
    L = np.zeros((n, m))
    idx = []
    for step in range(m):
        pivot = int(np.argmax(resid))
        if resid[pivot] <= floor:
            remaining = [i for i in range(n) if i not in idx]
            idx.extend(remaining[: m - step])
            return np.array(idx[:m]), True
        idx.append(pivot)
        col = (K[:, pivot] - update(L, pivot, step)) / np.sqrt(resid[pivot])
        L[:, step] = col
        resid = resid - col**2
        resid[pivot] = -np.inf
    return np.array(idx), False


def selected_indices(data, ind):
    """The row of data.inputs that each inducing point is."""
    return np.array([int(np.flatnonzero((data.inputs == z).all(axis=1))[0])
                     for z in ind.points])


@pytest.mark.parametrize("seed", range(5))
def test_select_inducing_greedy_matches_full_gram_reference(kernel, random_dataset, seed):
    data = random_dataset(80, 30 + seed)
    ref, padded = full_gram_greedy(kernel, data.inputs, 12)
    assert not padded
    ind = select_inducing(kernel, data, 12, strategy="greedy_trace")
    assert np.array_equal(ind.points, data.inputs[ref])


def test_select_inducing_greedy_pads_past_rank_like_reference(random_dataset):
    # (x x' + 1)^2 in d=1 has rank 3, so asking for 5 points exhausts the
    # residual and pads with the lowest unchosen indices
    kernel = PolynomialKernel(degree=2, offset=1.0)
    data = random_dataset(10, 1)
    ref, padded = full_gram_greedy(kernel, data.inputs, 5)
    assert padded
    ind = select_inducing(kernel, data, 5, strategy="greedy_trace")
    assert np.array_equal(ind.points, data.inputs[ref])


@pytest.mark.parametrize("seed", range(6))
def test_select_inducing_takes_no_pivot_past_the_numerical_rank(seed):
    # (x x' + 1)^2 in d=1 has rank 3: after three pivots every residual is
    # round-off (a few 1e-15 at most, with k(x,x) up to 100), and none of it
    # may be taken as a fourth pivot
    kernel = PolynomialKernel(degree=2, offset=1.0)
    X = np.random.default_rng(seed).uniform(-3, 3, size=(20, 1))
    data = Dataset(X, np.zeros(20))
    idx = selected_indices(data, select_inducing(kernel, data, 5, strategy="greedy_trace"))
    pivots, padding = idx[:3], idx[3:]
    assert np.array_equal(padding, np.setdiff1d(np.arange(20), pivots)[:2])
    assert np.array_equal(idx, full_gram_greedy(kernel, X, 5)[0])


@pytest.mark.parametrize("update", [column_major_update, einsum_update])
def test_select_inducing_pivots_do_not_depend_on_the_order_of_a_sum(kernel, random_dataset,
                                                                    update):
    # At n=800 the Gaussian kernel reaches its numerical rank well before
    # m=40; past it, residuals summed in another order would pick other
    # pivots unless selection stops at the relative floor and pads
    data = random_dataset(800, 7)
    ref, padded = full_gram_greedy(kernel, data.inputs, 40, update)
    assert padded
    ind = select_inducing(kernel, data, 40, strategy="greedy_trace")
    assert np.array_equal(ind.points, data.inputs[ref])


def test_select_inducing_uniform_is_seeded_subset(kernel, random_dataset):
    data = random_dataset(20, 8)
    a = select_inducing(kernel, data, 5, strategy="uniform", seed=3)
    b = select_inducing(kernel, data, 5, strategy="uniform", seed=3)
    assert np.array_equal(a.points, b.points)
    rows = {tuple(r) for r in data.inputs}
    assert all(tuple(p) in rows for p in a.points)


def test_select_inducing_greedy_pads_past_a_repeated_input(kernel, random_dataset):
    # Row 1 repeats row 0's input. The Gaussian kernel at n=800 reaches its
    # numerical rank before m=40, and the padding takes each input once, at
    # its first row.
    X = random_dataset(800, 7).inputs.copy()
    X[1] = X[0]
    data = Dataset(X, np.zeros(800))
    idx = selected_indices(data, select_inducing(kernel, data, 40, strategy="greedy_trace"))
    assert np.unique(data.inputs[idx], axis=0).shape[0] == 40
    pivots, padding = idx[:27], idx[27:]
    rest = np.setdiff1d(np.delete(np.arange(800), 1), pivots)
    assert np.array_equal(padding, rest[:13])


def test_select_inducing_uniform_draws_each_input_once(kernel, random_dataset):
    # Ten inputs, each on three rows: the draw is over the first rows, and
    # with no input repeated it is the draw over all rows.
    X = np.repeat(np.linspace(-3, 3, 10), 3)[:, None]
    data = Dataset(X, np.zeros(30))
    ind = select_inducing(kernel, data, 10, strategy="uniform", seed=3)
    assert np.array_equal(ind.points, X[::3])
    data = random_dataset(20, 8)
    idx = np.sort(np.random.default_rng(3).choice(20, size=5, replace=False))
    ind = select_inducing(kernel, data, 5, strategy="uniform", seed=3)
    assert np.array_equal(ind.points, data.inputs[idx])


@pytest.mark.parametrize("strategy", ["uniform", "greedy_trace"])
def test_select_inducing_needs_m_distinct_inputs(kernel, strategy):
    data = Dataset(np.repeat(np.linspace(-3, 3, 10), 3)[:, None], np.zeros(30))
    with pytest.raises(InvalidCount, match="10 distinct inputs, fewer than --m 11"):
        select_inducing(kernel, data, 11, strategy=strategy)


def test_select_inducing_invalid_count(kernel, random_dataset):
    data = random_dataset(5, 9)
    with pytest.raises(InvalidCount):
        select_inducing(kernel, data, 0)
    with pytest.raises(InvalidCount):
        select_inducing(kernel, data, 6)


def test_select_inducing_unknown_strategy(kernel, random_dataset):
    with pytest.raises(InvalidParameter, match="^unknown selection strategy 'rpcholesky'$"):
        select_inducing(kernel, random_dataset(5, 9), 2, strategy="rpcholesky")


@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_bad_noise_and_ridge_raise_typed_error(kernel, random_dataset, bad):
    data = random_dataset(20, seed=3)
    ind = select_inducing(kernel, data, 4)
    for call in (lambda: nystrom_factor(kernel, data, ind, bad),
                 lambda: fit_nystrom(kernel, data, ind, bad),
                 lambda: noise_factor(np.eye(20), bad),
                 lambda: fit_krr(kernel, data, bad),
                 lambda: fit_gpr(kernel, data, bad),
                 lambda: SparseProblem(kernel, data, ind, bad),
                 lambda: synth_prior_dataset(kernel, data.inputs, bad, seed=0)):
        # InvalidParameter is also a ValueError, for callers that catch that.
        with pytest.raises(InvalidParameter):
            call()


@pytest.mark.parametrize("entry", [nystrom_factor, fit_nystrom, SparseProblem],
                         ids=["nystrom_factor", "fit_nystrom", "SparseProblem"])
def test_kernel_other_than_the_inducing_sets_raises(kernel, random_dataset, entry):
    data = random_dataset(20, seed=3)
    ind = select_inducing(kernel, data, 4)
    with pytest.raises(InvalidParameter, match="build the inducing set with this kernel"):
        entry(GaussianKernel(lengthscale=2.0), data, ind, 0.1)
    # equal kernels are accepted, whether or not they are one object
    entry(GaussianKernel(lengthscale=1.0), data, ind, 0.1)


KERNELS = {"gaussian": lambda d: GaussianKernel(lengthscale=1.0, input_dim=d),
           "polynomial": lambda d: PolynomialKernel(degree=3, offset=1.0, input_dim=d)}
# (d, n, m, seed, strategy): greedy and uniform at each d, and greedy at
# n=800, m=40, d=1, past the numerical rank of either kernel, so it pads
# (the cubic kernel's rank, 4 at d=1 and 10 at d=2, is below m=12 too).
SELECTIONS = ([(d, 300, 12, d, s) for d in (1, 2, 3, 5) for s in ("greedy_trace", "uniform")]
              + [(1, 800, 40, 7, "greedy_trace")])


def selection_case(family, d, n, m, seed, strategy, monkeypatch, random_dataset):
    """The kernel, data and selected set of a SELECTIONS case, and whether
    greedy selection padded."""
    padded = []
    monkeypatch.setattr(nystrom, "_distinct_rows", lambda X, m, f=nystrom._distinct_rows: (
        padded.append(True) or f(X, m)))
    kernel = KERNELS[family](d)
    data = random_dataset(n, seed, d)
    return kernel, data, select_inducing(kernel, data, m, strategy=strategy, seed=3), bool(padded)


@pytest.mark.parametrize("family", sorted(KERNELS))
@pytest.mark.parametrize("d, n, m, seed, strategy", SELECTIONS)
def test_factor_v_of_a_selected_set_is_the_v_built_over_its_points(family, d, n, m, seed,
                                                                   strategy, monkeypatch,
                                                                   random_dataset):
    # a greedy set's V is solved from the rows selection kept, a uniform
    # set's from rows built over Z; both are the V of a set made from Z
    kernel, data, ind, padded = selection_case(family, d, n, m, seed, strategy, monkeypatch,
                                                random_dataset)
    assert (ind.selection is None) == (strategy == "uniform")
    assert padded or n < 800
    V = nystrom_factor(kernel, data, ind, 0.1).features
    ref = nystrom_factor(kernel, data, make_inducing(kernel, ind.points), 0.1).features
    assert V.shape == (m, n)
    assert np.array_equal(V.view(np.int64), ref.view(np.int64))


@pytest.mark.parametrize("family", sorted(KERNELS))
@pytest.mark.parametrize("d, n, m, seed, strategy",
                         [case for case in SELECTIONS if case[-1] == "greedy_trace"])
def test_selection_rows_are_the_one_row_grams_at_the_points(family, d, n, m, seed, strategy,
                                                           monkeypatch, random_dataset):
    # every row of the kept K_ZX, a padded point's included
    kernel, data, ind, _ = selection_case(family, d, n, m, seed, strategy, monkeypatch,
                                          random_dataset)
    X, kzx = ind.selection
    Z = ind.points
    assert np.array_equal(X, data.inputs)
    ref = np.array([kernel.gram(Z[j:j + 1], X)[0] for j in range(m)])
    assert kzx.shape == (m, n)
    assert np.array_equal(kzx.view(np.int64), ref.view(np.int64))


@pytest.mark.parametrize("strategy", ["greedy_trace", "uniform"])
def test_training_residual_is_the_woodbury_residual(kernel, random_dataset, strategy):
    # fitted is V^T u, so y - fitted is the residual behind the ELBO's
    # y^T (q_XX + s2 I)^{-1} y
    data = random_dataset(300, 2)
    fac = nystrom_factor(kernel, data, select_inducing(kernel, data, 12, strategy, seed=3), 0.1)
    V, y, F = fac.features, data.targets, fac.b_factor
    e = upper_solve(F, lower_solve(F, V @ y) / 0.1)
    assert np.array_equal(e.view(np.int64), fac.u.view(np.int64))
    assert np.array_equal((y - fac.fitted).view(np.int64), (y - V.T @ e).view(np.int64))


def test_factor_solves_the_selection_v_once_per_set(kernel, random_dataset):
    data = random_dataset(300, 5)
    ind = select_inducing(kernel, data, 12)
    a, b = nystrom_factor(kernel, data, ind, 0.1), nystrom_factor(kernel, data, ind, 0.5)
    assert a.features is b.features is ind.selection_features
    # on other inputs than the selection's, the rows are built over Z
    part = Dataset(data.inputs[:100], data.targets[:100])
    V = nystrom_factor(kernel, part, ind, 0.1).features
    ref = nystrom_factor(kernel, part, make_inducing(kernel, ind.points), 0.1).features
    assert V is not ind.selection_features
    assert np.array_equal(V.view(np.int64), ref.view(np.int64))
