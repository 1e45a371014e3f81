"""The user-facing fit path stays O(nm) in memory: greedy selection,
`sparsegp fit svgp` and the closed-form optimum never build an n x n Gram
matrix, and the batched posterior means agree with the Nystrom ridge fit."""

import tracemalloc

import numpy as np
import pytest

from sparsegp import cli
from sparsegp.data import load_csv, synth_prior_dataset, write_csv
from sparsegp.exact import fit_krr
from sparsegp.kernels import GaussianKernel
from sparsegp.nystrom import fit_nystrom, nystrom_factor, select_inducing
from sparsegp.svgp import elbo, optimal_parameters

N = 500


@pytest.fixture
def csv_path(tmp_path):
    kernel = GaussianKernel(lengthscale=1.0, input_dim=2)
    X = np.random.default_rng(40).uniform(-3, 3, size=(N, 2))
    path = tmp_path / "train.csv"
    write_csv(path, synth_prior_dataset(kernel, X, 0.1, seed=41))
    return path


@pytest.fixture
def gram_shapes(monkeypatch):
    shapes = []
    gram = GaussianKernel.gram

    def recording_gram(self, A, B=None):
        K = gram(self, A, B)
        shapes.append(K.shape)
        return K

    monkeypatch.setattr(GaussianKernel, "gram", recording_gram)
    return shapes


def test_fit_svgp_builds_no_n_by_n_gram(csv_path, gram_shapes, capsys):
    data = load_csv(csv_path)
    select_inducing(GaussianKernel(lengthscale=1.0, input_dim=2), data, 16)
    assert cli.main(["fit", "svgp", "--data", str(csv_path), "--m", "16"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == N
    assert gram_shapes
    assert (N, N) not in gram_shapes


def test_synth_and_fit_read_every_matrix_in_place(tmp_path, symmetric_copies, capsys):
    # the prior draw and the exact fit factor k_XX + s2 I in place; greedy
    # selection, nystrom and svgp factor k_ZZ and m x m matrices in place
    path = str(tmp_path / "n3000.csv")
    assert cli.main(["synth", "--n", "3000", "--d", "2", "--out", path]) == 0
    capsys.readouterr()
    for model in ("exact", "nystrom", "svgp"):
        assert cli.main(["fit", model, "--data", path]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3000
    assert symmetric_copies == []


def test_batched_means_match_nystrom(csv_path):
    data = load_csv(csv_path)
    kernel = GaussianKernel(lengthscale=1.0, input_dim=2)
    ind = select_inducing(kernel, data, 16)
    s2 = 0.1
    reference = fit_nystrom(kernel, data, ind, s2 / data.n).predict_many(data.inputs)
    preds = nystrom_factor(kernel, data, ind, s2).mean.predict_many(data.inputs)
    assert preds.shape == (N,)
    np.testing.assert_allclose(preds, reference, rtol=0, atol=1e-8)


def per_row_rendering(inputs, preds) -> str:
    return "".join(",".join(f"{v:.17g}" for v in x) + f",{p:.17g}\n"
                   for x, p in zip(inputs, preds))


def test_fit_svgp_stdout_is_the_per_row_rendering_of_the_mean(csv_path, capsys):
    data = load_csv(csv_path)
    kernel = GaussianKernel(lengthscale=1.0, input_dim=2)
    ind = select_inducing(kernel, data, 16)
    preds = nystrom_factor(kernel, data, ind, 0.1).fitted
    assert cli.main(["fit", "svgp", "--data", str(csv_path), "--m", "16"]) == 0
    assert capsys.readouterr().out == per_row_rendering(data.inputs, preds)


@pytest.mark.parametrize("model", ["exact", "nystrom"])
def test_fit_stdout_is_the_per_row_rendering_of_predict_many(model, csv_path, capsys):
    data = load_csv(csv_path)
    kernel = GaussianKernel(lengthscale=1.0, input_dim=2)
    ridge = 0.1 / data.n  # the CLI's default noise_var / n
    if model == "exact":
        fit = fit_krr(kernel, data, ridge)
    else:
        fit = fit_nystrom(kernel, data, select_inducing(kernel, data, 16), ridge)
    assert cli.main(["fit", model, "--data", str(csv_path), "--m", "16"]) == 0
    assert capsys.readouterr().out == per_row_rendering(data.inputs,
                                                        fit.predict_many(data.inputs))


def test_fitted_is_the_mean_at_the_training_inputs(csv_path):
    # fitted is V^T u, the product the Woodbury residual subtracts; the
    # mean's k_XZ k_ZZ^{-1} mu* reaches the same values by another order
    data = load_csv(csv_path)
    kernel = GaussianKernel(lengthscale=1.0, input_dim=2)
    fac = nystrom_factor(kernel, data, select_inducing(kernel, data, 16), 0.1)
    assert np.array_equal(fac.fitted, fac.features.T @ fac.u)
    assert np.max(np.abs(fac.fitted - fac.mean.predict_many(data.inputs))) <= 1e-12


def test_fit_svgp_builds_no_n_by_m_gram(csv_path, gram_shapes, capsys):
    assert cli.main(["fit", "svgp", "--data", str(csv_path), "--m", "16"]) == 0
    capsys.readouterr()
    # greedy selection evaluates the m pivot rows k(z_j, X) and its set
    # keeps them; nystrom_factor solves V from those rows and prints V^T u
    assert gram_shapes.count((N, 16)) + gram_shapes.count((16, N)) == 0


def test_closed_forms_build_no_n_by_n_matrix(csv_path, gram_shapes):
    data = load_csv(csv_path)
    kernel = GaussianKernel(lengthscale=1.0, input_dim=2)
    ind = select_inducing(kernel, data, 16)
    gram_shapes.clear()

    def posterior_at_data():
        fac = nystrom_factor(kernel, data, ind, 0.1)
        fac.mean.predict_many(data.inputs)
        fac.optimal_var(data.inputs)
        fac.dtc_var(data.inputs)

    def elbo_at_optimum():
        fac = nystrom_factor(kernel, data, ind, 0.1)
        elbo(fac, optimal_parameters(fac))

    for run in (elbo_at_optimum, posterior_at_data):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # One n x n float64 array alone would take N * N * 8 bytes.
        assert peak < N * N * 8
    assert gram_shapes
    assert (N, N) not in gram_shapes
