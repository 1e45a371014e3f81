"""The user-facing fit path stays O(nm) in memory: greedy selection,
`sparsegp fit svgp` and the closed-form optimum never build an n x n Gram
matrix, and the batched posterior means agree with the Nystrom ridge fit."""

import tracemalloc

import numpy as np
import pytest

from sparsegp import cli
from sparsegp.data import load_csv, synth_prior_dataset, write_csv
from sparsegp.kernels import GaussianKernel
from sparsegp.nystrom import fit_nystrom, nystrom_factor, select_inducing
from sparsegp.svgp import optimal_elbo

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


def test_batched_means_match_nystrom(csv_path):
    data = load_csv(csv_path)
    kernel = GaussianKernel(lengthscale=1.0, input_dim=2)
    ind = select_inducing(kernel, data, 16)
    s2 = 0.1
    reference = fit_nystrom(kernel, data, ind, s2 / data.n).predict_many(data.inputs)
    preds = nystrom_factor(kernel, data, ind, s2).mean(data.inputs)
    assert preds.shape == (N,)
    np.testing.assert_allclose(preds, reference, rtol=0, atol=1e-8)


def test_closed_forms_build_no_n_by_n_matrix(csv_path, gram_shapes):
    data = load_csv(csv_path)
    kernel = GaussianKernel(lengthscale=1.0, input_dim=2)
    ind = select_inducing(kernel, data, 16)
    gram_shapes.clear()

    def posterior_at_data():
        fac = nystrom_factor(kernel, data, ind, 0.1)
        fac.mean(data.inputs)
        fac.optimal_var(data.inputs)
        fac.dtc_var(data.inputs)

    for run in (lambda: optimal_elbo(kernel, data, ind, 0.1), posterior_at_data):
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
