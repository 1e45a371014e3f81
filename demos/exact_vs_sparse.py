"""Compare an exact kernel ridge fit against its sparse counterpart.

Fits both models on the same synthetic draw, then reports how the
prediction gap and the RKHS distance shrink as the inducing set grows.
Run with: python3 demos/exact_vs_sparse.py
"""

import numpy as np

from sparsegp import (Dataset, GaussianKernel, SparseProblem, fit_krr,
                      fit_nystrom, noise_of_ridge, rkhs_distance_sq, select_inducing,
                      synth_prior_dataset, trace_gap)


def main():
    kernel = GaussianKernel(lengthscale=1.0)
    rng = np.random.default_rng(0)
    X = rng.uniform(-3, 3, size=(80, 1))
    data = synth_prior_dataset(kernel, X, noise_var=0.2, seed=1)
    y = data.targets * min(1.0, 10.0 / np.linalg.norm(data.targets))
    data = Dataset(X, y)

    ridge = 0.2 / data.n
    exact = fit_krr(kernel, data, ridge)
    grid = np.linspace(-3, 3, 200)

    print(f"n = {data.n} training points, ridge = {ridge:.4g}")
    print(f"{'m':>4} {'trace gap':>12} {'rkhs dist^2':>12} {'sup |gap|':>12}")
    for m in (1, 2, 4, 8, 16, 32):
        ind = select_inducing(kernel, data, m, strategy="greedy_trace")
        sparse = fit_nystrom(kernel, data, ind, ridge)
        sup = float(np.max(np.abs(exact.predict_many(grid) - sparse.predict_many(grid))))
        dist = rkhs_distance_sq(SparseProblem(kernel, data, ind, noise_of_ridge(data.n, ridge)))
        t = trace_gap(ind, data.inputs)
        print(f"{m:>4} {t:>12.4e} {dist:>12.4e} {sup:>12.4e}")

    print("\nAll three columns fall together: once the inducing set covers")
    print("the data's effective degrees of freedom, the sparse fit is")
    print("numerically indistinguishable from the exact one.")


if __name__ == "__main__":
    main()
