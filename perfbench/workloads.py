"""The benchmark's workloads: how each one builds its inputs from the
workload seed, what one op is, and how an op's output is checked.

Library entry points are looked up on their modules at call time
(``harness.run_verification``, ``cli.main``), so a traced run sees the
tracer's wrappers and an untraced run sees the originals.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from sparsegp import cli, data, harness, kernels, nystrom

from tracer import CHECK_NAMES

# Largest |prediction - reference| accepted for an svgp fit: the certified
# SVGP == Nystrom equivalence tolerance.
EQUIVALENCE_TOL = 1e-8


@dataclass
class VerifyInputs:
    configs: list
    first_json: dict = field(default_factory=dict)  # pool index -> first report
    statuses: dict = field(default_factory=dict)  # pool index -> check statuses
    check_seconds: list = field(default_factory=list)  # one {name: s} per op


@dataclass(frozen=True)
class VerifyWorkload:
    """Each op is ``run_verification`` on one config of a seeded pool.

    Op i runs config i % pool; every config's seed derives from the
    workload seed. Repeats of a config must emit byte-identical JSON.
    """

    name: str
    n: int
    m: int
    d: int = 1
    pool: int = 8

    def make_inputs(self, seed: int, workdir: Path, csv_path=None) -> VerifyInputs:
        seeds = np.random.SeedSequence(seed).generate_state(self.pool)
        return VerifyInputs(configs=[
            harness.ExperimentConfig(kernel_family="gaussian", n=self.n, m=self.m,
                                     d=self.d, seed=int(s))
            for s in seeds])

    def add_reference(self, inputs: VerifyInputs) -> None:
        """Verify ops are checked against their own first run."""

    def op(self, inputs: VerifyInputs, i: int):
        report = harness.run_verification(inputs.configs[i % self.pool])
        return report, harness.emit_report(report, "json")

    def check(self, inputs: VerifyInputs, i: int, out) -> str | None:
        """None when the output is acceptable, else what is wrong with it."""
        report, text = out
        names = tuple(c.name for c in report.checks)
        if names != CHECK_NAMES:
            return f"report lists checks {names}, expected the {len(CHECK_NAMES)} named checks"
        key = i % self.pool
        if inputs.first_json.setdefault(key, text) != text:
            return f"config {key}: JSON report differs from the first run of the same config"
        inputs.statuses.setdefault(key, [c.status for c in report.checks])
        inputs.check_seconds.append({c.name: c.wall_clock for c in report.checks})
        return None


@dataclass
class FitInputs:
    csv_path: Path
    inputs: np.ndarray | None
    reference: np.ndarray | None = None
    first_stdout: str | None = None


@dataclass(frozen=True)
class FitWorkload:
    """Each op is ``sparsegp fit svgp`` on one fixed CSV, run in-process.

    The CSV (n rows, d inputs, prior draw) is written once at set-up from
    the workload seed.
    """

    name: str
    n: int
    m: int
    d: int
    noise_var: float = 0.1  # the CLI default, which the op relies on
    pool: int = 1

    def kernel(self):
        return kernels.GaussianKernel(lengthscale=1.0, input_dim=self.d)

    def write_csv(self, seed: int, path: Path) -> None:
        rng = np.random.default_rng(seed)
        X = rng.uniform(-3.0, 3.0, size=(self.n, self.d))
        ds = data.synth_prior_dataset(self.kernel(), X, self.noise_var, seed=seed + 1)
        data.write_csv(path, ds)

    def make_inputs(self, seed: int, workdir: Path, csv_path=None) -> FitInputs:
        """Write the CSV, unless `csv_path` names one already written for
        this seed."""
        if csv_path is None:
            csv_path = workdir / "train.csv"
            self.write_csv(seed, csv_path)
        return FitInputs(csv_path=Path(csv_path), inputs=None)

    def add_reference(self, inputs: FitInputs) -> None:
        """The certified equivalent of the op: Nystrom ridge regression with
        ridge noise_var / n on the same greedy inducing set."""
        ds = data.load_csv(inputs.csv_path)
        kernel = self.kernel()
        ind = nystrom.select_inducing(kernel, ds, self.m)
        ref = nystrom.fit_nystrom(kernel, ds, ind, self.noise_var / ds.n)
        inputs.inputs = ds.inputs
        inputs.reference = ref.predict_many(ds.inputs)

    def op(self, inputs: FitInputs, i: int):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["fit", "svgp", "--data", str(inputs.csv_path),
                             "--m", str(self.m)])
        return code, buf.getvalue()

    def check(self, inputs: FitInputs, i: int, out) -> str | None:
        code, text = out
        if code != 0:
            return f"sparsegp fit exited {code}"
        rows = text.splitlines()
        if len(rows) != self.n:
            return f"{len(rows)} output rows, expected {self.n}"
        try:
            table = np.array([[float(v) for v in row.split(",")] for row in rows])
        except ValueError as exc:
            return f"unparseable output row: {exc}"
        if table.shape != (self.n, self.d + 1):
            return f"output table has shape {table.shape}, expected {(self.n, self.d + 1)}"
        if not np.array_equal(table[:, : self.d], inputs.inputs):
            return "output rows do not echo the training inputs in order"
        gap = float(np.max(np.abs(table[:, self.d] - inputs.reference)))
        if not gap <= EQUIVALENCE_TOL:
            return f"max |svgp - nystrom| = {gap:.3g} exceeds {EQUIVALENCE_TOL:g}"
        if inputs.first_stdout is None:
            inputs.first_stdout = text
        elif text != inputs.first_stdout:
            return "stdout differs from the first fit of the same CSV"
        return None


# verify-small: O(n^3) work is negligible; time goes to thousands of tiny
#   Gram / m x m factor calls and per-probe closure rebuilds.
# verify-mid: time goes to n x n Grams and Cholesky factors, dense
#   eigensolves, exact refits and Monte-Carlo quadratic forms. d=1 on
#   purpose: psi_maps_mu_star_to_beta fails here and must stay visible.
# fit-svgp: the user-facing fit path (CSV parsing, greedy selection's n x n
#   Gram, scalar mean closures, output formatting); no exact or bounds code.
WORKLOADS = {
    w.name: w for w in (
        VerifyWorkload("verify-small", n=60, m=8, pool=16),
        VerifyWorkload("verify-mid", n=400, m=24, pool=8),
        FitWorkload("fit-svgp", n=4000, m=64, d=2),
    )
}
