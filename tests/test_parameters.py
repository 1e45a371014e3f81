"""Every entry point that takes a noise variance or a ridge rejects a NaN
as not positive, with the message of a negative value, and an infinity as
not finite; the CLI exits 2 and names the parameter."""

import json

import numpy as np
import pytest

from sparsegp.bounds import SparseProblem
from sparsegp.cli import main
from sparsegp.data import Dataset, synth_fixed_function_dataset, write_csv
from sparsegp.errors import InvalidParameter
from sparsegp.exact import fit_krr, noise_of_ridge
from sparsegp.kernels import GaussianKernel
from sparsegp.linalg import noise_factor
from sparsegp.nystrom import fit_nystrom, nystrom_factor, select_inducing

KERNEL = GaussianKernel(lengthscale=1.0)
_rng = np.random.default_rng(0)
DATA = Dataset(_rng.uniform(-3, 3, size=(20, 1)), _rng.standard_normal(20))
IND = select_inducing(KERNEL, DATA, 4)
PROB = SparseProblem(KERNEL, DATA, IND, 0.1)

# name -> (parameter, what a NaN is not, call with the value)
ENTRY_POINTS = {
    "noise_factor": ("noise_var", "positive",
                     lambda v: noise_factor(KERNEL.gram(DATA.inputs), v)),
    "nystrom_factor": ("noise_var", "positive", lambda v: nystrom_factor(KERNEL, DATA, IND, v)),
    "fit_nystrom": ("ridge", "positive", lambda v: fit_nystrom(KERNEL, DATA, IND, v)),
    "fit_krr": ("ridge", "positive", lambda v: fit_krr(KERNEL, DATA, v)),
    "noise_of_ridge": ("ridge", "positive", lambda v: noise_of_ridge(DATA.n, v)),
    "SparseProblem": ("noise_var", "positive", lambda v: SparseProblem(KERNEL, DATA, IND, v)),
    "at_ridge": ("ridge", "positive", PROB.at_ridge),
    "synth_fixed_function_dataset": ("noise_var", "nonnegative",
                                     lambda v: synth_fixed_function_dataset(
                                         np.sin, DATA.inputs, v, seed=0)),
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_nan_is_not_positive(name):
    param, sign, call = ENTRY_POINTS[name]
    with pytest.raises(InvalidParameter, match=f"^{param} must be {sign}$"):
        call(np.nan)


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_infinity_is_not_finite(name):
    param, _, call = ENTRY_POINTS[name]
    with pytest.raises(InvalidParameter, match=f"^{param} must be finite, got inf$"):
        call(np.inf)


CLI_CASES = [
    (("fit", "svgp", "--noise-var", "inf"), "noise_var must be finite, got inf"),
    (("fit", "nystrom", "--ridge", "nan"), "ridge must be positive"),
    (("fit", "nystrom", "--ridge", "inf"), "ridge must be finite, got inf"),
    # a finite ridge whose n * ridge overflows, not a fit of NaN rows
    (("fit", "nystrom", "--ridge", "1e308"), "n * ridge must be finite, got inf"),
    (("fit", "exact", "--ridge", "nan"), "ridge must be positive"),
    # every ridge becomes the noise variance n * ridge by one conversion,
    # which names the product, not the noise variance the user did not set
    (("fit", "exact", "--ridge", "1e308"), "n * ridge must be finite, got inf"),
    (("bounds", "burt", "--ridge", "inf"), "ridge must be finite, got inf"),
    (("bounds", "burt", "--ridge", "1e308"), "n * ridge must be finite, got inf"),
    (("bounds", "burt", "--noise-var", "inf"), "noise_var must be finite, got inf"),
    (("bounds", "burt", "--kernel", "polynomial", "--offset", "nan"),
     "offset must be finite and nonnegative, got nan"),
    (("fit", "svgp", "--kernel", "polynomial", "--offset", "inf"),
     "offset must be finite and nonnegative, got inf"),
]


@pytest.mark.parametrize("argv, message", CLI_CASES,
                         ids=[" ".join(argv) for argv, _ in CLI_CASES])
def test_cli_exits_2_naming_the_parameter(argv, message, tmp_path, capsys):
    if argv[0] == "fit":
        write_csv(tmp_path / "t.csv", DATA)
        argv = (*argv, "--data", str(tmp_path / "t.csv"), "--m", "4")
    else:
        argv = (*argv, "--n", "30", "--m", "5", "--mc-samples", "500")
    assert main(list(argv)) == 2
    assert capsys.readouterr().err == f"error: InvalidParameter: {message}\n"


NOISE_CASES = [("-1", "positive"), ("0", "positive"), ("nan", "positive"),
               ("inf", "finite, got inf")]


@pytest.mark.parametrize("model", ["exact", "nystrom"])
@pytest.mark.parametrize("value, message", NOISE_CASES, ids=[v for v, _ in NOISE_CASES])
def test_fit_names_noise_var_when_the_ridge_is_linked(model, value, message, tmp_path,
                                                      capsys):
    # the linked ridge noise_var / n is derived from the flag the user set,
    # so the error names that flag, not the ridge
    write_csv(tmp_path / "t.csv", DATA)
    argv = ["fit", model, "--data", str(tmp_path / "t.csv"), "--m", "4"]
    assert main([*argv, "--noise-var", value]) == 2
    assert capsys.readouterr().err == f"error: InvalidParameter: noise_var must be {message}\n"
    # a set ridge unlinks it: the model reads no noise variance
    assert main([*argv, "--noise-var", value, "--ridge", "0.01"]) == 0
    unlinked = capsys.readouterr().out
    assert main([*argv, "--ridge", "0.01"]) == 0
    assert capsys.readouterr().out == unlinked


@pytest.mark.parametrize("flags, message", [
    (("--ridge", "inf"), "ridge must be finite, got inf"),
    (("--noise-var", "inf"), "noise_var must be finite, got inf"),
    (("--ridge", "1e308"), "n * ridge must be finite, got inf"),
])
def test_verify_reports_a_non_finite_parameter_as_its_setup_error(flags, message, capsys):
    assert main(["verify", "--n", "30", "--m", "5", "--mc-samples", "500", *flags,
                 "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out)["checks"] == [
        {"name": "setup", "status": "error", "detail": f"InvalidParameter: {message}"}]
