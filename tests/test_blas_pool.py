"""The library runs on numpy alone, so all its BLAS/LAPACK work stays on
numpy's OpenBLAS and scipy's thread pool never exists. Each test runs the
CLI in a fresh process where every scipy import raises; scipy remains a
test-time reference only."""

import subprocess
import sys

from sparsegp.harness import CHECKS

# While sys.modules["scipy"] is None, every scipy import raises
# ModuleNotFoundError. The last line printed lists the scipy modules loaded.
PRELUDE = """
import contextlib, io, json, sys
sys.modules["scipy"] = None
from sparsegp.cli import main

def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0, argv
    return out.getvalue()
"""

LOADED = """
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""

FIT = """
csv = sys.argv[1]
run("synth", "--n", "200", "--d", "2", "--seed", "3", "--out", csv)
for model in sys.argv[2:]:
    assert len(run("fit", model, "--data", csv, "--m", "12").splitlines()) == 200
"""


def run_without_scipy(body, *args):
    proc = subprocess.run([sys.executable, "-c", PRELUDE + body + LOADED, *args],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['scipy']"


def test_verify_runs_without_scipy_level3_calls():
    run_without_scipy('assert len(json.loads(run("verify", "--format", "json"))'
                      f'["checks"]) == {len(CHECKS)}\n')


def test_fit_svgp_runs_without_scipy_level3_calls(tmp_path):
    run_without_scipy(FIT, str(tmp_path / "train.csv"), "svgp")


def test_fit_nystrom_and_exact_run_without_scipy(tmp_path):
    run_without_scipy(FIT, str(tmp_path / "train.csv"), "nystrom", "exact")
