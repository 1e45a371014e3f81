import json
import subprocess
import sys

import pytest

from sparsegp import bounds
from sparsegp.cli import main
from sparsegp.harness import (CheckResult, ExperimentConfig, VerificationReport,
                              emit_report, make_problem, run_verification)


SMALL = dict(n=30, m=5, mc_samples=500)


def small_config(**over):
    return ExperimentConfig(**{**SMALL, **over})


def test_config_links_ridge_to_noise():
    cfg = small_config(noise_var=0.3)
    assert cfg.ridge_value() == pytest.approx(0.3 / cfg.n)
    fixed = small_config(noise_var=0.3, ridge=0.01, link_noise_ridge=False)
    assert fixed.ridge_value() == 0.01


def test_check_result_serialization_drops_wall_clock():
    r = CheckResult("x", "pass", "ok", 1.0, 2.0, wall_clock=0.5)
    d = r.to_dict()
    assert "wall_clock" not in d
    assert d["status"] == "pass"


@pytest.fixture(scope="module")
def report():
    return run_verification(small_config())


def test_verification_passes_on_default_instance(report):
    assert report.overall_pass
    statuses = {c.name: c.status for c in report.checks}
    assert all(s in ("pass", "skipped") for s in statuses.values())
    assert len(report.checks) >= 15


def test_verification_check_order_is_canonical(report):
    names = [c.name for c in report.checks]
    assert names == sorted(names, key=names.index)  # no duplicates
    assert names[0] == "svgp_nystrom_equivalence"
    assert "kl_two_path" in names and "burt_bound" in names


def test_derivative_check_skipped_for_polynomial():
    rep = run_verification(small_config(kernel_family="polynomial", degree=2,
                                        offset=1.0))
    statuses = {c.name: c.status for c in rep.checks}
    assert statuses["derivative_bound"] == "skipped"


def test_invalid_inducing_count_reported_as_error():
    rep = run_verification(small_config(m=0))
    assert not rep.overall_pass
    assert any(c.status == "error" for c in rep.checks)


def test_json_report_is_deterministic(report):
    a = emit_report(report, "json")
    b = emit_report(run_verification(small_config()), "json")
    assert a == b
    parsed = json.loads(a)
    assert parsed["overall_pass"] is True


def test_text_report_has_pass_lines_and_wall_clock(report):
    text = emit_report(report, "text")
    assert "PASS" in text
    for check in report.checks:
        assert check.name in text
    assert "overall" in text.lower()


def test_json_report_round_trips_config(report):
    parsed = json.loads(emit_report(report, "json"))
    assert parsed["config"]["n"] == SMALL["n"]
    assert parsed["config"]["m"] == SMALL["m"]
    assert parsed["schema_version"] == 1


def test_expected_kl_check_fails_on_inverted_band(monkeypatch):
    # a Monte-Carlo interval wide enough to straddle an inverted band
    # [lo, hi] with lo > hi must not count as a pass
    monkeypatch.setattr(bounds, "expected_kl_sandwich",
                        lambda *args, **kwargs: (-0.75, 1.96, -0.5, -1.0))
    report = run_verification(small_config())
    check = next(c for c in report.checks if c.name == "expected_kl_sandwich")
    assert check.status == "fail"


def test_empty_report_fails():
    rep = VerificationReport(config=small_config(), checks=[])
    assert not rep.overall_pass


def run_cli(*argv):
    return main(list(argv))


def test_cli_verify_exit_code(capsys):
    code = run_cli("verify", "--n", "30", "--m", "5", "--mc-samples", "500",
                   "--format", "json")
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["overall_pass"] is True


def test_cli_verify_fails_cleanly_on_bad_count(capsys):
    code = run_cli("verify", "--n", "30", "--m", "0", "--mc-samples", "500")
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL" in out or "ERROR" in out


def test_cli_verify_rejects_too_few_mc_samples(capsys):
    code = run_cli("verify", "--n", "30", "--m", "5", "--mc-samples", "50",
                   "--format", "json")
    assert code == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [c["name"] for c in checks] == ["setup"]
    assert checks[0]["status"] == "error"
    assert checks[0]["detail"].startswith("InvalidCount")
    assert "--mc-samples >= 100" in checks[0]["detail"]


@pytest.mark.parametrize("name", ["expected_kl", "expected_excess_risk"])
def test_cli_bounds_rejects_too_few_mc_samples(name, capsys):
    code = run_cli("bounds", name, "--n", "30", "--m", "5", "--mc-samples", "50")
    assert code == 2
    err = capsys.readouterr().err
    assert "InvalidCount" in err and "--mc-samples >= 100" in err


def test_cli_synth_then_fit(tmp_path, capsys):
    csv_path = tmp_path / "train.csv"
    assert run_cli("synth", "--out", str(csv_path), "--n", "25") == 0
    capsys.readouterr()
    for model in ("exact", "nystrom", "svgp"):
        assert run_cli("fit", model, "--data", str(csv_path), "--m", "5") == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 25


def test_cli_fit_missing_file_exits_2(tmp_path, capsys):
    code = run_cli("fit", "exact", "--data", str(tmp_path / "nope.csv"))
    assert code == 2


def test_cli_bounds_commands(capsys):
    for name in ("burt", "excess_risk", "rkhs_distance", "derivative"):
        code = run_cli("bounds", name, "--n", "30", "--m", "5")
        out = capsys.readouterr().out
        assert code == 0, (name, out)
        assert "holds=True" in out
    assert run_cli("bounds", "expected_kl", "--n", "30", "--m", "5",
                   "--mc-samples", "500") == 0
    assert "mc_estimate" in capsys.readouterr().out


def test_cli_bounds_evaluates_the_verify_instance(capsys):
    # `bounds` reads the instance `verify` checks, targets rescaled to norm
    # 10 included: the prior draw's norm is above 10 at this config
    config = ExperimentConfig(n=400, m=24)
    prob, _, _ = make_problem(config)
    assert float(prob.data.targets @ prob.data.targets) == pytest.approx(100.0)
    check = next(c for c in run_verification(config).checks if c.name == "burt_bound")
    assert run_cli("bounds", "burt", "--n", "400", "--m", "24") == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert line.startswith(f"kl_upper_bound: lhs={check.lhs:.10g} rhs={check.rhs:.10g} ")


def test_cli_entry_point_subprocess(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "sparsegp.cli", "verify", "--n", "30", "--m", "5",
         "--mc-samples", "500", "--format", "json"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["overall_pass"] is True


def test_derivative_check_fails_on_a_negative_certified_bound(monkeypatch):
    bounds_fn = bounds.derivative_gap_bounds

    def one_negative_rhs(prob, X, js):
        lhs, rhs = bounds_fn(prob, X, js)
        rhs[3] = -1e-8
        return 0.0 * lhs, rhs

    monkeypatch.setattr(bounds, "derivative_gap_bounds", one_negative_rhs)
    check = next(c for c in run_verification(small_config()).checks
                 if c.name == "derivative_bound")
    # lhs = 0 is within the 1e-4 allowance of rhs = -1e-8, yet the check fails.
    assert check.status == "fail"
    assert "rhs=-1e-08" in check.detail
    assert check.detail.endswith("rhs < 0 at 1 probes")
