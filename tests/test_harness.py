import importlib.util
import json
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from sparsegp import bounds
from sparsegp.cli import build_parser, main
from sparsegp.errors import InvalidParameter
from sparsegp.harness import (CHECKS, CheckResult, ExperimentConfig, VerificationReport,
                              emit_report, make_problem, run_verification, verify_problem)
from sparsegp.svgp import SvgpState


SMALL = dict(n=30, m=5, mc_samples=500)


def small_config(**over):
    return ExperimentConfig(**{**SMALL, **over})


def test_config_links_ridge_to_noise(capsys):
    cfg = small_config(noise_var=0.3)
    assert cfg.ridge_value() == pytest.approx(0.3 / cfg.n)
    fixed = small_config(noise_var=0.3, ridge=0.01)
    assert fixed.ridge_value() == 0.01
    # None links: the ridge problem is the problem itself; a set ridge unlinks
    linked, linked_ridge, _ = make_problem(cfg)
    assert linked_ridge is linked
    prob, ridge_prob, _ = make_problem(small_config(noise_var=0.3, ridge=0.02))
    assert ridge_prob is not prob and ridge_prob.ridge == pytest.approx(0.02, rel=1e-15)
    assert prob.noise_var == 0.3
    for flags, ridge, link in (([], 0.3 / 30, True), (["--ridge", "0.02"], 0.02, False)):
        main(["verify", "--n", "30", "--m", "5", "--mc-samples", "500",
              "--noise-var", "0.3", "--format", "json", *flags])
        config = json.loads(capsys.readouterr().out)["config"]
        assert config["ridge"] == pytest.approx(ridge, rel=1e-15)
        assert config["link_noise_ridge"] is link
    for gone in ("--link-noise-ridge", "--no-link-noise-ridge"):
        with pytest.raises(SystemExit):
            main(["verify", gone])
    capsys.readouterr()


CONFIG_FIELDS = [f.name for f in fields(ExperimentConfig)]


@pytest.mark.parametrize("argv", [["fit", "svgp", "--data", "t.csv"], ["verify"],
                                  ["bounds", "burt"], ["synth", "--out", "t.csv"]],
                         ids=lambda argv: argv[0])
def test_cli_defaults_are_the_config_defaults(argv):
    args = build_parser().parse_args(argv)
    default = ExperimentConfig()
    for name in CONFIG_FIELDS:
        if hasattr(args, name):
            assert getattr(args, name) == getattr(default, name), name
    if argv[0] in ("verify", "bounds"):
        # every flag but --format sets a config field
        assert set(vars(args)) - {"command", "func", "parser", "name", "format"} \
            == set(CONFIG_FIELDS)


@pytest.mark.parametrize("ridge", [None, 0.01], ids=["linked", "unlinked"])
def test_config_dict_is_the_fields_then_two_derived_entries(ridge):
    config = small_config(ridge=ridge)
    d = config.to_dict()
    assert list(d) == CONFIG_FIELDS + ["link_noise_ridge", "tolerance"]
    assert d["ridge"] == config.ridge_value()
    assert d["link_noise_ridge"] is (ridge is None)
    assert d["tolerance"] == bounds.TOLERANCE


def test_cli_verify_without_flags_reports_the_default_config(capsys):
    assert main(["verify", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == json.loads(
        emit_report(run_verification(ExperimentConfig()), "json"))


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


def test_unknown_report_format_is_a_typed_error(report):
    with pytest.raises(InvalidParameter, match="unknown report format 'yaml'"):
        emit_report(report, "yaml")


def test_json_report_round_trips_config(report):
    parsed = json.loads(emit_report(report, "json"))
    assert parsed["config"]["n"] == SMALL["n"]
    assert parsed["config"]["m"] == SMALL["m"]
    assert parsed["schema_version"] == 1


def test_expected_kl_check_fails_on_inverted_band(monkeypatch):
    # a Monte-Carlo interval wide enough to straddle an inverted band
    # [lo, hi] with lo > hi must not count as a pass
    monkeypatch.setattr(bounds, "expected_kl_sandwich",
                        lambda *args, **kwargs: (-0.75, 1.0, -0.5, -1.0))
    report = run_verification(small_config())
    check = next(c for c in report.checks if c.name == "expected_kl_sandwich")
    assert check.status == "fail"


def check_off_the_optimum(name, config, broken):
    """Check `name` on the instance of `config`, with the optimum (u*, R*)
    its checks read replaced by broken(u*, R*): its CheckResult."""
    prob, ridge_prob, grid = make_problem(config)
    star = prob.optimal_state
    vars(prob)["optimal_state"] = SvgpState(prob.ind, *broken(star.u, star.R))
    (check,) = verify_problem(prob, ridge_prob, grid, config.seed, [name])
    return check


@pytest.mark.parametrize("broken", [
    lambda u, R: (0 * u, R), lambda u, R: (0.9 * u, R), lambda u, R: (u, 1.5 * R),
], ids=["zero-mean", "shrunk-mean", "inflated-R"])
def test_fixed_point_check_fails_off_the_optimum(broken):
    check = check_off_the_optimum("fixed_point_solver", small_config(), broken)
    assert check.status == "fail", check.detail


def test_optimality_probes_fail_at_the_prior_mean():
    # at n=400, m=24 k_ZZ is ill-conditioned: probes of raw (mu, Sigma),
    # whitened through L_Z^{-1}, land far below any state, and passed even
    # at u = 0; probes of (u, R) themselves find a better state
    check = check_off_the_optimum("elbo_optimality_probes", ExperimentConfig(n=400, m=24),
                                  lambda u, R: (0 * u, R))
    assert check.status == "fail", check.detail


@pytest.mark.parametrize("over, names", [
    ({}, None), ({"ridge": 0.01}, None),
    ({"ridge": 0.01}, ("kl_two_path", "excess_risk_bound", "derivative_bound")),
], ids=["linked", "unlinked", "subset"])
def test_run_verification_is_verify_problem_on_the_seeded_instance(over, names):
    config = small_config(**over)
    checks = verify_problem(*make_problem(config), config.seed, names)
    assert [c.to_dict() for c in checks] == run_verification(config, names).to_dict()["checks"]
    assert [c.name for c in checks] == [name for name, _ in CHECKS
                                        if names is None or name in names]


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


@pytest.mark.parametrize("flags", [("--noise-var", "-1")])
def test_cli_bounds_rejects_bad_parameter(flags, capsys):
    assert run_cli("bounds", "burt", *flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: InvalidParameter: ") and "must be positive" in err


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


BOUND_CHECKS = {
    "burt": ["burt_bound", "burt_bound_intermediate"],
    "quadratic_form": ["quadratic_form_gap"],
    "excess_risk": ["excess_risk_bound"],
    "rkhs_distance": ["rkhs_distance_bound"],
    "derivative": ["derivative_bound"],
    "expected_kl": ["expected_kl_sandwich"],
    "expected_excess_risk": ["expected_excess_risk_lower_bound"],
}


def json_checks(capsys, *argv):
    code = run_cli(*argv, "--format", "json")
    return code, json.loads(capsys.readouterr().out)["checks"]


@pytest.mark.parametrize("flags", [("--n", "30", "--m", "5", "--mc-samples", "500"),
                                   (), ("--ridge", "0.01")],
                         ids=["small", "defaults", "ridge0.01"])
def test_cli_bounds_commands(flags, capsys):
    # each `bounds NAME` reports exactly NAME's checks of `verify`, dict for
    # dict, and exits 0 when they pass; an unlinked ridge problem draws its
    # own Monte-Carlo sample
    code, verify_checks = json_checks(capsys, "verify", *flags)
    assert code == 0
    by_name = {c["name"]: c for c in verify_checks}
    for name, checks in BOUND_CHECKS.items():
        code, bound_checks = json_checks(capsys, "bounds", name, *flags)
        assert code == 0, name
        assert [c["name"] for c in bound_checks] == checks
        assert bound_checks == [by_name[c] for c in checks]
        assert all(c["status"] == "pass" for c in bound_checks)
    assert run_cli("bounds", "burt", *flags) == 0
    assert "burt_bound_intermediate" in capsys.readouterr().out


def test_cli_bounds_evaluates_the_verify_instance(capsys):
    # `bounds` reads the instance `verify` checks, targets rescaled to norm
    # 10 included: the prior draw's norm is above 10 at this config
    config = ExperimentConfig(n=400, m=24)
    prob, _, _ = make_problem(config)
    assert float(prob.data.targets @ prob.data.targets) == pytest.approx(100.0)
    verify_checks = [c.to_dict() for c in run_verification(config).checks]
    by_name = {c["name"]: c for c in verify_checks}
    for name, checks in BOUND_CHECKS.items():
        code, bound_checks = json_checks(capsys, "bounds", name, "--n", "400", "--m", "24")
        assert bound_checks == [by_name[c] for c in checks], name
        assert code == (0 if all(c["status"] == "pass" for c in bound_checks) else 1)
    burt = by_name["burt_bound"]
    assert burt["status"] == "pass" and burt["lhs"] > 0


def test_cli_bounds_exits_1_on_an_inverted_kl_band(monkeypatch, capsys):
    # the monkeypatch of test_expected_kl_check_fails_on_inverted_band:
    # `bounds` fails where `verify` does
    monkeypatch.setattr(bounds, "expected_kl_sandwich",
                        lambda *args, **kwargs: (-0.75, 1.0, -0.5, -1.0))
    code, checks = json_checks(capsys, "bounds", "expected_kl", "--n", "30", "--m", "5",
                               "--mc-samples", "500")
    assert code == 1
    assert [(c["name"], c["status"]) for c in checks] == [("expected_kl_sandwich", "fail")]


def test_cli_bounds_exits_2_on_a_skipped_check(capsys):
    code, checks = json_checks(capsys, "bounds", "derivative", "--kernel", "polynomial",
                               "--n", "30", "--m", "5")
    assert code == 2
    assert checks == [{"name": "derivative_bound", "status": "skipped",
                       "detail": "non-gaussian kernel"}]


@pytest.mark.parametrize("command, flag", [
    *((("fit", "svgp", "--data"), flag) for flag in ("--n", "--d", "--mc-samples", "--format")),
    *((("synth", "--out"), flag)
      for flag in ("--m", "--ridge", "--select", "--mc-samples", "--format")),
])
def test_subcommands_reject_flags_they_do_not_read(command, flag, tmp_path, capsys):
    # a flag the subcommand would ignore is an argparse error, also where it
    # is a prefix of one it takes (--n of --noise-var)
    value = {"--format": "json", "--select": "uniform"}.get(flag, "7")
    with pytest.raises(SystemExit) as exc:
        main([*command, str(tmp_path / "t.csv"), flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: sparsegp {command[0]} ")
    assert f"unrecognized arguments: {flag} {value}" in err


@pytest.mark.parametrize("command", [("fit", "svgp", "--data", "t.csv"), ("verify",),
                                     ("bounds", "burt"), ("synth", "--out", "t.csv")])
def test_unknown_flag_prints_the_usage_of_its_subcommand(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--bogus", "7"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: sparsegp {command[0]} ")
    assert err.rstrip().endswith(f"sparsegp {command[0]}: error: unrecognized arguments: --bogus 7")


@pytest.mark.parametrize("command", [("synth", "--n", "5"), ("verify",)])
def test_zero_input_dimension_exits_2_naming_d(command, tmp_path, capsys):
    out = tmp_path / "f.csv"
    argv = [*command, "--out", str(out)] if command[0] == "synth" else list(command)
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--d", "0"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.rstrip().endswith(f"sparsegp {command[0]}: error: argument --d: "
                                 "input dimension d must be >= 1, got 0")
    assert not out.exists()
    # the library names d too, as a set-up error of the run
    report = run_verification(small_config(d=0))
    assert [c.to_dict() for c in report.checks] == [{
        "name": "setup", "status": "error",
        "detail": "InvalidParameter: input dimension d must be >= 1, got 0"}]


@pytest.mark.parametrize("argv, message", [
    (("synth", "--n", "-5"), "argument --n: number of points n must be >= 1, got -5"),
    (("synth", "--n", "0"), "argument --n: number of points n must be >= 1, got 0"),
    (("synth", "--n", "50", "--seed", "-1"), "argument --seed: seed must be >= 0, got -1"),
    (("fit", "svgp", "--select", "uniform", "--seed", "-1"),
     "argument --seed: seed must be >= 0, got -1"),
    (("verify", "--n", "-5"), "argument --n: number of points n must be >= 1, got -5"),
    (("verify", "--seed", "-1"), "argument --seed: seed must be >= 0, got -1"),
    (("bounds", "burt", "--seed", "-1"), "argument --seed: seed must be >= 0, got -1"),
    *(((*cmd, "--gamma", v),
       f"argument --gamma: length-scale gamma must be finite and > 0, got {v}")
      for cmd, v in ((("verify",), "-1"), (("bounds", "burt"), "0"),
                     (("fit", "svgp"), "0"), (("synth",), "-1"),
                     (("verify",), "inf"), (("bounds", "burt"), "inf"),
                     (("fit", "svgp"), "inf"), (("synth",), "inf"))),
    *(((*cmd, "--gamma", v),
       f"argument --gamma: length-scale gamma needs gamma^2 finite and > 0, got {v}")
      for cmd, v in ((("verify",), "1e+200"), (("fit", "svgp"), "1e+200"),
                     (("synth",), "1e+200"), (("verify",), "1e-200"),
                     (("bounds", "burt"), "1e-200"))),
], ids=["synth-n", "synth-n0", "synth-seed", "fit-seed", "verify-n", "verify-seed",
        "bounds-seed", "verify-gamma", "bounds-gamma", "fit-gamma", "synth-gamma",
        "verify-gamma-inf", "bounds-gamma-inf", "fit-gamma-inf", "synth-gamma-inf",
        "verify-gamma-sq-inf", "fit-gamma-sq-inf", "synth-gamma-sq-inf",
        "verify-gamma-sq-0", "bounds-gamma-sq-0"])
def test_negative_count_or_seed_is_a_usage_error(argv, message, tmp_path, capsys):
    # a usage error naming the flag (exit 2), not numpy's ValueError or, for
    # a length-scale --gamma <= 0 or infinite, a set-up error of the run (an
    # infinite length-scale gives the rank-1 all-ones Gram); a length-scale
    # whose square overflows (a traceback) or underflows (a NaN Gram) too
    out = tmp_path / "f.csv"
    if argv[0] == "synth":
        argv = (*argv, "--out", str(out))
    elif argv[0] == "fit":
        argv = (*argv[:2], "--data", str(tmp_path / "t.csv"), *argv[2:])
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: sparsegp {argv[0]} ")
    assert err.rstrip().endswith(f"sparsegp {argv[0]}: error: {message}")
    assert not out.exists()


@pytest.mark.parametrize("command, code", [(("verify",), 1), (("bounds", "rkhs_distance"), 2)],
                         ids=["verify", "bounds"])
def test_underflowing_ridge_is_an_error_of_the_rkhs_check(command, code, capsys):
    # (n ridge)^2 underflows to 0: the bound's division is a typed error of
    # its check, not a ZeroDivisionError traceback or a non-JSON Infinity
    argv = [*command, "--n", "5", "--m", "3", "--ridge", "1e-170", "--format", "json"]
    assert main(argv) == code
    out, err = capsys.readouterr()
    check = next(c for c in json.loads(out)["checks"] if c["name"] == "rkhs_distance_bound")
    detail = "InvalidParameter: ridge 1e-170 is too small: (n ridge)^2 underflows to 0"
    assert check == {"name": "rkhs_distance_bound", "status": "error", "detail": detail}
    assert err == ("" if code == 1 else f"error: {detail}\n")


@pytest.mark.parametrize("ridge", ["-1", "0"])
def test_non_positive_ridge_is_named(ridge, capsys):
    # the ridge problem is rebuilt at s2 = n * ridge; the error names the
    # ridge, not the noise
    assert main(["bounds", "burt", "--n", "30", "--m", "5", "--mc-samples", "500",
                 "--ridge", ridge, "--format", "json"]) == 2
    out, err = capsys.readouterr()
    setup = {"name": "setup", "status": "error",
             "detail": "InvalidParameter: ridge must be positive"}
    assert json.loads(out)["checks"] == [setup]
    assert err == "error: InvalidParameter: ridge must be positive\n"
    assert main(["verify", "--n", "30", "--m", "5", "--mc-samples", "500",
                 "--ridge", ridge, "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out)["checks"] == [setup]
    prob, _, _ = make_problem(small_config())
    with pytest.raises(InvalidParameter, match="^ridge must be positive$"):
        prob.at_ridge(float(ridge))


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


# A field of 200 001 characters, past csv.field_size_limit() (131072 by default)
LONG_FIELD = "0." + "0" * 199998 + "1"


@pytest.mark.parametrize("text, message", [
    ("x1,y\n1.0,2.0\nnan,3.0\n",
     "ParseError: line 3: dataset contains NaN or Inf: x1 = 'nan'"),
    ("x1,y\r\n", "EmptyFile: {path} has a header but no data rows"),
    ("x1,y\n1_0," + LONG_FIELD + "\n",  # the 1_0 field sends the file row by row
     "ParseError: line 2: field larger than field limit (131072)"),
    ("x" * 200000 + ",y\n1,2\n", "ParseError: line 1: field larger than field limit (131072)"),
], ids=["nan", "header-only", "long-field", "long-header"])
def test_cli_fit_bad_csv_exits_2_with_one_line(text, message, tmp_path, capsys):
    # a typed error, not a traceback (exit 1)
    path = tmp_path / "bad.csv"
    path.write_text(text, encoding="utf-8", newline="")
    assert run_cli("fit", "svgp", "--data", str(path), "--m", "1") == 2
    assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"


def test_overflowed_gram_is_a_typed_error():
    # (x.x')^400 overflows to inf on [-3, 3]: `bounds` exits 2 with one line
    # on stderr (no warning, no traceback), and verify reports the setup
    # error by its type
    message = ("NonFiniteValue: the polynomial Gram overflows at degree 400; "
               "lower the degree or rescale the inputs")
    proc = subprocess.run(
        [sys.executable, "-m", "sparsegp.cli", "bounds", "burt", "--kernel",
         "polynomial", "--degree", "400"],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [f"error: {message}"]
    report = run_verification(small_config(kernel_family="polynomial", degree=400))
    assert [c.to_dict() for c in report.checks] == [{
        "name": "setup", "status": "error", "detail": message}]


# The check statuses of the regression configs of ROADMAP item 1 and of
# the n=400 unlinked-ridge and n=2000 runs, every other check passing. This
# is the one status pin: a change that moves a status must update it and
# say so in CHANGES.md.
PINNED_STATUSES = [
    ({}, {}),
    ({"d": 3}, {}),
    ({"select": "uniform"}, {}),
    ({"ridge": 0.01}, {}),
    ({"ridge": 0.01, "n": 400, "m": 24}, {"psi_maps_mu_star_to_beta": "fail"}),
    ({"kernel_family": "polynomial"},
     {"psi_maps_mu_star_to_beta": "fail", "derivative_bound": "skipped"}),
    ({"n": 300, "m": 20}, {"psi_maps_mu_star_to_beta": "fail"}),
    ({"n": 800, "m": 40}, {"psi_maps_mu_star_to_beta": "fail"}),
    ({"n": 2000, "m": 60}, {"psi_maps_mu_star_to_beta": "fail"}),
    ({"n": 60, "m": 30, "noise_var": 1e-4},
     {"svgp_nystrom_equivalence": "fail", "nystrom_two_routes": "fail",
      "psi_maps_mu_star_to_beta": "fail", "excess_risk_identity": "fail"}),
    ({"select": "uniform", "n": 800, "m": 40},
     {"svgp_nystrom_equivalence": "fail", "nystrom_two_routes": "fail",
      "psi_maps_mu_star_to_beta": "fail",
      "excess_risk_identity": "fail"}),
]


@pytest.mark.parametrize("over, expected", PINNED_STATUSES,
                         ids=["defaults", "d3", "uniform", "ridge0.01", "ridge0.01-n400",
                              "polynomial", "n300", "n800", "n2000", "noise1e-4",
                              "uniform800"])
def test_check_statuses_are_pinned_on_the_regression_configs(over, expected,
                                                            symmetric_copies):
    report = run_verification(ExperimentConfig(**over))
    statuses = {c.name: c.status for c in report.checks}
    assert len(statuses) == len(CHECKS)
    assert statuses == {name: expected.get(name, "pass") for name in statuses}
    # every Gram, factor and norm input of a run is read in place
    assert symmetric_copies == []


def test_check_names_match_the_benchmark_tracer(monkeypatch):
    # The benchmark's verify workload fails every op whose report does not
    # list exactly perfbench/tracer.py's CHECK_NAMES, in report order. The
    # tracer is loaded by path and left as it is (no bytecode is written).
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(tracer)
    assert tuple(name for name, _ in CHECKS) == tracer.CHECK_NAMES, (
        "harness.CHECKS no longer matches perfbench/tracer.py's CHECK_NAMES, so "
        "the benchmark would fail every verify op; a [benchmark] PR must change "
        "CHECK_NAMES first")
