import json
from pathlib import Path

import pytest

from enlargekit import cli, experiments
from enlargekit.classifier import EXPONENT_MARGIN, classify
from enlargekit.enlargement import RefusedNonSemimartingaleError
from enlargekit.integrands import jeulin_yor
from enlargekit.cli import (
    EXIT_CONFIG,
    EXIT_PASS,
    EXIT_REFUSAL,
    EXIT_STAT_FAIL,
    EXIT_UNDECIDED,
    main,
)

FOUR_OUTCOME = """
outcomes: a b c d
prob: 1/6 1/3 1/4 1/4
stage: {a,b} {c,d}
stage: {a} {b} {c} {d}
X: a=1 b=1 c=0 d=0
"""


def test_classify_refusal_exit_code(capsys):
    assert main(["classify", "--alpha", "0.75", "--T", "1"]) == EXIT_REFUSAL
    out = capsys.readouterr().out
    assert "NOT_SEMIMARTINGALE" in out


def test_classify_pass_and_undecided():
    assert main(["classify", "--m", "const:c=1,T=1"]) == EXIT_PASS
    assert main(["classify", "--alpha", "1.002"]) == EXIT_UNDECIDED
    assert main(["classify", "--alpha", "0.4"]) == EXIT_REFUSAL  # not even defined


def test_classify_report_explains_an_undecided_verdict(tmp_path):
    assert main(["classify", "--alpha", "1.002", "--out", str(tmp_path), "--no-timestamp"]) == EXIT_UNDECIDED
    report = json.loads((tmp_path / "classify.json").read_text())
    assert set(report) == {"command", "family", "T", "rungs", "jy_value", "l2_value", "verdict",
                           "rungs_used", "ladders"}
    jy, l2 = report["ladders"]["jy"], report["ladders"]["l2"]
    assert jy["status"] == report["jy_value"] == "UNDECIDED" and jy["extrapolated_tail"] is None
    assert -EXPONENT_MARGIN < jy["margin"] < 0.0 and abs(jy["decay_exponent"] - 1.0) < EXPONENT_MARGIN
    assert l2["status"] == "FINITE" and l2["margin"] > 0.0 and 0.0 < l2["extrapolated_tail"] < report["l2_value"]
    assert len(jy["last_increments"]) == len(l2["last_increments"]) == 3


def test_config_error_exit_codes(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--bogus-flag"])
    assert exc.value.code == EXIT_CONFIG
    # unreadable instance file is a config error, not a crash
    assert main(["finite-demo", "--instance", str(tmp_path / "missing.cfg")]) == EXIT_CONFIG
    # malformed integrand spec
    assert main(["drift-sim", "--phi", "nope:z=1", "--paths", "100", "--steps", "16"]) == EXIT_CONFIG


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as e:
        return e.code


NOT_POSITIVE = [
    ["bridge-demo", "--paths", "-5", "--steps", "16"],
    ["bridge-demo", "--paths", "100", "--steps", "0"],
    ["drift-sim", "--paths", "1.5", "--steps", "16"],
    ["mg-test", "--paths", "0", "--steps", "16"],
    ["jeulin-probe", "--paths", "-1"],
    ["finite-demo", "--random", "0"],
    ["lookahead-demo", "--paths", "100", "--levels", "8,-10"],
    ["lookahead-demo", "--paths", "100", "--levels", "8,x"],
]

BAD_EPSILON = [
    ["lookahead-demo", "--epsilon", eps, "--paths", "100"]
    for eps in ("nan", "inf", "0", "-1", "2^nan")
]


@pytest.mark.parametrize("argv", [
    ["classify", "--alpha", "nan"],
    ["classify", "--T", "nan"],
    ["classify", "--T", "-1"],
    ["classify", "--rungs", "0"],
    ["mg-test", "--threshold", "nan", "--paths", "100", "--steps", "16"],
    ["mg-test", "--process", "drifted", "--drift", "inf", "--paths", "100", "--steps", "16"],
    ["levy-demo", "--rate", "nan", "--paths", "100", "--steps", "16"],
    ["lookahead-demo", "--delta", "nan", "--paths", "100"],
    ["classify", "--m", "const:c=nan,T=1"],
    ["levy-demo", "--jumps", "normal:mu=nan", "--paths", "100", "--steps", "16"],
    ["levy-demo", "--jumps", "const:inf", "--paths", "100", "--steps", "16"],
    ["drift-sim", "--phi", "linear:T=nan", "--paths", "100", "--steps", "16"],
    *NOT_POSITIVE,
    ["levy-demo", "--rate", "1e12", "--paths", "10", "--steps", "16"],
    ["lookahead-demo", "--levels", "8,25", "--paths", "10000"],
    *BAD_EPSILON,
    ["bridge-demo", "--steps", "1000000000000", "--paths", "10"],
    ["mg-test", "--steps", "1000000000000", "--paths", "10"],
    ["levy-demo", "--steps", "1000000000000", "--paths", "10"],
    ["classify", "--rungs", "1000000000000"],
    ["classify", "--alpha", "0.75", "--rungs", "60"],
    ["drift-sim", "--phi", "jy:alpha=0.4,T=1", "--paths", "100", "--steps", "16"],
    ["classify", "--family", "jy"],
])
def test_bad_input_is_a_config_error_before_any_work(argv, capsys):
    assert _exit_code(argv) == EXIT_CONFIG
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", NOT_POSITIVE)
def test_counts_are_checked_at_parse_time(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "is not a positive integer" in err


@pytest.mark.parametrize("argv", BAD_EPSILON)
def test_epsilon_is_checked_at_parse_time(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "is not a finite positive number" in err


def test_parser_is_built_once_and_keeps_no_state(monkeypatch):
    argvs = [
        ["bridge-demo", "--paths", "-5"],
        ["finite-demo", "--random", "2", "--seed", "3"],
        ["classify", "--bogus-flag"],
        ["classify", "--m", "const:c=1,T=1"],
        ["lookahead-demo", "--levels", "0"],
    ]
    assert cli.build_parser() is cli.build_parser()
    cached = [_exit_code(argv) for argv in argvs]
    after = vars(cli.build_parser().parse_args(["finite-demo"]))
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)  # a fresh parser per call
    fresh = [_exit_code(argv) for argv in argvs]
    assert cached == fresh == [EXIT_CONFIG, EXIT_PASS, EXIT_CONFIG, EXIT_PASS, EXIT_CONFIG]
    assert after == vars(cli.build_parser().parse_args(["finite-demo"]))


def test_threads_is_refused_where_nothing_reads_it():
    argv = ["--paths", "100", "--steps", "16", "--threads", "2"]
    assert _exit_code(["bridge-demo"] + argv) == EXIT_CONFIG
    assert _exit_code(["mg-test"] + argv) == EXIT_CONFIG
    assert _exit_code(["lookahead-demo", "--paths", "100", "--threads", "2"]) == EXIT_CONFIG


def test_only_the_named_refusal_exits_as_a_refusal(monkeypatch):
    # an unexpected RuntimeError (RecursionError, NotImplementedError, ...)
    # is a crash, not a classifier refusal
    argv = ["jeulin-probe", "--paths", "100", "--case", "finite"]

    def raises(exc):
        def run(*args, **kwargs):
            raise exc
        return run

    monkeypatch.setattr(experiments, "run_jeulin_probe", raises(RuntimeError("unexpected")))
    with pytest.raises(RuntimeError):
        main(argv)
    refusal = RefusedNonSemimartingaleError(classify(jeulin_yor(0.75), 1.0))
    monkeypatch.setattr(experiments, "run_jeulin_probe", raises(refusal))
    assert main(argv) == EXIT_REFUSAL


def test_finite_demo_instance_file(tmp_path, capsys):
    cfg = tmp_path / "four.cfg"
    cfg.write_text(FOUR_OUTCOME)
    code = main(["finite-demo", "--instance", str(cfg), "--out", str(tmp_path / "out"),
                 "--no-timestamp"])
    assert code == EXIT_PASS
    report = json.loads((tmp_path / "out" / "finite_demo.json").read_text())
    assert report["all_exact_checks_pass"] is True
    assert report["n_instances"] == 1
    assert "1/3" in json.dumps(report)  # exact rationals survive serialization


def test_finite_demo_random_instances(tmp_path):
    assert main(["finite-demo", "--random", "15", "--seed", "9"]) == EXIT_PASS


def test_finite_demo_bundled_instance():
    bundled = Path(__file__).resolve().parent.parent / "instances" / "four_outcome.cfg"
    assert main(["finite-demo", "--instance", str(bundled)]) == EXIT_PASS


def test_mg_test_pass_and_fail():
    assert main(["mg-test", "--paths", "8000", "--steps", "64", "--seed", "3"]) == EXIT_PASS
    assert main(["mg-test", "--paths", "8000", "--steps", "64", "--process", "drifted",
                 "--drift", "0.5"]) == EXIT_STAT_FAIL


def test_lookahead_demo_runs():
    assert main(["lookahead-demo", "--paths", "2000", "--levels", "8,10",
                 "--epsilon", "2^-6", "--seed", "4"]) == EXIT_PASS


def test_lookahead_sup_check_allows_for_sampling_error():
    # at level 8 the tail bound 0.0171 lies 0.001 above the exact probability;
    # seed 4 estimates 0.0184 from 5000 paths, 1.3 standard errors above it
    assert main(["lookahead-demo", "--paths", "5000", "--levels", "8,10", "--seed", "4"]) == EXIT_PASS
    # at coarse levels the tail bound exceeds 1 and bounds nothing
    assert main(["lookahead-demo", "--paths", "200", "--levels", "1,2", "--epsilon", "0.5",
                 "--seed", "1"]) == EXIT_PASS


def test_lookahead_rejects_unpredictable_level():
    assert main(["lookahead-demo", "--paths", "100", "--levels", "5",
                 "--epsilon", "2^-6"]) == EXIT_CONFIG


def test_bridge_demo_small_run_writes_reports(tmp_path):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    args = ["bridge-demo", "--paths", "8000", "--steps", "256", "--seed", "42",
            "--no-timestamp"]
    assert main(args + ["--out", str(out1)]) == EXIT_PASS
    assert main(args + ["--out", str(out2)]) == EXIT_PASS
    a = (out1 / "bridge_demo.json").read_bytes()
    b = (out2 / "bridge_demo.json").read_bytes()
    assert a == b  # same config + seed: byte-identical reports
    report = json.loads(a)
    assert report["battery"]["verdict"] == "pass"
    assert report["negative_control"]["verdict"] == "fail"
    lines = (out1 / "bridge_demo_battery.csv").read_text().splitlines()
    assert lines[0] == "s,t,basis,estimate,se,z"
    assert len(lines) == 1 + len(report["battery"]["tests"])
    s, t, basis, estimate, se, z = lines[-1].split(",")
    row = {"s": float(s), "t": float(t), "basis": basis,
           "estimate": float(estimate), "se": float(se), "z": float(z)}
    assert row == report["battery"]["tests"][-1]  # full precision: exact float equality
    # resolved config is embedded
    assert report["seed"] == 42 and report["n_base_steps"] == 256


def test_bridge_demo_checks_qv_against_its_grid_expectation(tmp_path):
    # at 128 base steps E[QV of W - A at 0.9] is 0.8824 on the grid, 2% below 0.9
    argv = ["bridge-demo", "--paths", "6000", "--steps", "128", "--seed", "42",
            "--no-timestamp", "--out", str(tmp_path)]
    assert main(argv) == EXIT_PASS
    qv = json.loads((tmp_path / "bridge_demo.json").read_text())["quadratic_variation"]
    assert qv["passed"] and qv["expected"] == pytest.approx(0.88237, abs=1e-5)


@pytest.mark.parametrize("alpha", ["0.6", "0.75"])
def test_drift_sim_compensates_a_slowly_decaying_phi(alpha, tmp_path):
    # with the continuous σ²_t = ∫_t^∞ φ² in the drift, these failed at
    # max |z| 50.03 and 30.92: σ² must be that of the X the grid builds
    argv = ["drift-sim", "--phi", f"jy:alpha={alpha},T=1", "--paths", "20000", "--seed", "3",
            "--out", str(tmp_path), "--no-timestamp"]
    assert main(argv) == EXIT_PASS
    report = json.loads((tmp_path / "drift_sim.json").read_text())
    assert max(abs(t["z"]) for t in report["battery"]["tests"]) <= report["threshold"]


def test_bridge_demo_timestamp_isolated(tmp_path):
    args = ["bridge-demo", "--paths", "2000", "--steps", "256", "--seed", "1"]
    assert main(args + ["--out", str(tmp_path / "t1")]) == EXIT_PASS
    report = json.loads((tmp_path / "t1" / "bridge_demo.json").read_text())
    assert "timestamp" in report


def test_jeulin_probe_cli():
    assert main(["jeulin-probe", "--paths", "2500", "--seed", "11", "--case", "both"]) == EXIT_PASS


def test_levy_demo_cli():
    assert main(["levy-demo", "--paths", "10000", "--steps", "128", "--seed", "5"]) == EXIT_PASS
