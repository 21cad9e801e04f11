import json
from pathlib import Path

import pytest

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
    assert main(["classify", "--family", "jy", "--alpha", "0.75", "--T", "1"]) == EXIT_REFUSAL
    out = capsys.readouterr().out
    assert "NOT_SEMIMARTINGALE" in out


def test_classify_pass_and_undecided():
    assert main(["classify", "--m", "const:c=1,T=1"]) == EXIT_PASS
    assert main(["classify", "--alpha", "1.002"]) == EXIT_UNDECIDED
    assert main(["classify", "--alpha", "0.4"]) == EXIT_REFUSAL  # not even defined


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


@pytest.mark.parametrize("argv", [
    ["classify", "--alpha", "nan"],
    ["classify", "--T", "nan"],
    ["classify", "--T", "-1"],
    ["classify", "--rungs", "0"],
    ["mg-test", "--threshold", "nan", "--paths", "100", "--steps", "16"],
    ["mg-test", "--process", "drifted", "--drift", "inf", "--paths", "100", "--steps", "16"],
    ["levy-demo", "--rate", "nan", "--paths", "100", "--steps", "16"],
    ["lookahead-demo", "--delta", "nan", "--paths", "100"],
])
def test_bad_input_is_a_config_error_before_any_work(argv, capsys):
    assert _exit_code(argv) == EXIT_CONFIG
    assert capsys.readouterr().out == ""


def test_threads_is_refused_where_nothing_reads_it():
    argv = ["--paths", "100", "--steps", "16", "--threads", "2"]
    assert _exit_code(["bridge-demo"] + argv) == EXIT_CONFIG
    assert _exit_code(["mg-test"] + argv) == EXIT_PASS


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
    assert (out1 / "bridge_demo_battery.csv").exists()
    # resolved config is embedded
    assert report["seed"] == 42 and report["n_base_steps"] == 256


def test_bridge_demo_timestamp_isolated(tmp_path):
    args = ["bridge-demo", "--paths", "2000", "--steps", "256", "--seed", "1"]
    assert main(args + ["--out", str(tmp_path / "t1")]) == EXIT_PASS
    report = json.loads((tmp_path / "t1" / "bridge_demo.json").read_text())
    assert "timestamp" in report


def test_jeulin_probe_cli():
    assert main(["jeulin-probe", "--paths", "2500", "--seed", "11", "--case", "both"]) == EXIT_PASS


def test_levy_demo_cli():
    assert main(["levy-demo", "--paths", "10000", "--steps", "128", "--seed", "5"]) == EXIT_PASS
