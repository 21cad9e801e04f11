"""Acceptance gate: every criterion at its stated tolerance, one
pass/fail line printed per criterion.

The heavy Monte Carlo runs are session-scoped fixtures shared across
criteria; everything is streamed, so the suite stays inside a few GB and
a few minutes.
"""

import random
import time

import pytest

from enlargekit import finitelab as fl
from enlargekit.classifier import (
    FINITE,
    NOT_DEFINED,
    NOT_SEMIMARTINGALE,
    SEMIMARTINGALE,
    classify,
    jeulin_yor_functional,
)
from enlargekit.experiments import (
    ABS_DRIFT_CONSTANT,
    log_density_convergence,
    run_bridge_demo,
    run_enlargement_demo,
    run_jeulin_probe,
    run_levy_demo,
    run_lookahead_demo,
    run_section5_integral,
)
from enlargekit.integrands import constant, linear_ramp, residual_variance, tabulated
from enlargekit.paths import rademacher_jumps

SEED = 20240901
Z_LIMIT = 4.0


@pytest.fixture()
def announce(capfd):
    """One pass/fail line per criterion, printed past the output capture."""

    def _announce(num: int, name: str, ok: bool, detail: str = "") -> None:
        line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} {detail}"
        with capfd.disabled():
            print(line, flush=True)
        assert ok, f"criterion {num}: {name} {detail}"

    return _announce


@pytest.fixture(scope="session")
def bridge_run():
    # N = 2e5 paths, 2^10 base steps, geometric refinement near the horizon
    return run_bridge_demo(200_000, 1024, SEED)


def test_criterion_01_bridge_martingale_certification(bridge_run, announce):
    battery = bridge_run["battery"]
    worst = max(abs(r["z"]) for r in battery["tests"])
    pairs = {(r["s"], r["t"]) for r in battery["tests"]}
    ok = battery["verdict"] == "pass" and pairs == {(0.25, 0.5), (0.5, 0.75), (0.25, 0.9)}
    neg = bridge_run["negative_control"]
    rec = next(r for r in neg["tests"] if r["basis"] == "X-W_s" and r["s"] == 0.25 and r["t"] == 0.5)
    ok = ok and neg["verdict"] == "fail" and abs(rec["z"]) > 10.0
    announce(
        1, "bridge martingale certification", ok,
        f"(battery max |z| = {worst:.2f}; negative control z = {rec['z']:.1f}, "
        f"estimate = {rec['estimate']:.4f})",
    )


def test_criterion_02_symmetry_identity(bridge_run, announce):
    rep = next(s for s in bridge_run["symmetry"] if s["s"] == 0.25 and s["t"] == 0.5)
    ok = abs(rep["slope"] - 1.0 / 3.0) <= Z_LIMIT * rep["se"]
    announce(2, "symmetry identity slope", ok,
              f"(slope = {rep['slope']:.5f}, se = {rep['se']:.2e})")


def test_criterion_03_drift_integral_constant(bridge_run, announce):
    rungs = bridge_run["abs_drift_ladder"]["rungs"]
    within = all(r["within"] for r in rungs)
    gaps = [abs(r["mean"] - ABS_DRIFT_CONSTANT) for r in rungs]
    converging = gaps[-1] < gaps[0]
    quad = jeulin_yor_functional(constant(1.0, 1.0), 1.0)
    quad_ok = quad.status == FINITE and abs(quad.value - 2.0) < 1e-6
    ok = within and converging and quad_ok
    announce(
        3, "drift-integral constant", ok,
        f"(deepest mean = {rungs[-1]['mean']:.5f} vs {ABS_DRIFT_CONSTANT:.5f}, "
        f"quadrature gap = {abs(quad.value - 2.0):.2e})",
    )


def test_criterion_04_classifier_table(announce):
    expected = {
        0.4: NOT_DEFINED,
        0.6: NOT_SEMIMARTINGALE,
        0.75: NOT_SEMIMARTINGALE,
        0.9: NOT_SEMIMARTINGALE,
        1.1: SEMIMARTINGALE,
        1.25: SEMIMARTINGALE,
        1.5: SEMIMARTINGALE,
    }
    from enlargekit.integrands import jeulin_yor

    got = {a: classify(jeulin_yor(a, 1.0), 1.0).verdict for a in expected}
    const_verdict = classify(constant(1.0, 1.0), 1.0)
    const_ok = (
        const_verdict.verdict == SEMIMARTINGALE
        and abs(const_verdict.jy.value - 2.0) < 1e-6
    )
    ok = got == expected and const_ok
    announce(4, "classifier verdict table", ok, f"({got})")


@pytest.fixture(scope="session")
def ramp_run():
    return run_enlargement_demo(linear_ramp(1.0), 100_000, 1024, SEED + 1)


def test_criterion_05_general_information_drift(ramp_run, announce):
    # sigma_t^2 = (1-t)^3/3 for the decaying-ramp integrand
    assert residual_variance(linear_ramp(1.0), 0.25) == pytest.approx(0.75**3 / 3.0)
    battery = ramp_run["battery"]
    worst = max(abs(r["z"]) for r in battery["tests"])
    announce(5, "general-integrand drift battery", battery["verdict"] == "pass",
              f"(max |z| = {worst:.2f}, phi = {ramp_run['phi']})")


def test_criterion_06_integration_under_enlargement(announce):
    rep = run_section5_integral(50_000, 512, SEED + 2, H=tabulated([0.0, 1.0], [0.0, 1.0]))
    battery = rep["battery"]
    worst = max(abs(r["z"]) for r in battery["tests"])
    gap_ok = rep["additivity_gap"] <= 1e-12
    announce(6, "stochastic integral decomposition", battery["verdict"] == "pass" and gap_ok,
              f"(additivity gap = {rep['additivity_gap']:.2e}, max |z| = {worst:.2f})")


def test_criterion_07_levy_bridge(announce):
    rep = run_levy_demo(1.0, rademacher_jumps(), 100_000, 512, SEED + 3)
    battery = rep["battery"]
    worst = max(abs(r["z"]) for r in battery["tests"])
    labels = {r["basis"] for r in battery["tests"]}
    ok = battery["verdict"] == "pass" and labels == {"1", "Z_s", "Z_T"}
    announce(7, "jump-process bridge battery", ok, f"(max |z| = {worst:.2f})")


def test_criterion_08_lookahead_demo(announce):
    rep = run_lookahead_demo(2.0**-6, [8, 10, 12], 10_000, SEED + 4)
    levels = rep["levels"]
    means_ok = all(
        abs(lv["integral_mean"] - 1.0) <= Z_LIMIT * lv["integral_se"] for lv in levels
    )
    probs = [lv["sup_exceed_prob"] for lv in levels]
    # at least a factor 10 per two levels; exact zeros continue the collapse
    decay_ok = all(p1 <= p0 / 10.0 or p1 == 0.0 for p0, p1 in zip(probs, probs[1:]))
    announce(8, "look-ahead non-integrator", means_ok and decay_ok,
              f"(means {[round(lv['integral_mean'], 4) for lv in levels]}, sup probs {probs})")


def test_criterion_09_finite_lab_exactness(announce):
    t0 = time.time()
    rng = random.Random(SEED)
    mg_rng = random.Random(SEED + 1)
    for _ in range(200):
        space, filt, xmap = fl.random_instance(rng)
        setup = fl.enlargement_setup(space, filt, xmap)
        ok_ac, witness = fl.check_absolute_continuity(setup)
        assert ok_ac, f"absolute continuity failed: {witness}"
        assert fl.likelihood_is_decoupled_martingale(setup)
        mart = fl.random_adapted_martingale(space, filt, mg_rng)
        g = fl.discrete_girsanov(mart, setup)
        assert g.is_enlarged_martingale
    elapsed = time.time() - t0
    announce(9, "finite-space exact verification", elapsed < 30.0,
              f"(200 instances, zero tolerance, {elapsed:.1f}s)")


def test_criterion_10_density_identity_self_convergence(announce):
    rep = log_density_convergence(10_000, SEED + 5)
    target = rep["target_ratio"]
    ok = all(abs(r - target) <= 0.25 * target for r in rep["ratios"])
    announce(10, "log-density residual order-1/2", ok,
              f"(ratios {[round(r, 3) for r in rep['ratios']]} vs {target:.3f} ± 25%)")


def test_criterion_11_jeulin_probe_two_sided(announce):
    fin = run_jeulin_probe("finite", 5000, SEED + 6)
    div = run_jeulin_probe("divergent", 5000, SEED + 6)
    ok = fin["cauchy_fraction"] >= 0.99 and div["exceed_fraction"] >= 0.99
    announce(
        11, "two-sided integral-finiteness probe", ok,
        f"(finite cauchy = {fin['cauchy_fraction']:.3f}, "
        f"divergent exceed = {div['exceed_fraction']:.3f} at ceiling {div['ceiling']})",
    )
