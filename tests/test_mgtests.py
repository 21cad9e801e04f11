import math

import numpy as np
import pytest

from enlargekit.grid import build_grid
from enlargekit.mgtests import (
    BasisFunction,
    JeulinProbeAccumulator,
    LookaheadPredictabilityError,
    Moments,
    ProbeIntegrand,
    QVAccumulator,
    increment_regression_test,
    info_minus_state_basis,
    levy_characterization_suite,
    non_integrator_demo,
    probe_log_divergent,
    probe_power_quarter,
)
from enlargekit.paths import SeedSpec, simulate_brownian


def own_filtration_basis():
    return [BasisFunction("1", lambda w, x: np.ones_like(w)), BasisFunction("W_s", lambda w, x: w)]


def test_constant_process_estimates_exactly_zero():
    grid = build_grid(1.0, 8)
    values = np.full((100, grid.n_nodes), 1.7)
    rep = increment_regression_test(
        values, grid.nodes, np.zeros(100), [(0.25, 0.5)], own_filtration_basis()
    )
    assert all(r.estimate == 0.0 for r in rep.tests)
    assert rep.verdict


def test_battery_se_survives_a_shifted_constant():
    # increments 1e8 + N(0,1): a sum of squares minus a squared mean cancels
    # almost every digit of the variance; the two-pass value is the truth
    n = 10_000
    incr = 1e8 + np.random.default_rng(5).standard_normal(n)
    values = np.column_stack((np.zeros(n), np.zeros(n), incr))
    rep = increment_regression_test(values, np.array([0.0, 0.5, 1.0]), np.zeros(n), [(0.5, 1.0)],
                                    own_filtration_basis()[:1])
    want = float(np.std(incr, ddof=1)) / math.sqrt(n)
    assert abs(rep.tests[0].se - want) <= 1e-9 * want


@pytest.mark.parametrize("block", [1, 7, 1000])
def test_moments_match_two_pass_numpy_in_any_blocking(block):
    rng = np.random.default_rng(11)
    a = 3.0 + rng.standard_normal(1000)
    data = np.stack((a, 0.5 * a + rng.standard_normal(1000)))
    cross, diag = Moments(2, cross=True), Moments(2)
    for i in range(0, data.shape[1], block):
        cross.update(data[:, i:i + block])
        diag.update(data[:, i:i + block])
    var = data.var(axis=1, ddof=1)
    for m in (cross, diag):
        assert m.n == 1000
        np.testing.assert_allclose(m.mean, data.mean(axis=1), rtol=1e-12)
        np.testing.assert_allclose(m.se(), np.sqrt(var / 1000), rtol=1e-12)
    np.testing.assert_allclose(np.diagonal(cross.m2) / 999, var, rtol=1e-12)
    corr = cross.m2[0, 1] / math.sqrt(cross.m2[0, 0] * cross.m2[1, 1])
    assert abs(corr - np.corrcoef(data)[0, 1]) <= 1e-12 * abs(corr)


def test_battery_rejects_bad_pairs_and_empty_basis():
    grid = build_grid(1.0, 8)
    values = np.zeros((10, grid.n_nodes))
    with pytest.raises(ValueError):
        increment_regression_test(values, grid.nodes, np.zeros(10), [(0.5, 0.25)])
    with pytest.raises(ValueError):
        increment_regression_test(values, grid.nodes, np.zeros(10), [(0.25, 0.5)], basis=[])


def test_raw_brownian_passes_own_filtration_battery():
    grid = build_grid(1.0, 64)
    ens = simulate_brownian(grid, 30_000, SeedSpec(1001))
    rep = increment_regression_test(
        ens.values, grid.nodes, np.zeros(ens.n_paths),
        [(0.25, 0.5), (0.5, 0.75)], own_filtration_basis(),
    )
    assert rep.verdict
    assert rep.correction.startswith("bonferroni")


def test_false_positive_control_across_seed_replicates():
    # calibration: the 4-sigma battery on a true martingale passes nearly always
    grid = build_grid(1.0, 32)
    passed = 0
    reps = 30
    for k in range(reps):
        ens = simulate_brownian(grid, 10_000, SeedSpec(5000 + k))
        rep = increment_regression_test(
            ens.values, grid.nodes, np.zeros(ens.n_paths),
            [(0.25, 0.5), (0.5, 0.75)], own_filtration_basis(),
        )
        passed += rep.verdict
    assert passed >= reps - 1


def test_power_uncompensated_bridge_detected_every_seed():
    # the population effect is (t-s)/(1-s)*E[(W_1-W_s)^2] = 0.25 against an
    # SE of ~0.002: unmissable at 1e5 paths
    grid = build_grid(1.0, 16)
    for seed in (1, 2, 3):
        ens = simulate_brownian(grid, 100_000, SeedSpec(seed))
        x = ens.values[:, -1]
        rep = increment_regression_test(
            ens.values, grid.nodes, x, [(0.25, 0.5)], info_minus_state_basis()
        )
        assert not rep.verdict
        rec = rep.tests[0]
        assert abs(rec.z) > 10
        assert rec.estimate == pytest.approx(0.25, abs=10 * rec.se)


def _qv(values, grid, t, expected):
    acc = QVAccumulator(grid.index_of(t), t)
    acc.update(values)
    return acc.report(expected, rel_tol=0.02)


def test_quadratic_variation_of_brownian():
    grid = build_grid(1.0, 1024)
    ens = simulate_brownian(grid, 10_000, SeedSpec(99))
    assert _qv(ens.values, grid, 1.0, expected=1.0).passed
    assert _qv(np.zeros((10, grid.n_nodes)), grid, 1.0, expected=0.0).mean == 0.0


def test_characterization_suite_accepts_brownian_rejects_drift():
    grid = build_grid(1.0, 256)
    ens = simulate_brownian(grid, 50_000, SeedSpec(123))
    assert levy_characterization_suite(ens.values, grid.nodes).verdict
    drifted = ens.values + 0.5 * grid.nodes
    rep = levy_characterization_suite(drifted, grid.nodes)
    assert not rep.verdict
    assert abs(rep.check("increment_mean").z) > 4


def test_characterization_requires_zero_start():
    grid = build_grid(1.0, 8)
    with pytest.raises(ValueError):
        levy_characterization_suite(np.ones((5, grid.n_nodes)), grid.nodes)


def test_lookahead_demo_levels_and_precondition():
    grid = build_grid(1.0, 1024)
    ens = simulate_brownian(grid, 4000, SeedSpec(2))
    rep = non_integrator_demo(ens.values, grid.nodes, 2.0**-6, [8, 10], delta=0.25)
    for lv in rep.levels:
        assert abs(lv.integral_mean - 1.0) <= 4.0 * lv.integral_se
        assert lv.sup_exceed_prob <= lv.sup_tail_bound + 3.0 / 4000
    assert rep.levels[0].sup_exceed_prob >= rep.levels[1].sup_exceed_prob
    with pytest.raises(LookaheadPredictabilityError):
        non_integrator_demo(ens.values, grid.nodes, 2.0**-6, [5])


def _probe(A, values, grid, rungs, ceiling):
    acc = JeulinProbeAccumulator(A, grid.nodes, rungs, ceiling)
    acc.update(values, values[:, -1])
    return acc.report()


def test_probe_zero_integrand_gives_zero_ladder():
    grid = build_grid(1.0, 32, singular_point=1.0, refinement_ratio=0.5, depth=8)
    ens = simulate_brownian(grid, 200, SeedSpec(4))
    zero = ProbeIntegrand("zero", lambda a, b: 0.0)
    rep = _probe(zero, ens.values, grid, list(range(32, grid.n_nodes)), ceiling=1.0)
    assert rep.cauchy_fraction == 1.0
    assert rep.exceed_fraction == 0.0


def test_probe_two_sided_smoke():
    # small-N version of the calibrated two-sided claim
    grid = build_grid(1.0, 512, singular_point=1.0, refinement_ratio=0.5, depth=40)
    ens = simulate_brownian(grid, 2000, SeedSpec(14))
    rungs = list(range(511, grid.n_nodes))
    fin = _probe(probe_power_quarter(1.0), ens.values, grid, rungs, ceiling=2.5)
    div = _probe(probe_log_divergent(0.75, 1.0), ens.values, grid, rungs, ceiling=2.5)
    assert fin.cauchy_fraction >= 0.99
    assert div.exceed_fraction >= 0.99
    assert div.deterministic_integral_deepest > 4 * fin.deterministic_integral_deepest
