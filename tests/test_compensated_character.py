"""Cross-module checks: the compensated processes behave like Brownian
motion for the enlarged information flow, and the ensemble statistics are
stable under grid refinement."""

import math

import numpy as np
import pytest

from enlargekit.enlargement import EnlargementSpec, compensate_brownian, compensate_martingale, realize_X
from enlargekit.experiments import bridge_grid, run_levy_demo
from enlargekit.integrands import indicator, jeulin_yor
from enlargekit.mgtests import CharacterizationAccumulator, increment_regression_test
from enlargekit.paths import SeedSpec, rademacher_jumps, simulate_brownian


def _bridge_decomposition(n_paths, n_base, seed):
    grid = bridge_grid(n_base, include=(0.25, 0.5, 0.75))
    spec = EnlargementSpec(indicator(1.0), grid)
    ens = simulate_brownian(grid, n_paths, SeedSpec(seed))
    x = realize_X(spec, ens.values)
    return grid, ens, x, compensate_brownian(spec, ens, x)


def _characterization(values, times):
    acc = CharacterizationAccumulator(times)
    acc.update(values)
    return acc.report(4.0)


def test_compensated_motion_passes_brownian_characterization():
    # increments taken on a coarse submesh away from the pinning time, where
    # the left-point discretization bias is far below the moment SEs
    grid, ens, x, dec = _bridge_decomposition(40_000, 256, 909)
    cols = [grid.index_of(t) for t in (0.0, 0.25, 0.5, 0.75)]
    sub = dec.martingale_part[:, cols]
    rep = _characterization(sub, grid.nodes[cols])
    assert rep["verdict"] == "pass", rep["checks"]
    # the raw motion with a deterministic drift fails the same suite
    drifted = ens.values[:, cols] + 0.5 * grid.nodes[cols]
    assert _characterization(drifted, grid.nodes[cols])["verdict"] == "fail"


def test_weighted_martingale_compensation_passes_battery():
    grid = bridge_grid(256, include=(0.25, 0.5, 0.75))
    spec = EnlargementSpec(indicator(1.0), grid)
    ens = simulate_brownian(grid, 30_000, SeedSpec(321))
    x = realize_X(spec, ens.values)
    dec = compensate_martingale(spec, jeulin_yor(1.25, 1.0), ens, x)
    rep = increment_regression_test(
        dec.martingale_part, grid.nodes, x, [(0.25, 0.5), (0.5, 0.75)],
        cond_values=ens.values,
    )
    assert rep.verdict, rep.max_abs_z()


def test_battery_estimates_stable_under_grid_refinement():
    # doubling the grid density moves each estimate by less than the
    # (noise-dominated) scale of its standard errors
    reps = {}
    for n_base in (256, 512):
        grid, ens, x, dec = _bridge_decomposition(20_000, n_base, 31415)
        reps[n_base] = increment_regression_test(
            dec.martingale_part, grid.nodes, x, [(0.25, 0.5), (0.5, 0.75)],
            cond_values=ens.values,
        )
    for a, b in zip(reps[256].tests, reps[512].tests):
        assert (a.s, a.t, a.basis) == (b.s, b.t, b.basis)
        assert abs(a.estimate - b.estimate) <= 4.0 * math.hypot(a.se, b.se)


def test_compensation_removes_terminal_pinning():
    # corr(W_t, X) = t/sqrt(t) for the raw motion; the compensated motion
    # is independent of the time-0 enlarged information, so its correlation
    # with X vanishes
    grid, ens, x, dec = _bridge_decomposition(40_000, 256, 777)
    k = grid.index_of(0.75)
    raw = float(np.corrcoef(ens.values[:, k], x)[0, 1])
    comp = float(np.corrcoef(dec.martingale_part[:, k], x)[0, 1])
    n = ens.n_paths
    assert abs(raw - 0.75 / math.sqrt(0.75)) <= 4.0 / math.sqrt(n)
    assert abs(comp) <= 4.0 / math.sqrt(n)


def test_levy_terminal_increment_mean_matches_compound_poisson_law():
    rep = run_levy_demo(1.0, rademacher_jumps(), 30_000, 256, 555)
    for s, rec in rep["terminal_increment_mean"].items():
        assert rec["expected"] == pytest.approx(0.0)  # centered jumps
        assert abs(rec["z"]) <= 4.0
