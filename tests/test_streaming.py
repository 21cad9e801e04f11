"""The streamed block engine against the library path, across blockings,
and within its memory budget."""

import inspect
import math
import tracemalloc
from functools import partial

import numpy as np
import pytest

from enlargekit import experiments
from enlargekit.cli import EXIT_PASS, EXIT_STAT_FAIL, main
from enlargekit.enlargement import (
    EnlargementSpec,
    NonIntegrableError,
    compensate_brownian,
    drift_magnitude_weights,
    integrate_under_enlargement,
    realize_X,
)
from enlargekit.experiments import (
    BLOCK,
    DEFAULT_PAIRS,
    bridge_grid,
    run_bridge_demo,
    run_enlargement_demo,
    run_jeulin_probe,
    run_lookahead_demo,
    run_mg_test,
    run_section5_integral,
    stream_blocks,
)
from enlargekit.integrands import constant, indicator, parse_integrand, running_mean, tabulated
from enlargekit.mgtests import (
    default_basis,
    increment_regression_test,
    info_minus_state_basis,
)
from enlargekit.grid import build_grid
from enlargekit.paths import SeedSpec, rademacher_jumps, simulate_brownian, simulate_compound_poisson

SEED = 777
REL = 1e-12


def _full_diagnostics(phi, n_paths, n_base, seed):
    return run_enlargement_demo(phi, n_paths, n_base, seed, diagnostics=True)


def _reference(phi, n_paths, n_base, seed):
    """The unfused computation in one shot: X from the running mean, the
    full decomposition from compensate_brownian, and every diagnostic on
    full path matrices, by two-pass numpy where no library battery is
    involved."""
    grid = bridge_grid(n_base, phi.support_end, include=(0.25, 0.5, 0.75, 0.9))
    spec = EnlargementSpec(phi, grid)
    times, pin = grid.nodes, phi.support_end
    seeds = SeedSpec(seed)
    ens = simulate_brownian(grid, n_paths, seeds)
    w = ens.values
    x = running_mean(phi, times, w)[:, -1]
    wt = compensate_brownian(spec, ens, x).martingale_part
    k = grid.index_of(0.9)

    def corr(a, b):
        return float(np.corrcoef(a, b)[0, 1])

    slopes = []
    for s, t in ((0.25, 0.5), (0.0, 1.0), (0.0, 0.5)):
        tt = min(t, float(times[-1])) if t >= pin else t
        ws = w[:, grid.index_of(s)]
        u, y = x - ws, w[:, grid.index_of(tt)] - ws
        slope = float(np.sum(u * y) / np.sum(u * u))
        resid = y - slope * u
        se = math.sqrt(float(np.sum(resid * resid)) / (n_paths - 1) / float(np.sum(u * u)))
        slopes.append({"slope": slope, "se": se})

    rungs = np.nonzero(times >= pin - pin / n_base - 1e-12)[0]
    dev = np.abs(x[:, None] - w)
    ladder = np.cumsum(0.5 * (dev[:, :-1] + dev[:, 1:]) * drift_magnitude_weights(times, pin), axis=1)
    ladder = ladder[:, rungs - 1]
    dwt = np.diff(wt[:, : k + 1], axis=1)
    qv = np.sum(dwt * dwt, axis=1)
    return {
        "grid_nodes": grid.n_nodes,
        "battery": increment_regression_test(
            wt, times, x, DEFAULT_PAIRS, cond_values=w, seeds=seeds).to_dict(),
        "negative_control": increment_regression_test(
            w, times, x, DEFAULT_PAIRS, default_basis() + info_minus_state_basis(), seeds=seeds).to_dict(),
        "quadratic_variation": {"mean": float(qv.mean()), "se": float(qv.std(ddof=1)) / math.sqrt(n_paths)},
        "pinning_corr_compensated": corr(wt[:, k], x),
        "pinning_corr_raw": corr(w[:, k], x),
        "symmetry": slopes,
        "ladder_mean": ladder.mean(axis=0),
        "ladder_se": ladder.std(axis=0, ddof=1) / math.sqrt(n_paths),
    }


def _assert_close(got, want, where="", floor=0.0):
    """Equal within REL relative.  An estimate of a mean that is zero is
    compared relative to its standard error and a z-score relative to 1:
    round-off follows the size of the terms summed, not of their nearly
    cancelling sum."""
    if isinstance(want, dict):
        floors = {"estimate": abs(want.get("se", 0.0)), "z": 1.0}
        for key in want:
            _assert_close(got[key], want[key], f"{where}.{key}", floors.get(key, 0.0))
    elif isinstance(want, (list, tuple, np.ndarray)):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert abs(got - want) <= REL * max(abs(got), abs(want), floor), f"{where}: {got!r} vs {want!r}"
    else:
        assert got == want, f"{where}: {got!r} vs {want!r}"


@pytest.mark.parametrize("phi", ["indicator:T=1", "linear:T=1", "jy:alpha=0.75,T=1"])
def test_engine_matches_library_path(phi):
    phi = parse_integrand(phi)
    # 256 base steps make the engine's row-sliced kernels take several slices
    got = _full_diagnostics(phi, 2000, 256, SEED)
    want = _reference(phi, 2000, 256, SEED)
    rungs = got["abs_drift_ladder"]["rungs"]
    _assert_close(
        {
            "grid_nodes": got["grid_nodes"],
            "battery": got["battery"],
            "negative_control": got["negative_control"],
            "quadratic_variation": {k: got["quadratic_variation"][k] for k in ("mean", "se")},
            "pinning_corr_compensated": got["pinning_corr_compensated"],
            "pinning_corr_raw": got["pinning_corr_raw"],
            "symmetry": [{k: s[k] for k in ("slope", "se")} for s in got["symmetry"]],
            "ladder_mean": [r["mean"] for r in rungs],
            "ladder_se": [r["se"] for r in rungs],
        },
        want,
    )


def test_report_does_not_depend_on_blocking(monkeypatch):
    phi = parse_integrand("indicator:T=1")
    one = _full_diagnostics(phi, 8192, 256, SEED)
    monkeypatch.setattr(experiments, "BLOCK", 4096)
    four = _full_diagnostics(phi, 8192, 256, SEED)
    _assert_close(four, one)


def test_blocks_reuse_one_buffer_with_one_shot_values(monkeypatch):
    grid = bridge_grid(32)
    assert grid.n_nodes == 47
    seeds = SeedSpec(SEED)
    whole = simulate_brownian(grid, 10, seeds).values
    # rows per block: at most BLOCK, and at most BLOCK_VALUES values on the grid's 47 nodes
    for block, block_values, rows in ((4, 10**6, 4), (BLOCK, 3 * 47 + 46, 3)):
        monkeypatch.setattr(experiments, "BLOCK", block)
        monkeypatch.setattr(experiments, "BLOCK_VALUES", block_values)
        sizes, blocks = [], []

        def consume(values, x):
            first = sum(sizes)
            sizes.append(values.shape[0])
            blocks.append(values)
            assert np.shares_memory(values, blocks[0])
            assert np.array_equal(values, whole[first:first + values.shape[0]])
            assert np.array_equal(x, values[:, -1])

        stream_blocks(grid, partial(simulate_brownian, seed=seeds), lambda v: v[:, -1], 10, [consume])
        assert sizes == [min(rows, 10 - first) for first in range(0, 10, rows)]


def test_refilled_buffer_matches_fresh_simulation():
    grid = bridge_grid(32)
    seeds = SeedSpec(SEED)
    dirty = np.full((50, grid.n_nodes), 7.0)
    fresh = simulate_compound_poisson(grid, 0.7, rademacher_jumps(), 40, seeds, first_path_index=3)
    again = simulate_compound_poisson(grid, 0.7, rademacher_jumps(), 40, seeds, first_path_index=3,
                                      out=dirty)
    assert np.any(np.all(fresh.values == 0.0, axis=1))  # paths without jumps are covered
    assert np.array_equal(again.values, fresh.values)
    bm = simulate_brownian(grid, 40, seeds, first_path_index=3, out=dirty)
    assert np.array_equal(bm.values, simulate_brownian(grid, 40, seeds, first_path_index=3).values)
    with pytest.raises(ValueError):
        simulate_brownian(grid, 51, seeds, out=dirty)


def test_streamed_bridge_stays_within_three_block_matrices():
    tracemalloc.start()
    try:
        report = run_bridge_demo(4096, 256, SEED)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block_bytes = 4096 * report["grid_nodes"] * 8
    assert peak < 3 * block_bytes, f"peak {peak / block_bytes:.2f} block matrices"


S5_PAIRS = ((0.25, 0.5), (0.5, 0.75))
S5_H = tabulated([0.0, 1.0], [0.0, 1.0])


def _section5_reference(n_paths, n_base, seed):
    """Section 5 on full path matrices: the library's decomposition of W,
    H integrated against both of its parts, one battery on H•W̃."""
    grid = bridge_grid(n_base, include=(0.25, 0.5, 0.75))
    spec = EnlargementSpec(indicator(1.0), grid)
    seeds = SeedSpec(seed)
    ens = simulate_brownian(grid, n_paths, seeds)
    x = realize_X(spec, ens.values)
    integral = integrate_under_enlargement(S5_H, compensate_brownian(spec, ens, x))
    return increment_regression_test(integral.martingale_part, grid.nodes, x, S5_PAIRS,
                                     cond_values=ens.values, seeds=seeds).to_dict()


@pytest.mark.parametrize("block", [4096, 10_000])
def test_section5_matches_full_matrix_reference(block, monkeypatch):
    monkeypatch.setattr(experiments, "BLOCK", block)
    got = run_section5_integral(10_000, 128, SEED, S5_H, S5_PAIRS)
    _assert_close(got["battery"], _section5_reference(10_000, 128, SEED))
    assert 0.0 < got["additivity_gap"] <= 1e-12  # summed from separate increments, so not 0 by construction


def test_section5_huge_integrand_is_not_integrable():
    with pytest.raises(NonIntegrableError):
        run_section5_integral(100, 16, SEED, constant(1e20, 2.0))


def _peak_bytes(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streamed_section5_stays_within_three_block_matrices():
    peak = _peak_bytes(lambda: run_section5_integral(BLOCK, 256, SEED, S5_H))
    block_bytes = BLOCK * bridge_grid(256, include=(0.25, 0.5, 0.75)).n_nodes * 8
    assert peak < 3 * block_bytes, f"peak {peak / block_bytes:.2f} block matrices"


def test_streamed_mg_test_stays_within_three_block_matrices():
    peak = _peak_bytes(lambda: run_mg_test(0.5, BLOCK, 256, SEED, 4.0))
    block_bytes = BLOCK * 257 * 8
    assert peak < 3 * block_bytes, f"peak {peak / block_bytes:.2f} block matrices"


def test_streamed_jeulin_probe_stays_within_one_and_a_half_block_matrices():
    peak = _peak_bytes(lambda: run_jeulin_probe("finite", 8192, SEED))
    block_bytes = 8192 * bridge_grid(experiments.PROBE_BASE_STEPS, depth=experiments.PROBE_DEPTH).n_nodes * 8
    assert peak < 1.5 * block_bytes, f"peak {peak / block_bytes:.2f} block matrices"


def test_streamed_lookahead_stays_within_two_block_matrices():
    peak = _peak_bytes(lambda: run_lookahead_demo(2.0**-6, [8, 10], 4000, SEED))
    block_bytes = 4000 * 1025 * 8
    assert peak < 2 * block_bytes, f"peak {peak / block_bytes:.2f} block matrices"


@pytest.mark.parametrize("argv", [
    ["bridge-demo", "--steps", "16"],
    ["drift-sim", "--steps", "16"],
    ["levy-demo", "--steps", "16"],
    ["jeulin-probe", "--case", "finite"],
    ["mg-test", "--steps", "16"],
    ["lookahead-demo", "--levels", "1,2", "--epsilon", "0.5"],
])
def test_no_command_simulates_more_than_a_block(argv, monkeypatch):
    asked = []  # (paths, nodes) of each simulator call
    for name in ("simulate_brownian", "simulate_compound_poisson"):
        real = getattr(experiments, name)

        def counting(*args, _real=real, _signature=inspect.signature(real), **kwargs):
            bound = _signature.bind(*args, **kwargs).arguments
            asked.append((bound["n_paths"], bound["grid"].n_nodes))
            return _real(*args, **kwargs)

        monkeypatch.setattr(experiments, name, counting)
    assert main(argv + ["--paths", str(BLOCK + 1), "--seed", "5"]) in (EXIT_PASS, EXIT_STAT_FAIL)
    assert sum(n for n, _ in asked) == BLOCK + 1 and max(n for n, _ in asked) <= BLOCK, asked
    # a value budget far below BLOCK rows of any of these grids caps the rows instead
    asked.clear()
    monkeypatch.setattr(experiments, "BLOCK_VALUES", 5000)
    assert main(argv + ["--paths", "2000", "--seed", "5"]) in (EXIT_PASS, EXIT_STAT_FAIL)
    assert sum(n for n, _ in asked) == 2000, asked
    assert max(n * nodes for n, nodes in asked) <= 5000 and max(n for n, _ in asked) <= BLOCK, asked


def test_mg_test_matches_whole_ensemble_reference():
    # the characterization as two-pass numpy over every increment at once
    got = run_mg_test(0.5, 3000, 256, SEED, 4.0)
    grid = build_grid(1.0, 256)
    w = simulate_brownian(grid, 3000, SeedSpec(SEED)).values + 0.5 * grid.nodes
    z = np.diff(w, axis=1) / np.sqrt(grid.steps)
    flat = z.ravel()
    n, mean, var = flat.size, float(flat.mean()), float(flat.var(ddof=1))
    std = (flat - mean) / math.sqrt(var)
    skew, kurt = float(np.mean(std**3)), float(np.mean(std**4)) - 3.0
    r = float(np.corrcoef(z[:, :-1].ravel(), z[:, 1:].ravel())[0, 1])
    want = [
        ("increment_mean", mean, mean / math.sqrt(var / n)),
        ("increment_variance", var, (var - 1.0) / math.sqrt(2.0 / (n - 1))),
        ("skewness", skew, skew / math.sqrt(6.0 / n)),
        ("excess_kurtosis", kurt, kurt / math.sqrt(24.0 / n)),
        ("disjoint_increment_corr", r, r * math.sqrt(z[:, 1:].size)),
    ]
    _assert_close(got["characterization"]["checks"],
                  [{"name": name, "statistic": s, "z": zz} for name, s, zz in want])
    basis = default_basis()[:2]
    battery = increment_regression_test(w, grid.nodes, np.zeros(3000), ((0.25, 0.5), (0.5, 0.75)), basis,
                                        seeds=SeedSpec(SEED))
    _assert_close(got["battery"], battery.to_dict())


def test_lookahead_matches_whole_ensemble_reference():
    got = run_lookahead_demo(2.0**-6, [6, 8], 2000, SEED)
    w = simulate_brownian(build_grid(1.0, 2**8), 2000, SeedSpec(SEED)).values
    for level, stride in zip(got["levels"], (4, 1)):
        d = np.diff(w[:, ::stride], axis=1)
        integral = np.sum(d * d, axis=1)
        assert level["sup_exceed_prob"] == float(np.mean(np.max(np.abs(d), axis=1) > 0.25))
        _assert_close({k: level[k] for k in ("integral_mean", "integral_se", "integral_second_moment")}, {
            "integral_mean": float(integral.mean()),
            "integral_se": float(integral.std(ddof=1)) / math.sqrt(2000),
            "integral_second_moment": float(np.mean(integral**2)),
        })
