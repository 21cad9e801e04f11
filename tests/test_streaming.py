"""The streamed block engine against the library path, across blockings,
and within its memory budget."""

import math
import tracemalloc
from functools import partial

import numpy as np
import pytest

from enlargekit.enlargement import (
    EnlargementSpec,
    compensate_brownian,
    drift_magnitude_weights,
)
from enlargekit.experiments import (
    DEFAULT_PAIRS,
    bridge_grid,
    run_bridge_demo,
    run_enlargement_demo,
    stream_blocks,
)
from enlargekit.integrands import parse_integrand, running_mean
from enlargekit.mgtests import (
    default_basis,
    increment_regression_test,
    info_minus_state_basis,
)
from enlargekit.paths import SeedSpec, rademacher_jumps, simulate_brownian, simulate_compound_poisson

SEED = 777
REL = 1e-12


def _full_diagnostics(phi, n_paths, n_base, seed, block):
    return run_enlargement_demo(
        phi, n_paths, n_base, seed, with_negative_control=True, with_symmetry=True,
        with_drift_ladder=True, qv_time=0.9, block=block,
    )


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
    got = _full_diagnostics(phi, 2000, 256, SEED, block=16384)
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


def test_report_does_not_depend_on_blocking():
    phi = parse_integrand("indicator:T=1")
    one = _full_diagnostics(phi, 8192, 256, SEED, block=16384)
    four = _full_diagnostics(phi, 8192, 256, SEED, block=4096)
    _assert_close(four, one)


def test_blocks_reuse_one_buffer_with_one_shot_values():
    grid = bridge_grid(32)
    seeds = SeedSpec(SEED)
    whole = simulate_brownian(grid, 10, seeds).values
    firsts, first_block = [], None
    for first, values, x in stream_blocks(partial(simulate_brownian, grid, seed=seeds),
                                          lambda v: v[:, -1], 10, 4):
        firsts.append(first)
        first_block = values if first_block is None else first_block
        assert np.shares_memory(values, first_block)
        assert np.array_equal(values, whole[first:first + values.shape[0]])
        assert np.array_equal(x, values[:, -1])
    assert firsts == [0, 4, 8]


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
        report = run_bridge_demo(4096, 256, SEED, block=4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block_bytes = 4096 * report["grid_nodes"] * 8
    assert peak < 3 * block_bytes, f"peak {peak / block_bytes:.2f} block matrices"
