import math
import tracemalloc

import numpy as np
import pytest

from enlargekit.experiments import bridge_grid, run_levy_demo
from enlargekit.grid import build_grid
from enlargekit.paths import (
    SeedSpec,
    _place_jumps,
    constant_jumps,
    normal_jumps,
    parse_jump_sampler,
    rademacher_jumps,
    simulate_brownian,
    simulate_compound_poisson,
)


def test_substream_contract_matches_fresh_generators():
    # the documented derivation rule defines the stream; block fills must match it
    grid = build_grid(1.0, 32)
    seed = SeedSpec(12345)
    ens = simulate_brownian(grid, 50, seed)
    for i in (0, 7, 49):
        rng = seed.generator_for_path(i)
        z = rng.standard_normal(32)
        expect = np.concatenate([[0.0], np.cumsum(z * np.sqrt(grid.steps))])
        assert np.array_equal(ens.values[i], expect)


def test_bit_identical_across_worker_counts_and_offsets():
    grid = build_grid(1.0, 64)
    seed = SeedSpec(99)
    a = simulate_brownian(grid, 200, seed)
    tail = simulate_brownian(grid, 60, seed, first_path_index=140)
    assert np.array_equal(a.values[140:], tail.values)
    with pytest.raises(TypeError):  # the offset is keyword-only: no positional call can shift it
        simulate_brownian(grid, 60, seed, 140)


def test_brownian_starts_at_zero_and_terminal_variance():
    grid = build_grid(1.0, 64)
    n = 100_000
    ens = simulate_brownian(grid, n, SeedSpec(2024))
    assert np.all(ens.values[:, 0] == 0.0)
    v = np.var(ens.values[:, -1], ddof=1)
    assert abs(v - 1.0) <= 0.02  # ~4.4 standard errors of the variance estimate


def test_disjoint_increment_correlation_vanishes():
    grid = build_grid(1.0, 4)
    n = 40_000
    ens = simulate_brownian(grid, n, SeedSpec(5))
    d1 = ens.values[:, 1] - ens.values[:, 0]
    d2 = ens.values[:, 3] - ens.values[:, 2]
    r = np.corrcoef(d1, d2)[0, 1]
    assert abs(r) <= 3.0 / math.sqrt(n)


def test_brownian_scaling_doubles_terminal_variance():
    n = 20_000
    v1 = np.var(simulate_brownian(build_grid(1.0, 32), n, SeedSpec(8)).values[:, -1], ddof=1)
    v2 = np.var(simulate_brownian(build_grid(2.0, 32), n, SeedSpec(8)).values[:, -1], ddof=1)
    se = math.sqrt(2.0 / n) * 2.0  # SE of the doubled-horizon variance estimate
    assert abs(v2 - 2.0 * v1) <= 4.0 * (se + 2.0 * math.sqrt(2.0 / n))


def test_discrete_quadratic_variation_tracks_time():
    grid = build_grid(1.0, 256)
    n = 10_000
    ens = simulate_brownian(grid, n, SeedSpec(77))
    qv = np.sum(np.diff(ens.values, axis=1) ** 2, axis=1)
    tol = 4.0 * math.sqrt(2.0 * float(np.sum(grid.steps**2)))
    assert abs(float(np.mean(qv)) - 1.0) <= tol


def test_compound_poisson_mean_unit_jumps():
    grid = build_grid(2.0, 64)
    n = 50_000
    ens = simulate_compound_poisson(grid, 1.0, constant_jumps(1.0), n, SeedSpec(31))
    mean = float(np.mean(ens.values[:, -1]))
    assert abs(mean - 2.0) <= 3.0 * math.sqrt(2.0 / n)


def test_compound_poisson_zero_rate_is_identically_zero():
    grid = build_grid(1.0, 16)
    ens = simulate_compound_poisson(grid, 0.0, constant_jumps(1.0), 50, SeedSpec(1))
    assert np.all(ens.values == 0.0)


def test_compound_poisson_centered_jumps():
    grid = build_grid(1.0, 64)
    n = 50_000
    ens = simulate_compound_poisson(grid, 1.0, rademacher_jumps(), n, SeedSpec(6))
    assert abs(float(np.mean(ens.values[:, -1]))) <= 3.0 / math.sqrt(n)


def test_negative_rate_rejected():
    with pytest.raises(ValueError):
        simulate_compound_poisson(build_grid(1.0, 4), -1.0, constant_jumps(1.0), 5, SeedSpec(0))


def test_jump_sampler_parsing():
    assert parse_jump_sampler("pm1").name == "pm1"
    assert parse_jump_sampler("const:2.5").mean == 2.5
    assert parse_jump_sampler("normal:mu=1,sigma=2").mean == 1.0
    with pytest.raises(ValueError):
        parse_jump_sampler("zeta:s=2")


def _per_path_compound_poisson(grid, rate, draw, n_paths, seed, first_path_index):
    """Reference: one path at a time, each from a fresh generator, jumps
    sorted and summed per path and read off at the nodes."""
    values = np.empty((n_paths, grid.n_nodes))
    for i in range(n_paths):
        rng = seed.generator_for_path(first_path_index + i)
        k = rng.poisson(rate * grid.horizon)
        if k == 0:
            values[i] = 0.0
            continue
        times = np.sort(rng.uniform(0.0, grid.horizon, k))
        cum = np.concatenate([[0.0], np.cumsum(draw(rng, k))])
        values[i] = cum[np.searchsorted(times, grid.nodes, side="right")]
    return values


SAMPLER_REFERENCES = {
    "pm1": (rademacher_jumps(), lambda rng, k: rng.choice((-1.0, 1.0), size=k)),
    "const": (constant_jumps(1.5), lambda rng, k: np.full(k, 1.5)),
    "const:-0.0": (constant_jumps(-0.0), lambda rng, k: np.full(k, -0.0)),
    "normal": (normal_jumps(0.3, 1.7), lambda rng, k: 0.3 + 1.7 * rng.standard_normal(k)),
}


@pytest.mark.parametrize("rate", [0.0, 1.0, 25.0])
@pytest.mark.parametrize("name", sorted(SAMPLER_REFERENCES))
def test_compound_poisson_is_byte_identical_to_per_path_reference(name, rate):
    sampler, draw = SAMPLER_REFERENCES[name]
    grid = build_grid(2.5, 300)  # horizon != 1; 5000 paths span several row slices
    seed = SeedSpec(4242)
    for n, first in ((1, 123456), (2049, 0), (5000, 123456)):
        got = simulate_compound_poisson(grid, rate, sampler, n, seed, first_path_index=first).values
        want = _per_path_compound_poisson(grid, rate, draw, n, seed, first)
        assert got.tobytes() == want.tobytes(), (name, rate, n, first)


def test_jump_placement_at_nodes_ends_and_within_one_interval():
    nodes = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    paths = [
        [0.25, 0.5],          # exactly on nodes: counted at that node
        [0.0],                # at t = 0
        [1.0],                # at t = T
        [0.6, 0.3, 0.7],      # unsorted; two jumps inside (0.5, 0.75]
        [],
        [0.1, 0.1],           # two jumps at one time
    ]
    sizes = [[1.0, 2.0], [5.0], [7.0], [1.0, 10.0, 100.0], [], [3.0, -1.0]]
    counts = np.array([len(t) for t in paths])
    values = np.full((len(paths), nodes.size), np.nan)
    _place_jumps(values, nodes, counts, np.array(sum(paths, []), dtype=float),
                 np.array(sum(sizes, []), dtype=float))
    assert values.tolist() == [
        [0.0, 1.0, 3.0, 3.0, 3.0],
        [5.0, 5.0, 5.0, 5.0, 5.0],
        [0.0, 0.0, 0.0, 0.0, 7.0],
        [0.0, 0.0, 1.0, 111.0, 111.0],
        [0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 2.0, 2.0, 2.0, 2.0],
    ]


def test_rademacher_sampler_matches_choice_and_stream_position():
    draw = rademacher_jumps().draw
    for path in range(200):
        for k in range(1, 10):
            a = SeedSpec(17).generator_for_path(path)
            b = SeedSpec(17).generator_for_path(path)
            assert np.array_equal(draw(a, k), b.choice((-1.0, 1.0), size=k))
            assert a.random() == b.random()


def test_streamed_levy_stays_within_one_and_a_half_block_matrices():
    tracemalloc.start()
    try:
        report = run_levy_demo(1.0, rademacher_jumps(), 4096, 256, 20240901)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["n_paths"] == 4096
    block_bytes = 4096 * bridge_grid(256, include=(0.25, 0.5, 0.75)).n_nodes * 8
    assert peak < 1.5 * block_bytes, f"peak {peak / block_bytes:.2f} block matrices"
