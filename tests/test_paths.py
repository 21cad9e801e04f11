import math

import numpy as np
import pytest

from enlargekit.grid import build_grid
from enlargekit.paths import (
    SeedSpec,
    constant_jumps,
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
    s = parse_jump_sampler("normal:mu=1,sigma=2")
    assert s.mean == 1.0 and s.second_moment == 5.0
    with pytest.raises(ValueError):
        parse_jump_sampler("zeta:s=2")
