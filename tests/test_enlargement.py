import math

import numpy as np
import pytest

from enlargekit.enlargement import (
    DecomposedProcess,
    EnlargementError,
    EnlargementSpec,
    NonIntegrableError,
    RefusedNonSemimartingaleError,
    abs_drift_integral_paths,
    compensate_brownian,
    compensate_martingale,
    drift_compensator,
    integrate_under_enlargement,
    levy_bridge_compensator,
    realize_X,
)
from enlargekit.experiments import ABS_DRIFT_CONSTANT, _SlopeAccumulator, bridge_grid
from enlargekit.grid import build_grid
from enlargekit.integrands import constant, indicator, jeulin_yor, linear_ramp, tabulated
from enlargekit.paths import SeedSpec, rademacher_jumps, simulate_brownian, simulate_compound_poisson

SEED = SeedSpec(424242)


@pytest.fixture(scope="module")
def bridge_setup():
    grid = bridge_grid(256, include=(0.25, 0.5, 0.75, 0.9))
    spec = EnlargementSpec(indicator(1.0), grid)
    ens = simulate_brownian(grid, 20_000, SEED)
    x = realize_X(spec, ens.values)
    return spec, ens, x


def test_realize_X_indicator_is_terminal_value(bridge_setup):
    spec, ens, x = bridge_setup
    assert np.allclose(x, ens.values[:, -1], rtol=0, atol=1e-12)


def test_realize_X_zero_integrand():
    grid = build_grid(1.0, 16)
    spec = EnlargementSpec(constant(0.0, 1.0), grid)
    ens = simulate_brownian(grid, 10, SEED)
    assert np.all(realize_X(spec, ens.values) == 0.0)


def test_realize_X_constant_scales_terminal():
    grid = build_grid(1.0, 16)
    spec = EnlargementSpec(constant(3.0, 1.0), grid)
    ens = simulate_brownian(grid, 10, SEED)
    assert np.allclose(realize_X(spec, ens.values), 3.0 * ens.values[:, -1], rtol=1e-12)


def test_drift_compensator_starts_at_zero_and_piecewise_linear(bridge_setup):
    spec, ens, x = bridge_setup
    a = drift_compensator(spec, ens.values[:5], x[:5])
    assert np.all(a[:, 0] == 0.0)
    assert a.shape == ens.values[:5].shape


def test_trivial_enlargement_gives_zero_compensator():
    grid = build_grid(1.0, 16)
    spec = EnlargementSpec(constant(0.0, 1.0), grid)
    ens = simulate_brownian(grid, 10, SEED)
    x = realize_X(spec, ens.values)
    dec = compensate_brownian(spec, ens, x)
    assert np.all(dec.fv_part == 0.0)
    assert np.array_equal(dec.martingale_part, ens.values)


def test_decomposition_exact_additivity(bridge_setup):
    spec, ens, x = bridge_setup
    dec = compensate_brownian(spec, ens, x)
    assert dec.additivity_gap() <= 64 * np.finfo(float).eps * np.max(np.abs(dec.original))


def test_decomposition_rejects_mismatched_parts():
    t = np.array([0.0, 0.5, 1.0])
    with pytest.raises(EnlargementError):
        DecomposedProcess(t, np.ones((1, 3)), np.zeros((1, 3)), np.zeros((1, 3)), "bad")


def test_compensated_qv_unchanged(bridge_setup):
    spec, ens, x = bridge_setup
    dec = compensate_brownian(spec, ens, x)
    k = spec.grid.index_of(0.9)
    qv = np.sum(np.diff(dec.martingale_part[:, : k + 1], axis=1) ** 2, axis=1)
    assert abs(float(np.mean(qv)) - 0.9) <= 0.02 * 0.9


def test_compensate_martingale_unit_integrand_reduces_to_brownian(bridge_setup):
    spec, ens, x = bridge_setup
    a = compensate_martingale(spec, constant(1.0, 1.0), ens, x)
    b = compensate_brownian(spec, ens, x)
    assert np.array_equal(a.fv_part, b.fv_part)
    assert np.array_equal(a.original, b.original)


def test_compensate_martingale_refuses_divergent_integrand(bridge_setup):
    spec, ens, x = bridge_setup
    with pytest.raises(RefusedNonSemimartingaleError) as exc:
        compensate_martingale(spec, jeulin_yor(0.75, 1.0), ens, x)
    assert exc.value.verdict.verdict == "NOT_SEMIMARTINGALE"


def test_integrate_identity_and_zero(bridge_setup):
    spec, ens, x = bridge_setup
    dec = compensate_brownian(spec, ens, x)
    one = integrate_under_enlargement(constant(1.0, 2.0), dec)
    assert np.allclose(one.martingale_part, dec.martingale_part - dec.martingale_part[:, :1], atol=1e-12)
    assert np.allclose(one.fv_part, dec.fv_part, atol=1e-12)
    zero = integrate_under_enlargement(constant(0.0, 2.0), dec)
    assert np.all(zero.original == 0.0)


def test_integrate_additivity_in_the_integrand(bridge_setup):
    spec, ens, x = bridge_setup
    dec = compensate_brownian(spec, ens, x)
    small = DecomposedProcess(
        dec.times, dec.original[:50], dec.martingale_part[:50], dec.fv_part[:50], "slice"
    )
    h1 = tabulated([0.0, 1.0], [0.0, 1.0])            # H(s) = s
    h2 = constant(0.5, 2.0)
    ha = integrate_under_enlargement(h1, small)
    hb = integrate_under_enlargement(h2, small)
    hsum = integrate_under_enlargement(tabulated([0.0, 1.0], [0.5, 1.5]), small)
    assert np.allclose(ha.original + hb.original, hsum.original, rtol=1e-12, atol=1e-12)


def test_integrate_reports_non_integrability_past_the_guard():
    t = np.array([0.0, 0.5, 1.0])
    fv = np.array([[0.0, 1e13, 2e13]])
    mart = np.zeros((1, 3))
    dec = DecomposedProcess(t, mart + fv, mart, fv, "huge-variation")
    with pytest.raises(NonIntegrableError):
        integrate_under_enlargement(constant(1.0, 2.0), dec)


def test_levy_bridge_trivial_zero_paths():
    grid = bridge_grid(64)
    ens = simulate_compound_poisson(grid, 0.0, rademacher_jumps(), 20, SEED)
    dec = levy_bridge_compensator(ens, ens.values[:, -1], pin_time=float(grid.nodes[-1]))
    assert np.all(dec.original == 0.0)
    assert np.all(dec.martingale_part == 0.0)


def test_levy_bridge_grid_must_not_pass_pin():
    grid = build_grid(1.0, 16)
    ens = simulate_compound_poisson(grid, 1.0, rademacher_jumps(), 5, SEED)
    with pytest.raises(EnlargementError):
        levy_bridge_compensator(ens, ens.values[:, -1], pin_time=0.5)


def test_symmetry_identity_slopes():
    grid = build_grid(1.0, 16)
    ens = simulate_brownian(grid, 40_000, SEED)
    for s, t, expected in ((0.25, 0.5, 1.0 / 3.0), (0.0, 1.0, 1.0), (0.0, 0.5, 0.5)):
        acc = _SlopeAccumulator(grid, s, t, (t - s) / (1.0 - s))
        acc.update(ens.values, ens.values[:, -1])
        rep = acc.report()
        assert rep["expected"] == pytest.approx(expected)
        assert abs(rep["z"]) <= 4.0


def test_abs_drift_ladder_matches_bridge_constant():
    grid = bridge_grid(256)
    spec = EnlargementSpec(indicator(1.0), grid)
    ens = simulate_brownian(grid, 20_000, SEED)
    x = realize_X(spec, ens.values)
    rungs = np.nonzero(grid.nodes >= 1.0 - 1.0 / 256 - 1e-12)[0]
    vals = abs_drift_integral_paths(ens.values, grid.nodes, x, rungs, 1.0)
    mean = vals[:, -1].mean()
    se = vals[:, -1].std(ddof=1) / math.sqrt(vals.shape[0])
    eps = 1.0 - grid.nodes[rungs[-1]]
    bound = ABS_DRIFT_CONSTANT * math.sqrt(eps)
    assert abs(mean - ABS_DRIFT_CONSTANT) <= 4.0 * se + bound


def test_spec_horizon_consistency():
    EnlargementSpec(indicator(1.0), build_grid(1.0, 16))  # ends exactly at the info horizon
    with pytest.raises(EnlargementError):
        EnlargementSpec(indicator(0.75), build_grid(1.0, 16))  # runs past it


@pytest.mark.parametrize("phi", [indicator(1.0), linear_ramp(1.0), jeulin_yor(0.75, 1.0)])
def test_compensated_qv_matches_its_long_form(phi):
    # Σ_{i<k} Δt_i − 2 w_i φ_i Δt_i + w_i² Σ_{j≥i} φ_j² Δt_j, the expansion of E(ΔW − ΔA)²
    grid = bridge_grid(256, include=(0.9,))
    spec = EnlargementSpec(phi, grid)
    dt = grid.steps
    f = np.asarray(phi(grid.nodes[:-1]))
    w = spec.drift_weights()
    tail = np.cumsum((f * f * dt)[::-1])[::-1]
    k = grid.index_of(0.9)
    long_form = float(np.sum((dt - 2.0 * w * f * dt + w * w * tail)[:k]))
    assert abs(spec.compensated_qv(k) - long_form) <= 1e-12 * long_form


def test_decomposition_rejects_non_finite_gap():
    t = np.array([0.0, 0.5, 1.0])
    original = np.array([[0.0, 0.5, 1.0]])
    with pytest.raises(EnlargementError):
        DecomposedProcess(t, original, np.array([[0.0, np.nan, 1.0]]), np.zeros((1, 3)), "nan")


def test_drift_compensator_rejects_non_finite_paths(bridge_setup):
    spec, ens, x = bridge_setup
    values = ens.values[:3].copy()
    values[1, 5] = np.nan
    with pytest.raises(EnlargementError):
        drift_compensator(spec, values, x[:3])


@pytest.mark.parametrize("phi", [indicator(1.0), jeulin_yor(1.5, 1.0)])
def test_compensated_qv_is_the_grid_expectation(phi):
    # a coarse grid, where the expectation lies well below t
    grid = bridge_grid(8, include=(0.75,))
    spec = EnlargementSpec(phi, grid)
    k = grid.index_of(0.75)
    values = simulate_brownian(grid, 40_000, SEED).values
    wt = values - drift_compensator(spec, values, realize_X(spec, values))
    qv = np.sum(np.diff(wt[:, : k + 1], axis=1) ** 2, axis=1)
    se = qv.std(ddof=1) / math.sqrt(qv.size)
    assert abs(qv.mean() - spec.compensated_qv(k)) <= 4.0 * se
    assert 0.75 - spec.compensated_qv(k) > 8.0 * se


def test_drift_conditions_on_the_grid_variance_of_X():
    # σ² at node i is Σ_{j≥i} φ(t_j)² Δt_j, the variance left in the X that
    # realize_X builds, so the bridge's last weight is exactly 1
    spec = EnlargementSpec(indicator(1.0), bridge_grid(64))
    assert spec.drift_weights()[-1] == 1.0
    spec = EnlargementSpec(jeulin_yor(0.6, 1.0), bridge_grid(16))
    phi = np.asarray(spec.phi(spec.grid.nodes[:-1]))
    tail = [np.sum(phi[i:] ** 2 * spec.grid.steps[i:]) for i in range(phi.size)]
    assert np.allclose(spec.drift_weights(), phi * spec.grid.steps / tail, rtol=1e-12, atol=0)


def test_levy_compensator_at_nodes_matches_full_decomposition():
    grid = bridge_grid(64, include=(0.25, 0.75))
    ens = simulate_compound_poisson(grid, 3.0, rademacher_jumps(), 500, SEED)
    pin = float(grid.nodes[-1])
    zt = ens.values[:, -1]
    full = levy_bridge_compensator(ens, zt, pin_time=pin).fv_part
    at = [0, grid.index_of(0.25), grid.index_of(0.75), grid.n_nodes - 1]
    cols = levy_bridge_compensator(ens, zt, pin_time=pin, at=at)
    assert np.allclose(cols, full[:, at], rtol=1e-12, atol=1e-12)
