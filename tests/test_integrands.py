import math

import numpy as np
import pytest

from enlargekit.grid import build_grid
from enlargekit.integrands import (
    InformationHorizonError,
    constant,
    indicator,
    information_drift,
    jeulin_yor,
    linear_ramp,
    log_density_identity_residual,
    parse_integrand,
    residual_variance,
    running_mean,
    tabulated,
)
from enlargekit.paths import SeedSpec, simulate_brownian


def test_indicator_values_and_support():
    phi = indicator(1.0)
    assert phi(0.0) == 1.0 and phi(0.999) == 1.0
    assert phi(1.0) == 0.0 and phi(2.0) == 0.0
    assert phi.support_end == 1.0


def test_residual_variance_closed_forms():
    assert residual_variance(indicator(1.0), 0.25) == 0.75
    assert residual_variance(indicator(1.0), 1.0) == 0.0
    assert residual_variance(constant(2.0, 1.0), 0.5) == pytest.approx(2.0)
    # linear ramp: ∫_t^1 (1-s)^2 ds = (1-t)^3/3
    assert residual_variance(linear_ramp(1.0), 0.25) == pytest.approx(0.75**3 / 3.0)


def brute_force_jy_tail(alpha: float, t: float, n: int = 400_000) -> float:
    # independent quadrature oracle: log-spaced composite midpoint over a
    # long head in log-remainder coordinates plus the analytic power tail
    u0 = -math.log(1.0 - max(t, 0.5))
    u_max = u0 * 5000.0
    u = np.geomspace(u0, u_max, n)
    mid = 0.5 * (u[1:] + u[:-1])
    head = float(np.sum(mid ** (-2.0 * alpha) * np.diff(u)))
    tail = u_max ** (1.0 - 2.0 * alpha) / (2.0 * alpha - 1.0)
    return head + tail


def test_jy_residual_variance_matches_quadrature_oracle():
    phi = jeulin_yor(0.75, 1.0)
    got = residual_variance(phi, 0.5)
    assert abs(got - brute_force_jy_tail(0.75, 0.5)) < 1e-8
    got2 = residual_variance(phi, 0.8)
    assert abs(got2 - brute_force_jy_tail(0.75, 0.8)) < 1e-8


def test_residual_variance_monotone_nonincreasing():
    for phi in (indicator(1.0), linear_ramp(1.0), jeulin_yor(0.9, 1.0)):
        mesh = np.linspace(0.0, 0.999, 200)
        vals = [residual_variance(phi, float(t)) for t in mesh]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


def test_jy_not_square_integrable_below_half():
    assert not jeulin_yor(0.4, 1.0).is_square_integrable()
    assert jeulin_yor(0.6, 1.0).is_square_integrable()


def test_tabulated_integrand_and_support_guard():
    phi = tabulated([0.0, 0.5, 1.0], [1.0, 1.0, 0.0])
    assert phi(0.25) == 1.0
    assert phi(2.0) == 0.0
    assert residual_variance(phi, 0.5) == pytest.approx(1.0 / 6.0, rel=1e-8)
    with pytest.raises(ValueError):
        tabulated([0.0, 0.5, 0.4], [1.0, 1.0, 0.0])


def test_parse_integrand_strings():
    assert parse_integrand("indicator:T=1").family == "indicator"
    phi = parse_integrand("jy:alpha=0.75,T=1")
    assert dict(phi.params)["alpha"] == 0.75
    assert parse_integrand("const:c=2,T=1")(0.1) == 2.0
    with pytest.raises(ValueError):
        parse_integrand("mystery:x=1")
    with pytest.raises(ValueError):
        parse_integrand("const:T=1")  # missing c


def test_running_mean_zero_integrand():
    grid = build_grid(1.0, 16)
    ens = simulate_brownian(grid, 5, SeedSpec(3))
    m = running_mean(constant(0.0, 1.0), grid.nodes, ens.values)
    assert np.all(m == 0.0)


def test_running_mean_indicator_telescopes_to_path():
    grid = build_grid(1.0, 16)
    ens = simulate_brownian(grid, 5, SeedSpec(3))
    m = running_mean(indicator(1.0), grid.nodes, ens.values)
    assert np.allclose(m, ens.values, rtol=0, atol=1e-15)


def test_running_mean_constant_scales_path():
    grid = build_grid(1.0, 16)
    ens = simulate_brownian(grid, 5, SeedSpec(3))
    m = running_mean(constant(2.5, 1.0), grid.nodes, ens.values)
    assert np.allclose(m, 2.5 * ens.values, rtol=1e-12, atol=1e-14)


def test_information_drift_bridge_identity_exact():
    # with the indicator integrand the drift is the bridge formula (x - m)/(T - t)
    phi = indicator(1.0)
    for t in (0.0, 0.3, 0.9, 0.999):
        x, m = 0.7, -0.2
        assert information_drift(phi, x, t, m) == (x - m) / (1.0 - t)


def test_information_drift_linear_in_x_and_centered():
    phi = linear_ramp(1.0)
    t, m = 0.4, 0.1
    d1 = information_drift(phi, 1.0, t, m)
    d2 = information_drift(phi, 2.0, t, m)
    d3 = information_drift(phi, 3.0, t, m)
    assert d3 - d2 == pytest.approx(d2 - d1, rel=1e-12)
    assert information_drift(phi, m, t, m) == 0.0


def test_information_drift_undefined_at_horizon():
    with pytest.raises(InformationHorizonError):
        information_drift(indicator(1.0), 0.5, 1.0, 0.0)


def test_log_density_residual_flat_path_closed_form():
    # a path with no increments isolates the variance bookkeeping exactly:
    # residual = 0.5*log(sigma0^2/sigma_t^2) + x^2 (1/(2 s_t^2) - 1/(2 s_0^2)) + ito sums (=0 except dt term)
    grid = build_grid(1.0, 64)
    flat = np.zeros((1, grid.n_nodes))
    t = 0.5
    res = log_density_identity_residual(indicator(1.0), grid.nodes, flat, 0.0, t)
    sig0, sigt = 1.0, 1.0 - t
    # with x=0 and m=0 the drift rho vanishes, so the residual is the pure log-variance term
    expect = -0.5 * math.log(sigt) + 0.5 * math.log(sig0)
    assert abs(res[0] - expect) < 1e-10


def test_log_density_residual_degenerate_integrand_errors():
    grid = build_grid(1.0, 8)
    flat = np.zeros((1, grid.n_nodes))
    with pytest.raises(InformationHorizonError):
        log_density_identity_residual(constant(0.0, 1.0), grid.nodes, flat, 0.0, 0.5)


def test_log_density_residual_rms_halves_with_step():
    # smoke version of the order-1/2 self-convergence (full check in acceptance)
    n_paths = 4000
    rms = []
    for n in (64, 128):
        grid = build_grid(0.5, n)
        ens = simulate_brownian(grid, n_paths, SeedSpec(17))
        r = log_density_identity_residual(indicator(1.0), grid.nodes, ens.values, 0.3, 0.5)
        rms.append(float(np.sqrt(np.mean(r**2))))
    ratio = rms[1] / rms[0]
    assert abs(ratio - 1.0 / math.sqrt(2.0)) < 0.25 * (1.0 / math.sqrt(2.0))
