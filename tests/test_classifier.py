import math

import pytest

from enlargekit.classifier import (
    DIVERGES,
    FINITE,
    MAX_RUNGS,
    NOT_DEFINED,
    NOT_SEMIMARTINGALE,
    SEMIMARTINGALE,
    UNDECIDED,
    classify,
    jeulin_yor_functional,
    l2_norm,
)
from enlargekit.integrands import constant, jeulin_yor, tabulated

LN2 = math.log(2.0)


def log_family_weighted_oracle(alpha: float) -> float:
    # substitution u = -log(1-s) turns the weighted integral into ∫_{log 2}^∞ u^-alpha du
    assert alpha > 1.0
    return LN2 ** (1.0 - alpha) / (alpha - 1.0)


def log_family_l2_oracle(alpha: float) -> float:
    assert 2.0 * alpha > 1.0
    return LN2 ** (1.0 - 2.0 * alpha) / (2.0 * alpha - 1.0)


def test_constant_integrand_weighted_integral_is_two():
    r = jeulin_yor_functional(constant(1.0, 1.0), 1.0)
    assert r.status == FINITE
    assert abs(r.value - 2.0) < 1e-6


def test_constant_integrand_l2_is_one():
    r = l2_norm(constant(1.0, 1.0), 1.0)
    assert r.status == FINITE
    assert abs(r.value - 1.0) < 1e-9


@pytest.mark.parametrize(
    "alpha,expected",
    [
        (0.4, NOT_DEFINED),
        (0.6, NOT_SEMIMARTINGALE),
        (0.75, NOT_SEMIMARTINGALE),
        (0.9, NOT_SEMIMARTINGALE),
        (1.1, SEMIMARTINGALE),
        (1.25, SEMIMARTINGALE),
        (1.5, SEMIMARTINGALE),
    ],
)
def test_log_family_verdict_table(alpha, expected):
    assert classify(jeulin_yor(alpha, 1.0), 1.0).verdict == expected


def test_log_family_values_match_substitution_oracle():
    for alpha in (1.1, 1.25, 1.5):
        r = jeulin_yor_functional(jeulin_yor(alpha, 1.0), 1.0)
        assert r.status == FINITE
        # extrapolated tail carries percent-level model error at worst
        assert abs(r.value / log_family_weighted_oracle(alpha) - 1.0) < 0.05
    for alpha in (0.6, 0.75, 0.9, 1.25):
        r = l2_norm(jeulin_yor(alpha, 1.0), 1.0)
        assert r.status == FINITE
        assert abs(r.value / log_family_l2_oracle(alpha) - 1.0) < 0.05


@pytest.mark.parametrize("T", [0.5, 0.7, 1.0, 2.0])
def test_analytic_verdicts_hold_at_the_deepest_ladder(T):
    # past MAX_RUNGS the strips fall below the float resolution at T: from
    # 56 rungs every one of these read SEMIMARTINGALE
    for alpha, expected in ((0.4, NOT_DEFINED), (0.6, NOT_SEMIMARTINGALE), (0.75, NOT_SEMIMARTINGALE),
                            (1.25, SEMIMARTINGALE), (1.5, SEMIMARTINGALE)):
        assert classify(jeulin_yor(alpha, T), T, MAX_RUNGS).verdict == expected
    r = l2_norm(jeulin_yor(0.75, T), T, MAX_RUNGS)
    assert abs(r.value / log_family_l2_oracle(0.75) - 1.0) < 1e-3
    with pytest.raises(ValueError):
        l2_norm(jeulin_yor(0.75, T), T, MAX_RUNGS + 1)


def test_l2_diverges_below_half():
    assert l2_norm(jeulin_yor(0.4, 1.0), 1.0).status == DIVERGES


def test_scaling_homogeneity():
    base = jeulin_yor_functional(constant(1.0, 1.0), 1.0).value
    scaled = jeulin_yor_functional(constant(-3.0, 1.0), 1.0).value
    assert scaled == pytest.approx(3.0 * base, rel=1e-9)


def test_monotonicity_in_the_integrand():
    small = jeulin_yor_functional(constant(0.5, 1.0), 1.0).value
    large = jeulin_yor_functional(constant(1.5, 1.0), 1.0).value
    assert small <= large
    # pointwise-dominated log-family pair: larger alpha decays faster
    a = jeulin_yor_functional(jeulin_yor(1.5, 1.0), 1.0).value
    b = jeulin_yor_functional(jeulin_yor(1.1, 1.0), 1.0).value
    assert a <= b


def test_boundary_alpha_reported_undecided():
    # the analytic boundary: no ladder can decide exponents this close to 1
    assert classify(jeulin_yor(1.005, 1.0), 1.0).verdict == UNDECIDED


def test_support_ending_early_is_plainly_finite():
    m = tabulated([0.0, 0.4, 0.5], [1.0, 1.0, 0.0])
    r = jeulin_yor_functional(m, 1.0)
    assert r.status == FINITE
    # weight on [0, 1/2] is bounded, value close to direct quadrature
    assert 0.4 < r.value < 0.7


def test_divergence_decided_by_decay_not_magnitude():
    # harmonic-type mass: increments never grow, the sum quietly diverges
    r = jeulin_yor_functional(jeulin_yor(0.75, 1.0), 1.0)
    assert r.status == DIVERGES
    assert r.partial_sums[-1] < 1e3  # nowhere near any magnitude ceiling


def test_classification_record_format():
    v = classify(jeulin_yor(0.75, 1.0), 1.0)
    rec = v.record()
    fields = rec.split(",")
    assert fields[0] == "jy"
    assert fields[-2] == NOT_SEMIMARTINGALE
    assert int(fields[-1]) > 0
