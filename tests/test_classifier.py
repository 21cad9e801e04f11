import math

import numpy as np
import pytest

from enlargekit import classifier
from enlargekit.classifier import (
    DEFAULT_RUNGS,
    DIVERGES,
    EXPONENT_MARGIN,
    FINITE,
    MAX_RUNGS,
    MIN_RUNGS,
    NOT_DEFINED,
    NOT_SEMIMARTINGALE,
    SEMIMARTINGALE,
    UNDECIDED,
    classify,
    jeulin_yor_functional,
    l2_norm,
)
from enlargekit.integrands import constant, jeulin_yor, parse_integrand, tabulated

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


def _strip_reference(f, T, rungs):
    """The ladder one strip at a time, as it was evaluated before every
    rung became one row of a single array."""
    eps = T / 2.0 * 2.0 ** -np.arange(0, rungs + 1)
    incr = np.empty(rungs)
    for k in range(rungs):
        lo, hi = T - eps[k], T - eps[k + 1]
        ua, ub = math.sqrt(T - hi), math.sqrt(T - lo)
        mid, half = 0.5 * (ua + ub), 0.5 * (ub - ua)
        u = mid + half * classifier._GL_NODES
        vals = np.asarray(f(T - u * u), dtype=float)
        incr[k] = float(half * np.sum(classifier._GL_WEIGHTS * vals * 2.0 * u))
    return incr


@pytest.mark.parametrize("T", [0.5, 0.7, 1.0, 2.0])
def test_one_array_ladder_matches_the_per_strip_loop_bit_for_bit(T, monkeypatch):
    ladders = []
    inner = classifier.improper_endpoint_integral

    def spy(f, T, max_rungs):
        arrays = []

        def counted(s):
            arrays.append(np.ndim(s) == 2)
            return f(s)

        r = inner(counted, T, max_rungs)
        ladders.append((f, max_rungs, r, sum(arrays)))
        return r

    monkeypatch.setattr(classifier, "improper_endpoint_integral", spy)
    ms = [jeulin_yor(float(a), T) for a in np.linspace(0.4, 3.0, 60)]
    ms += [parse_integrand(f"{spec}T={T}") for spec in ("linear:", "const:c=1.5,", "indicator:")]
    ms.append(tabulated([0.0, 0.3 * T, 0.9 * T], [1.0, 2.0, 0.5]))
    for m in ms:
        for rungs in (MIN_RUNGS, DEFAULT_RUNGS, MAX_RUNGS):
            jeulin_yor_functional(m, T, rungs)
            l2_norm(m, T, rungs)
    assert len(ladders) == 2 * 3 * len(ms)
    for f, rungs, r, array_calls in ladders:
        assert array_calls == 1  # every rung in one evaluation of f
        want = _strip_reference(f, T, rungs)[: r.rungs_used]
        assert r.increments.tobytes() == want.tobytes()


@pytest.mark.parametrize("alpha", [0.75, 1.005, 1.5])
def test_explanation_reads_the_ladder(alpha):
    for r in (jeulin_yor_functional(jeulin_yor(alpha, 1.0), 1.0), l2_norm(jeulin_yor(alpha, 1.0), 1.0)):
        e = r.explain()
        assert e["status"] == r.status
        assert e["last_increments"] == r.increments[-3:].tolist()
        p = r.decay_exponent
        if p is None:
            assert e["margin"] is None
        else:
            assert e["margin"] == abs(p - 1.0) - EXPONENT_MARGIN
            assert (e["margin"] < 0.0) == (r.status == UNDECIDED)
        if r.is_finite:
            assert r.partial_sums[-1] + e["extrapolated_tail"] == pytest.approx(r.value, rel=1e-15)
        else:
            assert e["extrapolated_tail"] is None
