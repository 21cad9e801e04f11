"""Decides whether a stochastic integral m•W survives enlargement by the
terminal value W_T.

The decisive quantity is the weighted integral ∫₀^T |m_s| (T−s)^{−1/2} ds
together with the L² precondition ∫₀^T m_s² ds (without which m•W is not
even defined).  Both are improper at the endpoint, so they are evaluated
on a geometric truncation ladder ε_k = ε₀·2^{−k}: each rung adds the
strip [T−ε_{k−1}, T−ε_k], integrated under the substitution u = √(T−s)
which removes the integrable square-root singularity.

Divergence is never declared from a single large value.  The ladder
increments are analyzed for their decay law: geometric decay or a fitted
power decay steeper than 1/k certifies convergence (with an extrapolated
tail), decay at or below 1/k certifies divergence (slow, logarithm-like
mass), and a narrow band around the 1/k boundary is reported UNDECIDED.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import quad

from .integrands import DeterministicIntegrand

FINITE = "FINITE"
DIVERGES = "DIVERGES"
UNDECIDED = "UNDECIDED"

SEMIMARTINGALE = "SEMIMARTINGALE"
NOT_SEMIMARTINGALE = "NOT_SEMIMARTINGALE"
NOT_DEFINED = "NOT_DEFINED"

DEFAULT_RUNGS = 40
# the geometric-decay test reads the last 7 increments
MIN_RUNGS = 7
# ε_k = T·2^−(k+1) and T − ε_k is rounded to half an ulp of T, at most
# 2^−53·T, so the deepest strip's edge is off by up to 2^(k−52) of ε_k:
# up to this many rungs that is at most 2^−10.
MAX_RUNGS = np.finfo(float).nmant - 10
DEFAULT_CEILING = 1e6
# |fitted decay exponent - 1| below this margin is not decidable numerically
EXPONENT_MARGIN = 0.04

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)


@dataclass(frozen=True)
class LadderResult:
    """Truncated-integral ladder diagnostics for one improper integral."""

    status: str                      # FINITE / DIVERGES / UNDECIDED
    value: float | None              # extrapolated limit when FINITE
    rungs_used: int
    truncations: np.ndarray = field(repr=False)   # ε_k per rung
    partial_sums: np.ndarray = field(repr=False)  # I_k per rung
    increments: np.ndarray = field(repr=False)    # Δ_k per rung
    decay_exponent: float | None = None

    @property
    def is_finite(self) -> bool:
        return self.status == FINITE

    def render_value(self) -> str:
        return f"{self.value!r}" if self.is_finite else self.status

    def explain(self) -> dict:
        """Why the ladder decided: the fitted decay exponent p (None unless
        the power fit decided), |p − 1| − ``EXPONENT_MARGIN`` (negative
        inside the UNDECIDED band), the last three increments, and the
        part of a FINITE value that extrapolates past the last rung."""
        p = self.decay_exponent
        return {
            "status": self.status,
            "decay_exponent": p,
            "margin": None if p is None else abs(p - 1.0) - EXPONENT_MARGIN,
            "last_increments": self.increments[-3:].tolist(),
            "extrapolated_tail": self.value - float(self.partial_sums[-1]) if self.is_finite else None,
        }


def _strip_integrals(f: Callable, T: float, eps: np.ndarray) -> np.ndarray:
    """Every rung's ∫ f(s) ds over [T−ε_k, T−ε_{k+1}] via u = √(T−s), which
    smooths away the endpoint weight: one (rungs × nodes) evaluation of f,
    each row the same operations in the same order as one strip alone."""
    # T − (T − ε) is not ε in floating point: keep the rounding of the edges
    root = np.sqrt(T - (T - eps))
    ua, ub = root[1:], root[:-1]
    mid, half = 0.5 * (ua + ub), 0.5 * (ub - ua)
    u = mid[:, None] + half[:, None] * _GL_NODES
    vals = np.asarray(f(T - u * u), dtype=float)
    return half * np.sum(_GL_WEIGHTS * vals * 2.0 * u, axis=1)


def improper_endpoint_integral(
    f: Callable,
    T: float,
    max_rungs: int = DEFAULT_RUNGS,
) -> LadderResult:
    """Classify and (when finite) evaluate ∫₀^T f(s) ds for f ≥ 0 with a
    possible endpoint blow-up at T.  The ladder starts at ε₀ = T/2, and
    partial sums past ``DEFAULT_CEILING`` read as divergence."""
    if not (math.isfinite(T) and T > 0.0):
        raise ValueError(f"horizon T must be positive and finite, got {T!r}")
    if not MIN_RUNGS <= max_rungs <= MAX_RUNGS:
        raise ValueError(f"need {MIN_RUNGS} to {MAX_RUNGS} rungs, got {max_rungs}")
    eps0 = T / 2.0
    eps = eps0 * 2.0 ** -np.arange(0, max_rungs + 1)
    head, _ = quad(f, 0.0, T - eps0, epsabs=1e-13, epsrel=1e-11, limit=300)

    incr = _strip_integrals(f, T, eps)
    sums = head + np.cumsum(incr)
    truncs = eps[1:]

    def result(status, value, used, p=None):
        return LadderResult(status, value, used, truncs[:used], sums[:used], incr[:used], p)

    over = np.nonzero(sums > DEFAULT_CEILING)[0]
    if over.size:
        return result(DIVERGES, None, int(over[0]) + 1)

    # integrand died before the endpoint: the ladder is already exact
    if np.all(incr[-3:] <= 1e-300):
        return result(FINITE, float(sums[-1]), max_rungs)

    # geometric decay of the increments: extrapolate the geometric tail
    last = incr[-7:]
    if np.all(last > 0.0):
        ratios = last[1:] / last[:-1]
        if ratios.max() < 0.85 and ratios.max() / ratios.min() < 1.25:
            r = float(np.exp(np.mean(np.log(ratios))))
            tail = incr[-1] * r / (1.0 - r)
            return result(FINITE, float(sums[-1] + tail), max_rungs)

    # power decay Δ_k ≈ C (k+1/2)^(-p): convergent iff p > 1
    ks = np.arange(1, max_rungs + 1, dtype=float)
    win = (ks >= max_rungs // 2) & (incr > 0.0)
    if win.sum() < 4:
        return result(UNDECIDED, None, max_rungs)
    xs = np.log(ks[win] + 0.5)
    ys = np.log(incr[win])
    slope, intercept = np.polyfit(xs, ys, 1)
    p = -float(slope)
    if p >= 1.0 + EXPONENT_MARGIN:
        c = math.exp(float(intercept))
        tail = c * (max_rungs + 1.0) ** (1.0 - p) / (p - 1.0)
        return result(FINITE, float(sums[-1] + tail), max_rungs, p)
    if p <= 1.0 - EXPONENT_MARGIN:
        return result(DIVERGES, None, max_rungs, p)
    return result(UNDECIDED, None, max_rungs, p)


def jeulin_yor_functional(
    m: DeterministicIntegrand,
    T: float,
    max_rungs: int = DEFAULT_RUNGS,
) -> LadderResult:
    """Ladder evaluation of ∫₀^T |m_s| (T−s)^{−1/2} ds."""

    def f(s):
        s = np.asarray(s, dtype=float)
        return np.abs(m(s)) / np.sqrt(np.maximum(T - s, 1e-300))

    return improper_endpoint_integral(f, T, max_rungs)


def l2_norm(
    m: DeterministicIntegrand,
    T: float,
    max_rungs: int = DEFAULT_RUNGS,
) -> LadderResult:
    """Ladder evaluation of ∫₀^T m_s² ds."""

    def f(s):
        v = np.asarray(m(s), dtype=float)
        return v * v

    return improper_endpoint_integral(f, T, max_rungs)


@dataclass(frozen=True)
class ClassificationVerdict:
    """Joint verdict of the L² precondition and the weighted integral."""

    jy: LadderResult
    l2: LadderResult
    verdict: str
    family: str
    T: float

    def record(self) -> str:
        """Single-record CSV: family,params,T,jy_value,l2_value,verdict,rungs_used."""
        fam, _, params = self.family.partition(":")
        jy_v = repr(self.jy.value) if self.jy.is_finite else self.jy.status
        l2_v = repr(self.l2.value) if self.l2.is_finite else self.l2.status
        rungs = max(self.jy.rungs_used, self.l2.rungs_used)
        return f"{fam},{params},{self.T!r},{jy_v},{l2_v},{self.verdict},{rungs}"


def classify(
    m: DeterministicIntegrand,
    T: float,
    max_rungs: int = DEFAULT_RUNGS,
) -> ClassificationVerdict:
    """SEMIMARTINGALE / NOT_SEMIMARTINGALE / NOT_DEFINED / UNDECIDED for m•W
    under enlargement by the terminal value at T."""
    l2 = l2_norm(m, T, max_rungs)
    jy = jeulin_yor_functional(m, T, max_rungs)
    if l2.status == DIVERGES:
        verdict = NOT_DEFINED
    elif l2.status == UNDECIDED or jy.status == UNDECIDED:
        verdict = UNDECIDED
    elif jy.status == DIVERGES:
        verdict = NOT_SEMIMARTINGALE
    else:
        verdict = SEMIMARTINGALE
    return ClassificationVerdict(jy, l2, verdict, m.describe(), float(T))
