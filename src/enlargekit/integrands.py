"""Deterministic integrand algebra for enlargements by X = ∫ φ dW.

Conditionally on the path up to t, X is Gaussian with mean
m_t = Σ φ(t_i) ΔW_i (left-point sums) and residual variance
σ²_t = ∫_t^∞ φ(s)² ds.  The information drift

    ρ(x, t) = (x − m_t) φ(t) / σ²_t

is the density-of-drift induced by knowing X in advance, and the log of
the conditional Gaussian density admits an exponential-martingale
representation whose discretization residual this module also computes.

Built-in families carry closed-form residual variances; the log-family
("jy") is the classical square-integrable integrand whose behavior near
the horizon is tuned by a single exponent alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .grid import node_index

# relative tolerance of the quadrature behind a tabulated integrand's σ²_t
QUAD_RTOL = 1e-10


class InformationHorizonError(ValueError):
    """Drift requested at or after the time the residual variance hits 0."""


@dataclass(frozen=True)
class DeterministicIntegrand:
    """A named, evaluable real function of time with square-integrability
    metadata.  ``support_end`` is the first time after which it vanishes
    identically (may be inf for tabulated data declared open-ended)."""

    family: str
    params: tuple[tuple[str, float], ...]
    support_end: float
    _table: tuple[tuple[float, ...], tuple[float, ...]] | None = None

    # -- evaluation --------------------------------------------------------

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        p = dict(self.params)
        if self.family == "indicator":
            out = np.where(t < p["T"], 1.0, 0.0)
        elif self.family == "const":
            out = np.where(t < p["T"], p["c"], 0.0)
        elif self.family == "linear":
            T = p["T"]
            out = np.where(t < T, 1.0 - t / T, 0.0)
        elif self.family == "jy":
            out = _jy_value(t, p["alpha"], p["T"])
        elif self.family == "tabulated":
            xs, ys = self._table
            out = np.interp(t, xs, ys, left=0.0, right=0.0)
        else:
            raise ValueError(f"unknown family {self.family!r}")
        return out if out.ndim else float(out)

    # -- residual variance ∫_t^∞ φ² ---------------------------------------

    def l2_tail(self, t: float) -> float:
        t = float(t)
        p = dict(self.params)
        if self.family == "indicator":
            return max(p["T"] - t, 0.0)
        if self.family == "const":
            return p["c"] ** 2 * max(p["T"] - t, 0.0)
        if self.family == "linear":
            T = p["T"]
            return (T / 3.0) * max(1.0 - t / T, 0.0) ** 3
        if self.family == "jy":
            return _jy_l2_tail(t, p["alpha"], p["T"])
        if self.family == "tabulated":
            xs, _ = self._table
            if self.support_end > xs[-1]:
                raise ValueError("tabulated integrand declared support beyond its table")
            if t >= xs[-1]:
                return 0.0
            val, _ = quad(lambda s: float(self(s)) ** 2, t, xs[-1],
                          epsrel=QUAD_RTOL, epsabs=0.0, limit=200)
            return val
        raise ValueError(f"unknown family {self.family!r}")

    def is_square_integrable(self) -> bool:
        return math.isfinite(self.l2_tail(0.0))

    def describe(self) -> str:
        if not self.params:
            return self.family
        inner = ",".join(f"{k}={v:g}" for k, v in self.params)
        return f"{self.family}:{inner}"


def _jy_value(t, alpha: float, T: float):
    t = np.asarray(t, dtype=float)
    inside = (t > T / 2.0) & (t < T)
    rem = np.where(inside, T - t, 1.0)
    u = -np.log(rem / T)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = rem ** -0.5 * u ** -alpha
    return np.where(inside, val, 0.0)


def _jy_l2_tail(t: float, alpha: float, T: float) -> float:
    # ∫ (T-s)^{-1} (-log((T-s)/T))^{-2a} ds = ∫ u^{-2a} du under u = -log((T-s)/T)
    if t >= T:
        return 0.0
    if 2.0 * alpha <= 1.0:
        return math.inf
    u0 = math.log(2.0) if t <= T / 2.0 else -math.log((T - t) / T)
    return u0 ** (1.0 - 2.0 * alpha) / (2.0 * alpha - 1.0)


# -- constructors -----------------------------------------------------------


def indicator(T: float) -> DeterministicIntegrand:
    """1 on [0, T), 0 after: enlargement by the path value at T."""
    return DeterministicIntegrand("indicator", (("T", float(T)),), float(T))


def constant(c: float, T: float) -> DeterministicIntegrand:
    return DeterministicIntegrand("const", (("c", float(c)), ("T", float(T))), float(T))


def linear_ramp(T: float) -> DeterministicIntegrand:
    """1 − t/T on [0, T): a non-bridge enlargement with σ²_t = (T/3)(1−t/T)³."""
    return DeterministicIntegrand("linear", (("T", float(T)),), float(T))


def jeulin_yor(alpha: float, T: float = 1.0) -> DeterministicIntegrand:
    """(T−s)^{-1/2} (−log((T−s)/T))^{-alpha} on (T/2, T).

    Square-integrable iff alpha > 1/2; its weighted integral against
    (T−s)^{-1/2} is finite iff alpha > 1.
    """
    return DeterministicIntegrand("jy", (("alpha", float(alpha)), ("T", float(T))), float(T))


def tabulated(times, values) -> DeterministicIntegrand:
    xs = tuple(float(x) for x in times)
    ys = tuple(float(y) for y in values)
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("tabulated integrand needs matching times/values, length >= 2")
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise ValueError("tabulated times must be strictly increasing")
    return DeterministicIntegrand("tabulated", (), xs[-1], (xs, ys))


_FAMILIES = {
    "indicator": lambda kv: indicator(kv["T"]),
    "const": lambda kv: constant(kv["c"], kv["T"]),
    "linear": lambda kv: linear_ramp(kv["T"]),
    "jy": lambda kv: jeulin_yor(kv["alpha"], kv.get("T", 1.0)),
}


def parse_integrand(spec: str) -> DeterministicIntegrand:
    """Parse config strings like ``indicator:T=1`` or ``jy:alpha=0.75,T=1``."""
    head, _, rest = spec.partition(":")
    if head not in _FAMILIES:
        raise ValueError(f"unknown integrand family {head!r}")
    kv = {}
    for part in filter(None, rest.split(",")):
        k, _, v = part.partition("=")
        x = float(v)
        if not math.isfinite(x):
            raise ValueError(f"integrand parameter {part!r} is not a finite number")
        kv[k.strip()] = x
    try:
        return _FAMILIES[head](kv)
    except KeyError as e:
        raise ValueError(f"integrand {head!r} missing parameter {e.args[0]!r}") from e


# -- operations -------------------------------------------------------------


def residual_variance(phi: DeterministicIntegrand, t: float) -> float:
    """σ²_t = ∫_t^∞ φ(s)² ds, closed form for built-in families."""
    if t < 0:
        raise ValueError("time must be nonnegative")
    return phi.l2_tail(t)


def running_mean(phi: DeterministicIntegrand, times: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Left-point sums m_k = Σ_{i<k} φ(t_i) (W_{t_{i+1}} − W_{t_i}).

    ``values`` may be one path (1d) or a matrix (path, node); the result
    has the same shape, with m = 0 at the first node.
    """
    values = np.asarray(values, dtype=float)
    w = phi(times[:-1])
    incr = np.diff(values, axis=-1) * w
    out = np.zeros_like(values)
    np.cumsum(incr, axis=-1, out=out[..., 1:])
    return out


def information_drift(phi: DeterministicIntegrand, x, t: float, m_t) -> float | np.ndarray:
    """(x − m_t) φ(t) / σ²_t; undefined at or after the information horizon."""
    var = residual_variance(phi, t)
    if var <= 0.0:
        raise InformationHorizonError(f"residual variance vanishes at t={t}")
    return (np.asarray(x, dtype=float) - m_t) * float(phi(t)) / var


def log_density_identity_residual(
    phi: DeterministicIntegrand,
    times: np.ndarray,
    values: np.ndarray,
    x: float,
    t: float,
) -> np.ndarray:
    """Gap between the log conditional-density increment and its
    exponential-martingale discretization

        log φ(t,x) − log φ(0,x) − [Σ ρ(x,s_i) ΔW_i − ½ Σ ρ(x,s_i)² Δs_i].

    Shrinks like O(√Δt) in RMS over an ensemble as the grid refines.
    """
    values = np.atleast_2d(np.asarray(values, dtype=float))
    k = node_index(times, t)
    var0 = residual_variance(phi, 0.0)
    var_t = residual_variance(phi, float(times[k]))
    if var_t <= 0.0 or var0 <= 0.0:
        raise InformationHorizonError("density identity needs positive residual variance on [0, t]")

    sub = times[: k + 1]
    m = running_mean(phi, sub, values[:, : k + 1])
    sig2 = np.array([residual_variance(phi, float(s)) for s in sub[:-1]])
    w = np.asarray(phi(sub[:-1]), dtype=float)
    rho = (x - m[:, :-1]) * w / sig2
    dW = np.diff(values[:, : k + 1], axis=1)
    dt = np.diff(sub)
    ito = np.sum(rho * dW, axis=1) - 0.5 * np.sum(rho**2 * dt, axis=1)

    lhs = (-0.5 * math.log(var_t) - (x - m[:, -1]) ** 2 / (2.0 * var_t)) - (
        -0.5 * math.log(var0) - x**2 / (2.0 * var0)
    )
    return lhs - ito
