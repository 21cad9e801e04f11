"""Enlarged-filtration objects on simulated paths.

Knowing X = ∫ φ dW from time 0 turns the driving Brownian motion into a
semimartingale whose finite-variation part is the accumulated
information drift A_t = Σ ρ(X, s_i) Δs_i (left-point sums).  This module
builds A, the compensated processes W̃ = W − A and M̃ = M − ∫ρ d[M,W],
stochastic integrals against a decomposition, and the jump-process
analogue pinned at its terminal value.

X is always realized from the same simulated path: the enlargement is by
a functional of the path itself, never resampled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import TimeGrid
from .integrands import DeterministicIntegrand, running_mean
from .classifier import SEMIMARTINGALE, classify
from .mgtests import Moments
from .paths import PathEnsemble, row_slices, split_rows

# Stieltjes sums beyond this are reported as non-integrable rather than
# silently overflowing.
STIELTJES_GUARD = 1e12


class EnlargementError(ValueError):
    """Inconsistent enlargement setup."""


class RefusedNonSemimartingaleError(RuntimeError):
    """Raised instead of simulating an object that provably does not exist.

    Carries the classifier verdict; simulating past it would only produce
    grid-dependent noise.
    """

    def __init__(self, verdict):
        self.verdict = verdict
        super().__init__(
            f"refused: {verdict.family} classified {verdict.verdict}; "
            "the compensated integral is not a semimartingale under this enlargement"
        )


@dataclass(frozen=True)
class EnlargementSpec:
    """Recipe for enlarging the Brownian filtration by X = ∫ φ dW: φ must
    be square-integrable, and the grid must end at or before the
    information horizon, where φ's support ends."""

    phi: DeterministicIntegrand
    grid: TimeGrid

    def __post_init__(self):
        if not self.phi.is_square_integrable():
            raise EnlargementError(f"{self.phi.describe()} is not square-integrable: "
                                   "X = ∫φ dW does not exist")
        if self.grid.horizon > self.phi.support_end + 1e-15:
            raise EnlargementError("simulation horizon runs into the information horizon")

    def drift_weights(self) -> np.ndarray:
        """φ(t_i) Δt_i / σ²_i at every left node, σ²_i = Σ_{j≥i} φ(t_j)² Δt_j
        being the variance left, given the path up to t_i, in the X that
        :func:`realize_X` builds on this grid.

        Nodes where φ vanishes contribute no drift, so they never touch
        σ²; anywhere else a vanished σ² means the grid ran into the
        information horizon (or φ² underflowed).
        """
        w = np.asarray(self.phi(self.grid.nodes[:-1]), dtype=float)
        sig2 = np.cumsum((w * w * self.grid.steps)[::-1])[::-1]
        live = w != 0.0
        if np.any(sig2[live] <= 0.0):
            raise EnlargementError("residual variance vanishes inside the grid")
        out = np.zeros_like(w)
        out[live] = w[live] * self.grid.steps[live] / sig2[live]
        return out

    def compensated_qv(self, k: int) -> float:
        """E Σ_{i<k} (ΔW_i − ΔA_i)², the expected quadratic variation of
        W − A up to node k on this grid.

        With ΔA_i = w_i (X − m_i) and X − m_i = Σ_{j≥i} φ(t_j) ΔW_j for the
        X that :func:`realize_X` builds, each term is
        Δt_i − 2 w_i φ(t_i) Δt_i + w_i² σ²_i, and w_i² σ²_i = w_i φ(t_i) Δt_i
        (:meth:`drift_weights`), so it is Δt_i (1 − w_i φ(t_i)).
        """
        dt = self.grid.steps
        phi = np.asarray(self.phi(self.grid.nodes[:-1]), dtype=float)
        return float(np.sum((dt * (1.0 - self.drift_weights() * phi))[:k]))


@dataclass(frozen=True)
class DecomposedProcess:
    """original = martingale_part + fv_part at every node, per path."""

    times: np.ndarray
    original: np.ndarray
    martingale_part: np.ndarray
    fv_part: np.ndarray
    label: str

    def __post_init__(self):
        _check_additivity(self.original, self.fv_part, self.martingale_part)

    def additivity_gap(self) -> float:
        return _additivity_gap(self.original, self.fv_part, self.martingale_part)[0]


def _additivity_gap(original, fv_part, martingale_part=None) -> tuple[float, float]:
    """max |original − (martingale_part + fv_part)| and max(|original|, 1).

    Without ``martingale_part`` the martingale part is original − fv_part,
    formed slice by slice.  The matrices are walked in row slices, so no
    temporary as large as them exists; a non-finite entry anywhere makes
    the gap non-finite.
    """
    gaps, scale = [], 1.0
    for rows in row_slices(*original.shape):
        o, fv = original[rows], fv_part[rows]
        s = np.subtract(o, fv) if martingale_part is None else np.array(martingale_part[rows])
        s += fv
        s -= o
        gaps.append(np.maximum(s.max(initial=0.0), -s.min(initial=0.0)))
        scale = max(scale, float(o.max(initial=0.0)), -float(o.min(initial=0.0)))
    return float(np.max(gaps, initial=0.0)), scale


def _check_additivity(original, fv_part, martingale_part=None) -> None:
    _check_gaps([_additivity_gap(original, fv_part, martingale_part)])


def _check_gaps(parts: list[tuple[float, float]]) -> None:
    """Rejects the (gap, scale) pairs of the row ranges of one matrix.

    Finiteness is checked range by range: Python's ``max`` keeps or drops
    a NaN depending on where it sits.
    """
    for gap, _ in parts:
        if not math.isfinite(gap):
            raise EnlargementError(f"decomposition does not add up (gap {gap:g})")
    gap = max(g for g, _ in parts)
    if gap > 1e-9 * max(s for _, s in parts):
        raise EnlargementError(f"decomposition does not add up (gap {gap:g})")


def realize_X(spec: EnlargementSpec, values: np.ndarray) -> np.ndarray:
    """Itô-sum value of ∫ φ dW over the path's full support, per path.

    Σ_{i<n} φ(t_i)(W_{i+1} − W_i) is summed by parts into one weighted sum
    of the path values, Σ_k c_k W_k with c_k = φ(t_{k−1}) − φ(t_k) (φ read
    as 0 before the first and at the last node); for the indicator this
    is exactly the terminal value.  It runs on one thread: the sum is one
    BLAS matvec, which OpenBLAS already threads.
    """
    times = spec.grid.nodes
    if not math.isfinite(spec.phi.support_end):
        raise EnlargementError("cannot realize X: integrand support is unbounded, path is finite")
    phi = np.asarray(spec.phi(times[:-1]), dtype=float)
    c = -np.diff(np.concatenate(([0.0], phi, [0.0])))
    return np.asarray(values, dtype=float) @ c


def _fv_part(phi, times, weights, values, x, out=None) -> np.ndarray:
    """Σ_{i<k} (x − m_i) w_i at every node k, m the left-point running mean
    of φ against the path.

    Everything is formed inside the result: m_i is written to column
    i + 1, turned into the increment (x − m_i) w_i there, and one cumsum
    over columns 1.. leaves A_k in column k.
    """
    a = np.empty_like(values) if out is None else out
    n = values.shape[1] - 1
    a[:, :2] = 0.0
    np.subtract(values[:, 1:n], values[:, : n - 1], out=a[:, 2:])
    a[:, 2:] *= phi(times[: n - 1])
    np.cumsum(a[:, 2:], axis=1, out=a[:, 2:])
    np.subtract(x[:, None], a[:, 1:], out=a[:, 1:])
    a[:, 1:] *= weights
    np.cumsum(a[:, 1:], axis=1, out=a[:, 1:])
    return a


def drift_compensator(
    spec: EnlargementSpec, values: np.ndarray, x, out: np.ndarray | None = None
) -> np.ndarray:
    """A at node k: Σ_{i<k} ρ(x, s_i) Δs_i with ρ = (x − m_s) φ(s)/σ²_s.

    No path-sized array besides the result is allocated, and ``out`` lets
    a block loop reuse one result buffer.  W = (W − A) + A is checked on
    every node before A is returned, so a non-finite compensator is
    rejected even where no :class:`DecomposedProcess` is built from it.
    Both steps run per row range across cores (:func:`split_rows`).
    """
    values = np.atleast_2d(np.asarray(values, dtype=float))
    x = np.broadcast_to(np.asarray(x, dtype=float), values.shape[:1])
    a = np.empty_like(values) if out is None else out
    weights = spec.drift_weights()

    def fill(lo: int, hi: int) -> tuple[float, float]:
        rows = slice(lo, hi)
        _fv_part(spec.phi, spec.grid.nodes, weights, values[rows], x[rows], a[rows])
        return _additivity_gap(values[rows], a[rows])

    _check_gaps(split_rows(fill, values.shape))
    return a


def compensate_brownian(spec: EnlargementSpec, ensemble: PathEnsemble, x) -> DecomposedProcess:
    """W = W̃ + A with W̃ a Brownian motion for the enlarged information."""
    a = drift_compensator(spec, ensemble.values, x)
    return DecomposedProcess(
        spec.grid.nodes,
        ensemble.values,
        ensemble.values - a,
        a,
        f"brownian|phi={spec.phi.describe()}",
    )


def compensate_martingale(
    spec: EnlargementSpec,
    m_integrand: DeterministicIntegrand,
    ensemble: PathEnsemble,
    x,
) -> DecomposedProcess:
    """M = m•W compensated by ∫ ρ(X, s) m_s ds.

    Refuses (rather than warns) whenever the integrability classifier
    does not certify that the compensated object exists.
    """
    verdict = classify(m_integrand, spec.phi.support_end)
    if verdict.verdict != SEMIMARTINGALE:
        raise RefusedNonSemimartingaleError(verdict)
    values = np.atleast_2d(np.asarray(ensemble.values, dtype=float))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    t = spec.grid.nodes
    big_m = running_mean(m_integrand, t, values)
    w = spec.drift_weights() * np.asarray(m_integrand(t[:-1]), dtype=float)
    fv = _fv_part(spec.phi, t, w, values, x)
    return DecomposedProcess(
        t, big_m, big_m - fv, fv, f"martingale|m={m_integrand.describe()}|phi={spec.phi.describe()}"
    )


class NonIntegrableError(RuntimeError):
    """Path-by-path Stieltjes sum failed the existence guard."""


def check_stieltjes_guard(stieltjes: np.ndarray) -> None:
    """Raises :class:`NonIntegrableError` unless every per-path Σ|h||ΔA|
    is finite and within ``STIELTJES_GUARD``."""
    over = int(np.count_nonzero(~(stieltjes <= STIELTJES_GUARD)))
    if over:
        raise NonIntegrableError(f"∫|H| |dA| exceeded the guard on {over} paths")


def integrate_under_enlargement(
    H: DeterministicIntegrand,
    decomposition: DecomposedProcess,
) -> DecomposedProcess:
    """H•M = H•M̃ + H•A, left-point sums against both parts."""
    t = decomposition.times
    h = np.asarray(H(t[:-1]), dtype=float)
    d_fv = np.diff(decomposition.fv_part, axis=1)
    check_stieltjes_guard(np.sum(np.abs(h) * np.abs(d_fv), axis=1))
    mart = np.zeros_like(decomposition.martingale_part)
    np.cumsum(h * np.diff(decomposition.martingale_part, axis=1), axis=1, out=mart[:, 1:])
    fv = np.zeros_like(decomposition.fv_part)
    np.cumsum(h * d_fv, axis=1, out=fv[:, 1:])
    return DecomposedProcess(
        t, mart + fv, mart, fv, f"integral|H={H.describe()}|{decomposition.label}"
    )


def levy_bridge_compensator(
    ensemble: PathEnsemble,
    z_terminal: np.ndarray,
    pin_time: float = 1.0,
    at: np.ndarray | None = None,
) -> DecomposedProcess | np.ndarray:
    """Z compensated for knowledge of its value at ``pin_time``:
    fv part = left-point sums of (Z_T − Z_s)/(T − s) ds.

    The drift is only ever evaluated at left nodes, so the grid may end
    exactly at the pinning time but never beyond it.

    With ``at`` (node indices) only the fv part at those nodes is
    returned, as a (paths × nodes) matrix and without a decomposition:
    A_k = Z_T Σ_{i<k} w_i − Σ_{i<k} Z_i w_i, one matrix product over the
    paths for all requested nodes.
    """
    t = ensemble.grid.nodes
    if t[-1] > pin_time:
        raise EnlargementError("grid runs past the pinning time")
    z = ensemble.values
    zt = np.atleast_1d(np.asarray(z_terminal, dtype=float))
    w = ensemble.grid.steps / (pin_time - t[:-1])
    if at is not None:
        at = np.asarray(at, dtype=int)
        left = np.arange(w.size)[:, None] < at[None, :]
        weights = np.where(left, w[:, None], 0.0)
        return zt[:, None] * weights.sum(axis=0) - z[:, :-1] @ weights
    fv = np.zeros_like(z)
    np.cumsum((zt[:, None] - z[:, :-1]) * w, axis=1, out=fv[:, 1:])
    return DecomposedProcess(t, z, z - fv, fv, f"levy-bridge|{ensemble.process_label}")


@dataclass(frozen=True)
class SlopeReport:
    s: float
    t: float
    slope: float
    se: float
    expected: float
    n_paths: int

    @classmethod
    def through_origin(cls, m: Moments, s: float, t: float, expected: float) -> "SlopeReport":
        """Least-squares slope through the origin of y on u, read from the
        co-moments of the per-path pair (u, y) via Σab = C_ab + n·ā·b̄."""
        n = m.n
        raw = m.m2 + n * np.outer(m.mean, m.mean)
        suu, suy, syy = float(raw[0, 0]), float(raw[0, 1]), float(raw[1, 1])
        slope = suy / suu
        rss = max(syy - slope * suy, 0.0)
        se = math.sqrt(rss / (n - 1) / suu)
        return cls(float(s), float(t), slope, se, float(expected), n)

    @property
    def z(self) -> float:
        gap = self.slope - self.expected
        if self.se > 0:
            return gap / self.se
        return 0.0 if abs(gap) < 1e-9 else math.inf


def drift_magnitude_weights(times: np.ndarray, pin_time: float = 1.0) -> np.ndarray:
    """Exact per-interval weights ∫ ds/(T−s) = log((T−t_i)/(T−t_{i+1}));
    the singular kernel is integrated in closed form so that only the
    path factor is sampled."""
    return np.log((pin_time - times[:-1]) / (pin_time - times[1:]))


def abs_drift_integral_paths(
    values: np.ndarray,
    times: np.ndarray,
    x: np.ndarray,
    rung_indices: np.ndarray,
    pin_time: float = 1.0,
) -> np.ndarray:
    """Per-path ∫₀^{t_k} |x − W_s| / (T − s) ds at each rung node t_k.

    The 1/(T−s) kernel is integrated exactly per interval; |x − W| enters
    through the endpoint average, keeping the estimator's discretization
    bias far below its Monte Carlo error near the singular end.

    Runs on one thread: its head is a BLAS matvec per row slice, which
    OpenBLAS already threads, and a smaller slice would change its sums.
    """
    values = np.atleast_2d(values)
    x = np.atleast_1d(x)
    rungs = np.asarray(rung_indices, dtype=int)
    lo, hi = int(rungs.min()), int(rungs.max())
    w = drift_magnitude_weights(times, pin_time)
    # up to the first rung, Σ_{i<lo} ½(d_i + d_{i+1}) w_i = Σ_{j≤lo} d_j head_j
    head = np.zeros(lo + 1)
    head[:lo] += 0.5 * w[:lo]
    head[1:] += 0.5 * w[:lo]
    out = np.empty((values.shape[0], rungs.size))
    for rows in row_slices(values.shape[0], hi + 1):
        dev = np.subtract(x[rows, None], values[rows, : hi + 1])
        np.abs(dev, out=dev)
        cum = np.empty((dev.shape[0], hi - lo + 1))
        cum[:, 0] = dev[:, : lo + 1] @ head
        np.cumsum(0.5 * (dev[:, lo:hi] + dev[:, lo + 1 :]) * w[lo:hi], axis=1, out=cum[:, 1:])
        cum[:, 1:] += cum[:, :1]
        out[rows] = cum[:, rungs - lo]
    return out
