"""Statistical certification of the martingale property under an
enlarged information flow.

The core test is weak-form: for pairs s < t and a finite basis of
functions g of the time-s information, the ensemble mean of
(M_t − M_s)·g(W_s, X) is zero for a true martingale, and each estimate
comes with an exact standard error.  A battery passes when every z-score
clears the (Bonferroni-corrected) threshold.

Also here: quadratic-variation checks, a moment-based Brownian
characterization suite, the look-ahead predictability check, and an
empirical two-sided probe of the almost-sure equivalence
{∫ R_s A_s ds < ∞} = {∫ A_s ds < ∞} for R_s standard half-normal and
independent of the time-s past.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .grid import node_index
from .paths import SeedSpec, row_slices, split_rows

DEFAULT_THRESHOLD = 4.0


class Moments:
    """Count, means and centred second moments of k per-path statistics.

    A block is reduced in two passes (its mean, then its deviations from
    that mean) and merged into the totals with the pairwise update of
    Chan, Golub & LeVeque (1979), so no variance is ever the difference of
    two large sums, and splitting the paths into blocks moves results
    only at round-off.  With ``cross`` the full k × k co-moment matrix
    Σ(a − ā)(b − b̄) is kept; without it, only its diagonal.

    Reductions run through einsum rather than BLAS: a multi-threaded BLAS
    wakes its workers for a product this thin, which on a small machine
    costs milliseconds per call against microseconds for the sums.
    """

    def __init__(self, k: int, cross: bool = False):
        self.cross = cross
        self.n = 0
        self.mean = np.zeros(k)
        self.m2 = np.zeros((k, k) if cross else k)

    def update(self, block) -> None:
        """Folds in one block: a (k × paths) array, one row per statistic
        (a plain per-path vector when k = 1)."""
        block = np.atleast_2d(block)
        nb = block.shape[1]
        if nb == 0:
            return
        mean = block.sum(axis=1) / nb
        if self.cross:
            d = block - mean[:, None]
            m2 = np.einsum("ij,kj->ik", d, d)
        else:  # a row at a time: a second (k × paths) temporary costs more than the sums
            devs = (row - mu for row, mu in zip(block, mean))
            m2 = np.array([np.einsum("i,i->", d, d) for d in devs])
        self._fold(nb, mean, m2)

    def _fold(self, nb: int, mean: np.ndarray, m2: np.ndarray) -> None:
        n = self.n + nb
        delta = mean - self.mean
        shift = np.outer(delta, delta) if self.cross else delta * delta
        self.m2 = self.m2 + m2 + shift * (self.n * nb / n)
        self.mean = self.mean + delta * (nb / n)
        self.n = n

    def se(self) -> np.ndarray:
        """Standard error of each mean, from the n − 1 sample variance."""
        m2 = np.diagonal(self.m2) if self.cross else self.m2
        return np.sqrt(m2 / max(self.n - 1, 1) / self.n)


def correlation(m: Moments) -> float:
    """Pearson correlation of the two statistics of a cross ``Moments(2)``."""
    return float(m.m2[0, 1] / math.sqrt(m.m2[0, 0] * m.m2[1, 1]))


class ShiftedPowerSums:
    """Count, mean and centred sums of powers 2–4 of one statistic, from
    the sums of (x − c)^p about a shift c fixed from the first block.

    With c inside the data these sums cancel no further than the spread
    about c; sums about 0 lose every digit of the skewness once the mean
    dwarfs the spread.  Merged centred blocks would lose them too: a mean
    near 1e8 is rounded to 1.5e-8, which moves Σ(x − x̄)³ by 3·1.5e-8·Σ(x − x̄)²."""

    def __init__(self):
        self.shift: float | None = None
        self.sums = np.zeros(5)  # Σ(x − c)^p for p = 0..4

    def update(self, x: np.ndarray) -> None:
        if x.size == 0:
            return
        if self.shift is None:
            self.shift = float(np.mean(x))
        d = x - self.shift
        d2 = d * d
        self.sums += (d.size, d.sum(), d2.sum(), np.einsum("i,i->", d2, d), np.einsum("i,i->", d2, d2))

    def central(self) -> tuple[int, float, float, float, float]:
        """n, the mean, and Σ(x − x̄)^p for p = 2, 3, 4."""
        n, s1, s2, s3, s4 = self.sums.tolist()
        a = s1 / n  # x̄ − c
        m2 = s2 - a * s1
        m3 = s3 - 3.0 * a * s2 + 2.0 * a * a * s1
        m4 = s4 - 4.0 * a * s3 + 6.0 * a * a * s2 - 3.0 * a**3 * s1
        return int(n), self.shift + a, m2, m3, m4


@dataclass(frozen=True)
class BasisFunction:
    """Named function of (conditioning value at s, info variable X)."""

    label: str
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray] = field(compare=False)


def default_basis() -> list[BasisFunction]:
    """Low-order functionals of the time-s information: {1, W_s, X, W_s·X, W_s²}."""
    return [
        BasisFunction("1", lambda w, x: np.ones_like(w)),
        BasisFunction("W_s", lambda w, x: w),
        BasisFunction("X", lambda w, x: x),
        BasisFunction("W_s*X", lambda w, x: w * x),
        BasisFunction("W_s^2", lambda w, x: w * w),
    ]


def info_minus_state_basis() -> list[BasisFunction]:
    """{X − W_s}: the single most powerful detector for an uncompensated bridge."""
    return [BasisFunction("X-W_s", lambda w, x: x - w)]


@dataclass(frozen=True)
class TestRecord:
    s: float
    t: float
    basis: str
    estimate: float
    se: float
    z: float


@dataclass(frozen=True)
class MartingaleTestReport:
    tests: tuple[TestRecord, ...]
    n_paths: int
    correction: str
    threshold: float
    verdict: bool
    seeds: SeedSpec | None = None

    def max_abs_z(self) -> float:
        return max(abs(r.z) for r in self.tests)

    def to_dict(self) -> dict:
        return {
            "n_paths": self.n_paths,
            "correction": self.correction,
            "threshold": self.threshold,
            "verdict": "pass" if self.verdict else "fail",
            "seeds": None if self.seeds is None else {
                "base_seed": self.seeds.base_seed,
                "derivation": self.seeds.derivation,
            },
            "tests": [vars(r) for r in self.tests],
        }


class IncrementRegressionAccumulator:
    """Streaming moments of the weak-form battery's products
    (M_t − M_s)·g(W_s, X), one statistic per (pair, basis function)."""

    def __init__(self, pairs: Sequence[tuple[float, float]], basis: Sequence[BasisFunction]):
        if not basis:
            raise ValueError("empty test basis")
        for s, t in pairs:
            if t <= s:
                raise ValueError(f"need s < t, got ({s}, {t})")
        self.pairs = [(float(s), float(t)) for s, t in pairs]
        self.basis = list(basis)
        self._moments = Moments(len(self.pairs) * len(self.basis))

    @property
    def times_needed(self) -> list[float]:
        return sorted({u for p in self.pairs for u in p})

    def update(
        self,
        proc_at: Mapping[float, np.ndarray],
        cond_at: Mapping[float, np.ndarray],
        x: np.ndarray,
    ) -> None:
        y = np.empty((len(self.pairs), len(self.basis), x.size))
        for i, (s, t) in enumerate(self.pairs):
            incr = proc_at[t] - proc_at[s]
            ws = cond_at[s]
            for j, g in enumerate(self.basis):
                np.multiply(incr, g.fn(ws, x), out=y[i, j])
        self._moments.update(y.reshape(-1, x.size))

    def report(self, threshold: float = DEFAULT_THRESHOLD, seeds: SeedSpec | None = None) -> MartingaleTestReport:
        m = self._moments
        if m.n < 2:
            raise ValueError("not enough paths accumulated")
        records = []
        tests = [(s, t, g.label) for s, t in self.pairs for g in self.basis]
        for (s, t, label), est, se in zip(tests, m.mean.tolist(), m.se().tolist()):
            z = est / se if se > 0 else (0.0 if est == 0 else math.inf)
            records.append(TestRecord(s, t, label, est, se, z))
        verdict = all(abs(r.z) <= threshold for r in records)
        correction = f"bonferroni({len(records)} tests, |z|<={threshold:g})"
        return MartingaleTestReport(tuple(records), m.n, correction, threshold, verdict, seeds)


def columns_at(values: np.ndarray, times: np.ndarray, wanted: Sequence[float]) -> dict[float, np.ndarray]:
    """The columns of ``values`` at the nodes of ``wanted``, as contiguous
    copies gathered in one pass over the rows (a column view would leave
    every consumer a strided walk over the whole matrix)."""
    cols = np.ascontiguousarray(values[:, [node_index(times, u) for u in wanted]].T)
    return {float(u): col for u, col in zip(wanted, cols)}


def increment_regression_test(
    values: np.ndarray,
    times: np.ndarray,
    x: np.ndarray,
    pairs: Sequence[tuple[float, float]],
    basis: Sequence[BasisFunction] | None = None,
    threshold: float = DEFAULT_THRESHOLD,
    cond_values: np.ndarray | None = None,
    seeds: SeedSpec | None = None,
) -> MartingaleTestReport:
    """One-shot weak-form martingale battery on a full value matrix.

    ``cond_values`` carries the conditioning state (e.g. the original
    Brownian path when testing its compensated version); defaults to the
    process itself.
    """
    basis = default_basis() if basis is None else list(basis)
    acc = IncrementRegressionAccumulator(pairs, basis)
    cond = values if cond_values is None else cond_values
    wanted = acc.times_needed
    acc.update(columns_at(values, times, wanted), columns_at(cond, times, wanted), np.asarray(x))
    return acc.report(threshold, seeds)


# ---------------------------------------------------------------------------
# quadratic variation


@dataclass(frozen=True)
class QVReport:
    t: float
    expected: float
    mean: float
    se: float
    rel_tol: float
    n_paths: int

    @property
    def rel_error(self) -> float:
        return abs(self.mean - self.expected) / abs(self.expected) if self.expected else abs(self.mean)

    @property
    def passed(self) -> bool:
        return self.rel_error <= self.rel_tol


class QVAccumulator:
    def __init__(self, node_index: int, t: float):
        self.k = int(node_index)
        self.t = float(t)
        self._moments = Moments(1)

    def update(self, values: np.ndarray, fv: np.ndarray | None = None) -> None:
        """Adds per-path Σ(ΔM)² on [0, t] for M = values − fv, summed from
        the increments ΔW − ΔA one row slice at a time, so M itself is
        never formed.  The rows are split across cores (:func:`split_rows`)
        and the block is folded into the moments once."""
        k = self.k
        qv = np.empty(values.shape[0])

        def fill(lo: int, hi: int) -> None:
            for rows in row_slices(hi - lo, k):
                rows = slice(lo + rows.start, lo + rows.stop)
                d = np.diff(values[rows, : k + 1], axis=1)
                if fv is not None:
                    d -= np.diff(fv[rows, : k + 1], axis=1)
                qv[rows] = np.einsum("ij,ij->i", d, d)

        split_rows(fill, (values.shape[0], k + 1))
        self._moments.update(qv)

    def report(self, expected: float, rel_tol: float) -> QVReport:
        m = self._moments
        return QVReport(self.t, float(expected), float(m.mean[0]), float(m.se()[0]), float(rel_tol), m.n)


# ---------------------------------------------------------------------------
# moment-based Brownian characterization


class CharacterizationAccumulator:
    """Brownian-character checks on all grid increments, normalized by
    √Δt: mean 0, variance 1, no skew, no excess kurtosis, and no
    correlation between consecutive disjoint increments.  Each block is
    read one row slice at a time."""

    def __init__(self, times: np.ndarray):
        self._sqrt_dt = np.sqrt(np.diff(times))
        self._z = ShiftedPowerSums()
        self._lag = Moments(2, cross=True)

    def update(self, values: np.ndarray) -> None:
        if np.any(values[:, 0] != 0.0):
            raise ValueError("process must start at 0")
        for rows in row_slices(*values.shape):
            z = np.diff(values[rows], axis=1)
            z /= self._sqrt_dt
            self._z.update(z.ravel())
            self._lag.update(np.stack((z[:, :-1].ravel(), z[:, 1:].ravel())))

    def report(self, threshold: float) -> dict:
        """Each check's name, statistic and z-score, and the verdict: pass
        when every |z| is within ``threshold``."""
        n, mean, m2, m3, m4 = self._z.central()
        var = m2 / (n - 1)
        sd = math.sqrt(var)
        skew = m3 / n / sd**3
        kurt = m4 / n / sd**4 - 3.0
        r = correlation(self._lag)
        checks = [
            {"name": name, "statistic": statistic, "z": z} for name, statistic, z in (
                ("increment_mean", mean, mean / (sd / math.sqrt(n))),
                ("increment_variance", var, (var - 1.0) / math.sqrt(2.0 / (n - 1))),
                ("skewness", skew, skew / math.sqrt(6.0 / n)),
                ("excess_kurtosis", kurt, kurt / math.sqrt(24.0 / n)),
                ("disjoint_increment_corr", r, r * math.sqrt(self._lag.n)),
            )
        ]
        passed = all(abs(c["z"]) <= threshold for c in checks)
        return {"checks": checks, "verdict": "pass" if passed else "fail"}


# ---------------------------------------------------------------------------
# look-ahead non-integrator demonstration


class LookaheadPredictabilityError(ValueError):
    """Dyadic level too fine for the declared look-ahead margin."""


# ---------------------------------------------------------------------------
# probe of the a.s. set equality {∫ R A < ∞} = {∫ A < ∞}


@dataclass(frozen=True)
class ProbeIntegrand:
    """Positive deterministic process with an exact interval integral."""

    label: str
    integral: Callable[[float, float], float] = field(compare=False)
    diverges: bool = False


def probe_power_quarter(T: float = 1.0) -> ProbeIntegrand:
    """(T−s)^{−1/4}: integrable up to T."""

    def integral(a: float, b: float) -> float:
        return (4.0 / 3.0) * ((T - a) ** 0.75 - (T - b) ** 0.75)

    return ProbeIntegrand(f"(T-s)^-1/4,T={T:g}", integral, diverges=False)


def probe_log_divergent(alpha: float = 0.75, T: float = 1.0) -> ProbeIntegrand:
    """(T−s)^{−1} (−log((T−s)/T))^{−alpha} on (T/2, T): diverges (slowly)
    at T whenever alpha ≤ 1."""

    def anti(s: float) -> float:
        u = -math.log((T - s) / T)
        return u ** (1.0 - alpha) / (1.0 - alpha)

    def integral(a: float, b: float) -> float:
        a = max(a, T / 2.0)
        if b <= a:
            return 0.0
        return anti(b) - anti(a)

    return ProbeIntegrand(f"(T-s)^-1*log^-{alpha:g},T={T:g}", integral, diverges=alpha <= 1.0)


@dataclass(frozen=True)
class ProbeReport:
    integrand: str
    deterministic_integral_deepest: float
    cauchy_fraction: float
    exceed_fraction: float
    ceiling: float
    depth: int
    n_paths: int


# a path counts as Cauchy when its last three rung increments are each
# below this fraction of (1 + its deepest partial integral)
PROBE_CAUCHY_TOL = 1e-3


class JeulinProbeAccumulator:
    """Streams per-path truncated integrals Σ R_i ∫A over a rung ladder:
    Cauchy stabilization when ∫A converges, ceiling exceedance when it
    diverges.  R_s = |X − W_s|/√(t_pin − s) is standard half-normal and
    independent of the path up to s by construction.  Each block is read
    one row slice at a time."""

    def __init__(
        self,
        A: ProbeIntegrand,
        times: np.ndarray,
        rung_indices: Sequence[int],
        ceiling: float,
    ):
        self.A = A
        self.rungs = np.asarray(rung_indices, dtype=int)
        self.ceiling = float(ceiling)
        self._sqrt_left = np.sqrt(times[-1] - times[:-1])
        self._weights = np.array(
            [A.integral(float(a), float(b)) for a, b in zip(times[:-1], times[1:])]
        )
        self._n = 0
        self._n_cauchy = 0
        self._n_exceed = 0

    def update(self, values: np.ndarray, x: np.ndarray) -> None:
        for rows in row_slices(*values.shape):
            r = np.abs(x[rows, None] - values[rows, :-1])
            r /= self._sqrt_left
            r *= self._weights
            ladder = np.cumsum(r, axis=1, out=r)[:, self.rungs - 1]
            tail = np.abs(np.diff(ladder[:, -4:], axis=1))
            cauchy = np.all(tail < PROBE_CAUCHY_TOL * (1.0 + ladder[:, -1:]), axis=1)
            self._n_cauchy += int(np.sum(cauchy))
            self._n_exceed += int(np.sum(ladder[:, -1] > self.ceiling))
        self._n += values.shape[0]

    def report(self) -> ProbeReport:
        det = sum(float(w) for w in self._weights[: self.rungs[-1]])
        return ProbeReport(
            self.A.label,
            det,
            self._n_cauchy / self._n,
            self._n_exceed / self._n,
            self.ceiling,
            len(self.rungs),
            self._n,
        )
