"""Experiment drivers: streamed, memory-bounded runs of the full
pipelines, shared between the command-line tool and the acceptance
suite.

Large ensembles are processed in path blocks of bounded size, rows and
values alike (per-path random substreams make the result independent of
blocking), and every consumer is a streaming accumulator, so nothing
close to the full (paths × nodes × processes) tensor ever exists at once.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .enlargement import (
    EnlargementSpec,
    SlopeReport,
    abs_drift_integral_paths,
    check_stieltjes_guard,
    drift_compensator,
    levy_bridge_compensator,
    realize_X,
)
from .grid import TimeGrid, build_grid
from .integrands import (
    DeterministicIntegrand,
    indicator,
    log_density_identity_residual,
)
from .mgtests import (
    DEFAULT_THRESHOLD,
    PROBE_CAUCHY_TOL,
    BasisFunction,
    CharacterizationAccumulator,
    IncrementRegressionAccumulator,
    JeulinProbeAccumulator,
    LookaheadPredictabilityError,
    Moments,
    QVAccumulator,
    columns_at,
    correlation,
    default_basis,
    info_minus_state_basis,
    probe_log_divergent,
    probe_power_quarter,
)
from .paths import (
    JumpSampler,
    PathEnsemble,
    SeedSpec,
    row_slices,
    simulate_brownian,
    simulate_compound_poisson,
)

# A block holds at most BLOCK paths and BLOCK_VALUES path values: those of
# a bridge block at 1024 base steps (1035 nodes).
BLOCK = 16384
BLOCK_VALUES = BLOCK * 1035
DEFAULT_PAIRS = ((0.25, 0.5), (0.5, 0.75), (0.25, 0.9))
QV_TIME = 0.9
ABS_DRIFT_CONSTANT = 2.0 * math.sqrt(2.0 / math.pi)  # limit of E∫|drift|, pinned unit bridge

Consumer = Callable[[np.ndarray, np.ndarray], None]


def bridge_grid(
    n_base: int,
    horizon: float = 1.0,
    depth: int | None = None,
    include: tuple[float, ...] = (),
) -> TimeGrid:
    """Grid for enlargements whose drift blows up at the horizon: the
    steps halve toward it."""
    return build_grid(
        horizon, n_base, singular_point=horizon, refinement_ratio=0.5, depth=depth,
        include=include,
    )


def block_rows(n_nodes: int) -> int:
    """Paths per block on ``n_nodes`` nodes: ``BLOCK``, or fewer so that a
    block holds at most ``BLOCK_VALUES`` path values (both read at call
    time).  Raises ValueError when one path alone exceeds that budget; a
    driver calls it with a lower bound on its node count before it builds
    the grid."""
    if n_nodes > BLOCK_VALUES:
        raise ValueError(f"a path of {n_nodes} nodes exceeds a block of {BLOCK_VALUES} values")
    return min(BLOCK, BLOCK_VALUES // n_nodes)


def stream_blocks(
    grid: TimeGrid,
    simulate: Callable[..., PathEnsemble],
    realize: Callable[[np.ndarray], np.ndarray],
    n_paths: int,
    consumers: Sequence[Consumer],
) -> None:
    """Feeds ``n_paths`` paths on ``grid`` to every consumer, in order, one
    block of :func:`block_rows` paths at a time.

    ``simulate(grid, n_paths=take, first_path_index=first, out=buf)``
    produces paths first .. first+take−1 and ``realize(values)`` their
    information variable.  Every block after the first is simulated into
    the first block's value matrix, so one buffer serves the whole run: a
    consumer must not keep ``values`` or ``x`` past the block it was
    handed.
    """
    rows, buf = block_rows(grid.n_nodes), None
    for first in range(0, n_paths, rows):
        values = simulate(grid, n_paths=min(rows, n_paths - first), first_path_index=first, out=buf).values
        if buf is None:
            buf = values
        x = realize(values)
        for update in consumers:
            update(values, x)


def _terminal_value(values: np.ndarray) -> np.ndarray:
    return values[:, -1]


class _Compensation:
    """The fused hot path: the drift compensator A of the current block,
    written into one buffer that every block reuses.  W̃ = W − A is formed
    only at the nodes a consumer reads."""

    def __init__(self, spec: EnlargementSpec):
        self.spec = spec
        self._buf: np.ndarray | None = None
        self.fv: np.ndarray | None = None

    def update(self, values: np.ndarray, x: np.ndarray) -> None:
        if self._buf is None:
            self._buf = np.empty_like(values)
        self.fv = drift_compensator(self.spec, values, x, out=self._buf[: values.shape[0]])

    def martingale_at(self, values: np.ndarray, cols: dict[float, np.ndarray]) -> dict[float, np.ndarray]:
        """W̃ at the nodes of ``cols`` (the columns of ``values`` there)."""
        fv = columns_at(self.fv, self.spec.grid.nodes, list(cols))
        return {u: w - fv[u] for u, w in cols.items()}


class _SlopeAccumulator:
    """Least-squares slope through the origin of W_t − W_s on X − W_s."""

    def __init__(self, grid: TimeGrid, s: float, t: float, expected: float):
        self.s, self.t, self.expected = float(s), float(t), float(expected)
        self._ks, self._kt = grid.index_of(s), grid.index_of(t)
        self._moments = Moments(2, cross=True)

    def update(self, values: np.ndarray, x: np.ndarray) -> None:
        ws = values[:, self._ks]
        self._moments.update(np.stack((x - ws, values[:, self._kt] - ws)))

    def report(self) -> dict:
        r = SlopeReport.through_origin(self._moments, self.s, self.t, self.expected)
        return {**vars(r), "z": r.z}


class _DriftLadder:
    """Mean per-path ∫|drift| up to each rung of the geometric refinement,
    against the pinned-bridge constant."""

    def __init__(self, times: np.ndarray, pin: float, n_base: int):
        # rung truncations at the geometric refinement nodes: eps_k = h * ratio^k
        h = pin / n_base
        self.times, self.pin = times, pin
        self.indices = np.nonzero(times >= pin - h - 1e-12)[0]
        self._moments = Moments(self.indices.size)

    def update(self, values: np.ndarray, x: np.ndarray) -> None:
        vals = abs_drift_integral_paths(values, self.times, x, self.indices, self.pin)
        self._moments.update(vals.T)

    def report(self) -> dict:
        rungs = []
        truncations = (self.pin - self.times[self.indices]).tolist()
        for eps, m, s in zip(truncations, self._moments.mean.tolist(), self._moments.se().tolist()):
            bound = ABS_DRIFT_CONSTANT * math.sqrt(eps)
            rungs.append({
                "eps": eps,
                "mean": m,
                "se": s,
                "truncation_bound": bound,
                "target": ABS_DRIFT_CONSTANT,
                "within": bool(abs(m - ABS_DRIFT_CONSTANT) <= 4.0 * s + bound),
            })
        return {"constant": ABS_DRIFT_CONSTANT, "rungs": rungs}


def run_enlargement_demo(
    phi: DeterministicIntegrand,
    n_paths: int,
    n_base: int,
    seed: int,
    pairs: Sequence[tuple[float, float]] = DEFAULT_PAIRS,
    threshold: float = DEFAULT_THRESHOLD,
    diagnostics: bool = False,
) -> dict:
    """Streamed compensation experiment for the enlargement by ∫ φ dW.

    Simulates the driving paths block by block, compensates, and feeds
    the martingale battery; with ``diagnostics`` also the failing battery
    on the raw motion, the quadratic variation at ``QV_TIME``, the
    symmetry slopes and the |drift|-integral ladder.  With
    ``phi = indicator(T)`` this is the pinned-bridge demonstration; other
    integrands exercise the general information drift.
    """
    block_rows(n_base + 1)
    observed = {float(u) for p in pairs for u in p}
    if diagnostics:
        observed.update((QV_TIME, 0.25, 0.5))
    grid = bridge_grid(n_base, phi.support_end, include=tuple(sorted(observed)))
    spec = EnlargementSpec(phi, grid)
    seedspec = SeedSpec(seed)
    times = grid.nodes
    pin = phi.support_end

    battery = IncrementRegressionAccumulator(pairs, default_basis())
    wanted = battery.times_needed
    corr_comp = Moments(2, cross=True)
    corr_raw = Moments(2, cross=True)
    corr_time = max(t for _, t in pairs)
    comp = _Compensation(spec)
    negative = qv = ladder = None
    slopes = []
    if diagnostics:
        negative = IncrementRegressionAccumulator(pairs, default_basis() + info_minus_state_basis())
        qv = QVAccumulator(grid.index_of(QV_TIME), QV_TIME)
        for s, t in ((0.25, 0.5), (0.0, 1.0), (0.0, 0.5)):
            tt = min(t, float(times[-1])) if t >= pin else t
            expected = (tt - s) / (pin - s) if t < pin else 1.0
            slopes.append(_SlopeAccumulator(grid, s, tt, expected))
        ladder = _DriftLadder(times, pin, n_base)

    def certify(values: np.ndarray, x: np.ndarray) -> None:
        w_cols = columns_at(values, times, wanted)
        wt_cols = comp.martingale_at(values, w_cols)
        battery.update(wt_cols, w_cols, x)
        if negative is not None:
            negative.update(w_cols, w_cols, x)
        corr_comp.update(np.stack((wt_cols[corr_time], x)))
        corr_raw.update(np.stack((w_cols[corr_time], x)))
        if qv is not None:
            qv.update(values, comp.fv)

    consumers: list[Consumer] = [comp.update, certify] + [acc.update for acc in slopes]
    if ladder is not None:
        consumers.append(ladder.update)

    stream_blocks(grid, partial(simulate_brownian, seed=seedspec), partial(realize_X, spec), n_paths,
                  consumers)

    report: dict = {
        "phi": phi.describe(),
        "n_paths": n_paths,
        "n_base_steps": n_base,
        "grid_nodes": grid.n_nodes,
        # Var X on the grid, Σ φ(t_i)² Δt_i, against ∫₀^∞ φ²
        "x_variance": {"grid": float(np.sum(np.asarray(phi(times[:-1])) ** 2 * grid.steps)),
                       "continuous": phi.l2_tail(0.0)},
        "seed": seed,
        "threshold": threshold,
        "pairs": [list(p) for p in pairs],
        "battery": battery.report(threshold, seedspec).to_dict(),
        "pinning_corr_compensated": correlation(corr_comp),
        "pinning_corr_raw": correlation(corr_raw),
        "pinning_time": corr_time,
    }
    if negative is not None:
        report["negative_control"] = negative.report(threshold, seedspec).to_dict()
    if qv is not None:
        qr = qv.report(expected=spec.compensated_qv(qv.k), rel_tol=0.02)
        report["quadratic_variation"] = {
            "t": qr.t, "expected": qr.expected, "mean": qr.mean,
            "se": qr.se, "rel_error": qr.rel_error, "passed": qr.passed,
        }
    if slopes:
        report["symmetry"] = [acc.report() for acc in slopes]
    if ladder is not None:
        report["abs_drift_ladder"] = ladder.report()
    return report


def run_bridge_demo(
    n_paths: int,
    n_base: int,
    seed: int,
    pairs: Sequence[tuple[float, float]] = DEFAULT_PAIRS,
    threshold: float = DEFAULT_THRESHOLD,
) -> dict:
    """Pinned-bridge experiment with the full diagnostic set: battery on
    the compensated motion, failing battery on the raw motion, symmetry
    slopes, the |drift|-integral ladder, quadratic variation."""
    return run_enlargement_demo(indicator(1.0), n_paths, n_base, seed, pairs, threshold, diagnostics=True)


def run_section5_integral(
    n_paths: int,
    n_base: int,
    seed: int,
    H: DeterministicIntegrand,
    pairs: Sequence[tuple[float, float]] = ((0.25, 0.5), (0.5, 0.75)),
    threshold: float = DEFAULT_THRESHOLD,
) -> dict:
    """Integrates H against the pinned-bridge decomposition W = W̃ + A and
    runs the battery on H•W̃.  Per row slice, each of H•W, H•A and H•W̃ at
    the battery nodes is one product of its own increments with the
    left-point weights h_i·1[i < k]; the report's additivity gap is the
    worst |H•W − (H•W̃ + H•A)| there."""
    block_rows(n_base + 1)
    phi = indicator(1.0)
    grid = bridge_grid(n_base, include=tuple(sorted({float(u) for p in pairs for u in p})))
    spec = EnlargementSpec(phi, grid)
    seedspec = SeedSpec(seed)
    times = grid.nodes
    battery = IncrementRegressionAccumulator(pairs, default_basis())
    wanted = battery.times_needed
    h = np.asarray(H(times[:-1]), dtype=float)
    at = np.array([grid.index_of(u) for u in wanted])
    left = np.where(np.arange(h.size)[:, None] < at, h[:, None], 0.0)
    abs_h = np.abs(h)
    comp = _Compensation(spec)
    worst_gap = 0.0

    def integrate(values: np.ndarray, x: np.ndarray) -> None:
        nonlocal worst_gap
        mart = np.empty((len(wanted), values.shape[0]))
        for rows in row_slices(*values.shape):
            dw = np.diff(values[rows], axis=1)
            da = np.diff(comp.fv[rows], axis=1)
            check_stieltjes_guard(np.abs(da) @ abs_h)
            hw, ha = dw @ left, da @ left
            dw -= da
            hwt = dw @ left
            mart[:, rows] = hwt.T
            worst_gap = max(worst_gap, float(np.max(np.abs(hw - (hwt + ha)), initial=0.0)))
        battery.update(dict(zip(wanted, mart)), columns_at(values, times, wanted), x)

    stream_blocks(grid, partial(simulate_brownian, seed=seedspec), partial(realize_X, spec), n_paths,
                  [comp.update, integrate])
    return {
        "H": H.describe(),
        "n_paths": n_paths,
        "n_base_steps": n_base,
        "seed": seed,
        "threshold": threshold,
        "additivity_gap": worst_gap,
        "battery": battery.report(threshold, seedspec).to_dict(),
    }


def run_levy_demo(
    rate: float,
    sampler: JumpSampler,
    n_paths: int,
    n_base: int,
    seed: int,
    pairs: Sequence[tuple[float, float]] = ((0.25, 0.5), (0.5, 0.75)),
    threshold: float = DEFAULT_THRESHOLD,
) -> dict:
    """Jump-process analogue of the pinned bridge: compensates a compound
    Poisson path for knowledge of its terminal value and certifies the
    martingale property against {1, Z_s, Z_T}."""
    block_rows(n_base + 1)
    observed = {float(u) for p in pairs for u in p} | {0.25, 0.5}
    grid = bridge_grid(n_base, include=tuple(sorted(observed)))
    if rate * grid.horizon > grid.n_nodes:
        # past this a block's jump arrays would outgrow its value matrix
        raise ValueError(f"jump rate {rate} expects more jumps per path than the grid's "
                         f"{grid.n_nodes} nodes")
    seedspec = SeedSpec(seed)
    times = grid.nodes
    pin = float(times[-1])  # discrete pinning at the last node
    basis = [
        BasisFunction("1", lambda w, x: np.ones_like(w)),
        BasisFunction("Z_s", lambda w, x: w),
        BasisFunction("Z_T", lambda w, x: x),
    ]
    battery = IncrementRegressionAccumulator(pairs, basis)
    wanted = battery.times_needed
    at = np.array([grid.index_of(u) for u in wanted])
    mean_times = (0.25, 0.5)
    read_times = sorted(set(wanted) | set(mean_times))
    increments = Moments(len(mean_times))
    label = f"compound_poisson(rate={rate},jumps={sampler.name})"

    def certify(z: np.ndarray, zt: np.ndarray) -> None:
        fv = levy_bridge_compensator(PathEnsemble(grid, z, label, seedspec), zt, pin, at=at)
        z_cols = columns_at(z, times, read_times)
        battery.update({u: z_cols[u] - fv[:, j] for j, u in enumerate(wanted)}, z_cols, zt)
        increments.update(zt - np.stack([z_cols[s] for s in mean_times]))

    simulate = partial(simulate_compound_poisson, rate=rate, jump_sampler=sampler, seed=seedspec)
    stream_blocks(grid, simulate, _terminal_value, n_paths, [certify])
    terminal_mean = {}
    for s, mean, se in zip(mean_times, increments.mean.tolist(), increments.se().tolist()):
        expected = rate * sampler.mean * (pin - s)
        terminal_mean[s] = {
            "mean": mean, "se": se, "expected": expected,
            "z": (mean - expected) / se if se > 0 else 0.0,
        }
    return {
        "rate": rate,
        "jumps": sampler.name,
        "n_paths": n_paths,
        "n_base_steps": n_base,
        "seed": seed,
        "threshold": threshold,
        "pin_time": pin,
        "battery": battery.report(threshold, seedspec).to_dict(),
        "terminal_increment_mean": terminal_mean,
    }


class _LookaheadLevel:
    """Look-ahead integrand Hⁿ: on each dyadic interval of length 2⁻ⁿ the
    path's increment over it, every ``stride``-th column of the finest grid.
    Keeps the exact count of paths with sup |Hⁿ| > δ and the moments of
    (Hⁿ•W)₁ = Σ(ΔW)² and of its square."""

    def __init__(self, n: int, stride: int, delta: float):
        self.n, self.stride, self.delta = n, stride, delta
        self._exceed = 0
        self._integral = Moments(2)

    def update(self, values: np.ndarray, x: np.ndarray) -> None:
        for rows in row_slices(values.shape[0], 2**self.n + 1):
            d = np.diff(values[rows, :: self.stride], axis=1)
            self._exceed += int(np.count_nonzero(np.max(np.abs(d), axis=1) > self.delta))
            integral = np.sum(d * d, axis=1)
            self._integral.update(np.stack((integral, integral * integral)))

    def report(self) -> dict:
        n, m = self.n, self._integral
        # union bound over the 2^n intervals of the Gaussian tail of |ΔW| > δ
        bound = (2.0 * 2**n / (2.0 ** (n / 2.0) * self.delta * math.sqrt(2.0 * math.pi))
                 * math.exp(-0.5 * 2.0**n * self.delta**2))
        return {
            "level": n,
            "sup_exceed_prob": self._exceed / m.n,
            "sup_tail_bound": bound,
            "integral_mean": float(m.mean[0]),
            "integral_se": float(m.se()[0]),
            "integral_second_moment": float(m.mean[1]),
        }


def run_lookahead_demo(
    epsilon: float,
    levels: Sequence[int],
    n_paths: int,
    seed: int,
    delta: float = 0.25,
) -> dict:
    """Elementary look-ahead integrands on dyadic grids: sup-norm collapse
    with integral mean pinned at 1.  Before any path is drawn, each level
    must be predictable under ``epsilon`` and one path must fit in a block."""
    for n in levels:
        if 2.0**-n > epsilon:
            raise LookaheadPredictabilityError(
                f"level {n}: interval 2^-{n} exceeds the look-ahead margin {epsilon}"
            )
    n_max = max(levels)
    block_rows(2**n_max + 1)
    grid = build_grid(1.0, 2**n_max)
    accs = [_LookaheadLevel(n, 2 ** (n_max - n), delta) for n in levels]
    stream_blocks(grid, partial(simulate_brownian, seed=SeedSpec(seed)), _terminal_value, n_paths,
                  [acc.update for acc in accs])
    return {
        "epsilon": epsilon,
        "delta": delta,
        "n_paths": n_paths,
        "seed": seed,
        "levels": [acc.report() for acc in accs],
    }


def run_mg_test(drift: float, n_paths: int, n_base: int, seed: int, threshold: float) -> dict:
    """The own-filtration battery and the Brownian characterization suite
    on W_t + drift·t over a uniform grid on [0, 1].  The drift is added to
    each block in place before anything reads it."""
    block_rows(n_base + 1)
    grid = build_grid(1.0, n_base)
    times = grid.nodes
    seedspec = SeedSpec(seed)
    battery = IncrementRegressionAccumulator(((0.25, 0.5), (0.5, 0.75)), default_basis()[:2])  # {1, W_s}
    wanted = battery.times_needed
    suite = CharacterizationAccumulator(times)

    def certify(values: np.ndarray, x: np.ndarray) -> None:
        if drift:
            values += drift * times
        cols = columns_at(values, times, wanted)
        battery.update(cols, cols, x)
        suite.update(values)

    stream_blocks(grid, partial(simulate_brownian, seed=seedspec), lambda v: np.zeros(len(v)), n_paths,
                  [certify])
    return {
        "seed": seed,
        "battery": battery.report(threshold, seedspec).to_dict(),
        "characterization": suite.report(threshold),
    }


# Probe calibration (frozen from a pre-run of the deterministic oracle
# plus the empirical per-path distributions): at rung depth 40 the
# divergent integrand's deterministic mass is 6.0, putting ≥99% of paths
# above the ceiling, while the convergent integrand (mass 4/3) stays
# Cauchy on every path.
PROBE_DEPTH = 40
PROBE_CEILING = 2.5
PROBE_BASE_STEPS = 512


def run_jeulin_probe(case: str, n_paths: int, seed: int) -> dict:
    """Per-path truncated integrals ∫ R_s A_s ds across a geometric
    truncation ladder, for a convergent and a (slowly) divergent A."""
    probes = {"finite": probe_power_quarter(1.0), "divergent": probe_log_divergent(0.75, 1.0)}
    if case not in probes:
        raise ValueError(f"unknown probe case {case!r}; pick from {sorted(probes)}")
    A = probes[case]
    grid = bridge_grid(PROBE_BASE_STEPS, depth=PROBE_DEPTH)
    times = grid.nodes
    rung_idx = np.arange(PROBE_BASE_STEPS - 1, grid.n_nodes)
    acc = JeulinProbeAccumulator(A, times, rung_idx, PROBE_CEILING)
    stream_blocks(grid, partial(simulate_brownian, seed=SeedSpec(seed)), _terminal_value, n_paths,
                  [acc.update])
    rep = acc.report()
    return {
        "case": case,
        "integrand": rep.integrand,
        "declared_divergent": A.diverges,
        "n_paths": rep.n_paths,
        "seed": seed,
        "depth": PROBE_DEPTH,
        "ceiling": PROBE_CEILING,
        "cauchy_tol": PROBE_CAUCHY_TOL,
        "deterministic_integral_deepest": rep.deterministic_integral_deepest,
        "cauchy_fraction": rep.cauchy_fraction,
        "exceed_fraction": rep.exceed_fraction,
    }


# Acceptance criterion 10: the log-density identity at x on [0, t], on
# four successive halvings of the step.
DENSITY_BASE_STEPS = (128, 256, 512, 1024)
DENSITY_X, DENSITY_T = 0.3, 0.5


def log_density_convergence(n_paths: int, seed: int) -> dict:
    """RMS of the log-density identity residual across grid refinements;
    halving the step should shrink the RMS by about 1/√2."""
    phi = indicator(1.0)
    rms = []
    for n in DENSITY_BASE_STEPS:
        grid = build_grid(DENSITY_T, n)
        ens = simulate_brownian(grid, n_paths, SeedSpec(seed))
        res = log_density_identity_residual(phi, grid.nodes, ens.values, DENSITY_X, DENSITY_T)
        rms.append(float(np.sqrt(np.mean(res**2))))
    ratios = [rms[i + 1] / rms[i] for i in range(len(rms) - 1)]
    return {
        "base_steps": list(DENSITY_BASE_STEPS),
        "n_paths": n_paths,
        "seed": seed,
        "x": DENSITY_X,
        "t": DENSITY_T,
        "rms": rms,
        "ratios": ratios,
        "target_ratio": 1.0 / math.sqrt(2.0),
    }
