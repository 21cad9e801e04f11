"""Experiment drivers: streamed, memory-bounded runs of the full
pipelines, shared between the command-line tool and the acceptance
suite.

Large ensembles are processed in fixed-size path blocks (per-path random
substreams make the result independent of blocking), and every consumer
is a streaming accumulator, so nothing close to the full
(paths × nodes × processes) tensor ever exists at once.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, Iterator, Sequence

import numpy as np

from .enlargement import (
    EnlargementSpec,
    SlopeReport,
    abs_drift_integral_paths,
    compensate_brownian,
    drift_compensator,
    integrate_under_enlargement,
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
    IncrementRegressionAccumulator,
    JeulinProbeAccumulator,
    Moments,
    QVAccumulator,
    columns_at,
    default_basis,
    info_minus_state_basis,
    non_integrator_demo,
    probe_log_divergent,
    probe_power_quarter,
)
from .paths import (
    JumpSampler,
    PathEnsemble,
    SeedSpec,
    simulate_brownian,
    simulate_compound_poisson,
)

BLOCK = 16384
DEFAULT_PAIRS = ((0.25, 0.5), (0.5, 0.75), (0.25, 0.9))
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


def stream_blocks(
    simulate: Callable[..., PathEnsemble],
    realize: Callable[[np.ndarray], np.ndarray],
    n_paths: int,
    block: int = BLOCK,
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Consecutive path blocks as ``(first_path, values, x)``.

    ``simulate(take, first_path_index=first, out=buf)`` produces paths
    first .. first+take−1 and ``realize(values)`` their information
    variable.  Every block after the first is simulated into the first
    block's value matrix, so one buffer serves the whole run: a consumer
    must not keep ``values`` or ``x`` past the block it was handed.
    """
    buf = None
    for first in range(0, n_paths, block):
        values = simulate(min(block, n_paths - first), first_path_index=first, out=buf).values
        if buf is None:
            buf = values
        yield first, values, realize(values)


def _terminal_value(values: np.ndarray) -> np.ndarray:
    return values[:, -1]


def _drive(blocks: Iterator[tuple[int, np.ndarray, np.ndarray]], consumers: Sequence[Consumer]) -> None:
    """Feeds every block to every consumer, in order."""
    for _, values, x in blocks:
        for update in consumers:
            update(values, x)


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


def _corr(m: Moments) -> float:
    """Pearson correlation of the two statistics of a cross ``Moments(2)``."""
    return float(m.m2[0, 1] / math.sqrt(m.m2[0, 0] * m.m2[1, 1]))


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
    with_negative_control: bool = False,
    with_symmetry: bool = False,
    with_drift_ladder: bool = False,
    qv_time: float | None = 0.9,
    block: int = BLOCK,
) -> dict:
    """Streamed compensation experiment for the enlargement by ∫ φ dW.

    Simulates the driving paths block by block, compensates, and feeds
    the martingale battery plus any requested diagnostics.  With
    ``phi = indicator(T)`` this is the pinned-bridge demonstration; other
    integrands exercise the general information drift.
    """
    observed = {float(u) for p in pairs for u in p}
    if qv_time is not None:
        observed.add(float(qv_time))
    if with_symmetry:
        observed.update((0.25, 0.5))
    grid = bridge_grid(n_base, phi.support_end, include=tuple(sorted(observed)))
    spec = EnlargementSpec(phi, grid)
    seedspec = SeedSpec(seed)
    times = grid.nodes
    pin = phi.support_end

    battery = IncrementRegressionAccumulator(pairs, default_basis())
    negative = (
        IncrementRegressionAccumulator(pairs, default_basis() + info_minus_state_basis())
        if with_negative_control
        else None
    )
    wanted = battery.times_needed
    corr_comp = Moments(2, cross=True)
    corr_raw = Moments(2, cross=True)
    corr_time = max(t for _, t in pairs)
    qv = QVAccumulator(grid.index_of(qv_time), qv_time) if qv_time is not None else None
    comp = _Compensation(spec)

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

    consumers: list[Consumer] = [comp.update, certify]
    slopes = []
    if with_symmetry:
        for s, t in ((0.25, 0.5), (0.0, 1.0), (0.0, 0.5)):
            tt = min(t, float(times[-1])) if t >= pin else t
            expected = (tt - s) / (pin - s) if t < pin else 1.0
            slopes.append(_SlopeAccumulator(grid, s, tt, expected))
        consumers += [acc.update for acc in slopes]
    ladder = _DriftLadder(times, pin, n_base) if with_drift_ladder else None
    if ladder is not None:
        consumers.append(ladder.update)

    blocks = stream_blocks(partial(simulate_brownian, grid, seed=seedspec), partial(realize_X, spec),
                           n_paths, block)
    _drive(blocks, consumers)

    report: dict = {
        "phi": phi.describe(),
        "n_paths": n_paths,
        "n_base_steps": n_base,
        "grid_nodes": grid.n_nodes,
        "seed": seed,
        "threshold": threshold,
        "pairs": [list(p) for p in pairs],
        "battery": battery.report(threshold, seedspec).to_dict(),
        "pinning_corr_compensated": _corr(corr_comp),
        "pinning_corr_raw": _corr(corr_raw),
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
    block: int = BLOCK,
) -> dict:
    """Pinned-bridge experiment with the full diagnostic set: battery on
    the compensated motion, failing battery on the raw motion, symmetry
    slopes, the |drift|-integral ladder, quadratic variation."""
    return run_enlargement_demo(
        indicator(1.0),
        n_paths,
        n_base,
        seed,
        pairs,
        threshold,
        with_negative_control=True,
        with_symmetry=True,
        with_drift_ladder=True,
        qv_time=0.9,
        block=block,
    )


def run_section5_integral(
    n_paths: int,
    n_base: int,
    seed: int,
    H: DeterministicIntegrand,
    pairs: Sequence[tuple[float, float]] = ((0.25, 0.5), (0.5, 0.75)),
    threshold: float = DEFAULT_THRESHOLD,
    block: int = BLOCK,
) -> dict:
    """Integrates H against the pinned-bridge decomposition and runs the
    battery on the martingale part of H•W; also reports the worst
    additivity gap across blocks."""
    phi = indicator(1.0)
    grid = bridge_grid(n_base, include=tuple(sorted({float(u) for p in pairs for u in p})))
    spec = EnlargementSpec(phi, grid)
    seedspec = SeedSpec(seed)
    times = grid.nodes
    battery = IncrementRegressionAccumulator(pairs, default_basis())
    wanted = battery.times_needed
    worst_gap = 0.0

    def integrate(values: np.ndarray, x: np.ndarray) -> None:
        nonlocal worst_gap
        dec = compensate_brownian(spec, PathEnsemble(grid, values, "brownian", seedspec), x)
        integ = integrate_under_enlargement(H, dec)
        worst_gap = max(worst_gap, integ.additivity_gap())
        battery.update(
            columns_at(integ.martingale_part, times, wanted),
            columns_at(values, times, wanted),
            x,
        )

    blocks = stream_blocks(partial(simulate_brownian, grid, seed=seedspec), partial(realize_X, spec),
                           n_paths, block)
    _drive(blocks, [integrate])
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
    block: int = BLOCK,
) -> dict:
    """Jump-process analogue of the pinned bridge: compensates a compound
    Poisson path for knowledge of its terminal value and certifies the
    martingale property against {1, Z_s, Z_T}."""
    observed = {float(u) for p in pairs for u in p} | {0.25, 0.5}
    grid = bridge_grid(n_base, include=tuple(sorted(observed)))
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
    mean_cols = [grid.index_of(s) for s in mean_times]
    increments = Moments(len(mean_times))
    label = f"compound_poisson(rate={rate},jumps={sampler.name})"

    def certify(z: np.ndarray, zt: np.ndarray) -> None:
        fv = levy_bridge_compensator(PathEnsemble(grid, z, label, seedspec), zt, pin, at=at)
        z_cols = columns_at(z, times, wanted)
        battery.update({u: z_cols[u] - fv[:, j] for j, u in enumerate(wanted)}, z_cols, zt)
        increments.update(zt - z[:, mean_cols].T)

    simulate = partial(simulate_compound_poisson, grid, rate, sampler, seed=seedspec)
    _drive(stream_blocks(simulate, _terminal_value, n_paths, block), [certify])
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


def run_lookahead_demo(
    epsilon: float,
    levels: Sequence[int],
    n_paths: int,
    seed: int,
    delta: float = 0.25,
) -> dict:
    """Elementary look-ahead integrands on dyadic grids: sup-norm collapse
    with integral mean pinned at 1."""
    n_max = max(levels)
    grid = build_grid(1.0, 2**n_max)
    ens = simulate_brownian(grid, n_paths, SeedSpec(seed))
    rep = non_integrator_demo(ens.values, grid.nodes, epsilon, levels, delta)
    return {
        "epsilon": epsilon,
        "delta": delta,
        "n_paths": n_paths,
        "seed": seed,
        "levels": [
            {
                "level": l.level,
                "sup_exceed_prob": l.sup_exceed_prob,
                "sup_tail_bound": l.sup_tail_bound,
                "integral_mean": l.integral_mean,
                "integral_se": l.integral_se,
                "integral_second_moment": l.integral_second_moment,
            }
            for l in rep.levels
        ],
    }


# Probe calibration (frozen from a pre-run of the deterministic oracle
# plus the empirical per-path distributions): at rung depth 40 the
# divergent integrand's deterministic mass is 6.0, putting ≥99% of paths
# above the ceiling, while the convergent integrand (mass 4/3) stays
# Cauchy on every path.
PROBE_DEPTH = 40
PROBE_CEILING = 2.5
PROBE_BASE_STEPS = 512


def run_jeulin_probe(
    case: str,
    n_paths: int,
    seed: int,
    block: int = BLOCK,
) -> dict:
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
    seedspec = SeedSpec(seed)
    blocks = stream_blocks(partial(simulate_brownian, grid, seed=seedspec), _terminal_value, n_paths, block)
    _drive(blocks, [acc.update])
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


def log_density_convergence(
    n_paths: int,
    seed: int,
    base_steps: Sequence[int] = (128, 256, 512),
    x: float = 0.3,
    t: float = 0.5,
) -> dict:
    """RMS of the log-density identity residual across grid refinements;
    halving the step should shrink the RMS by about 1/√2."""
    phi = indicator(1.0)
    rms = []
    for n in base_steps:
        grid = build_grid(t, n)
        ens = simulate_brownian(grid, n_paths, SeedSpec(seed))
        res = log_density_identity_residual(phi, grid.nodes, ens.values, x, t)
        rms.append(float(np.sqrt(np.mean(res**2))))
    ratios = [rms[i + 1] / rms[i] for i in range(len(rms) - 1)]
    return {
        "base_steps": list(base_steps),
        "n_paths": n_paths,
        "seed": seed,
        "x": x,
        "t": t,
        "rms": rms,
        "ratios": ratios,
        "target_ratio": 1.0 / math.sqrt(2.0),
    }
