"""Deterministic, parallel-safe path simulation on time grids.

Every path owns an independent counter-based random substream keyed by
(base_seed, path_index), so the simulated values are bit-identical no
matter how paths are chunked across workers.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .grid import TimeGrid

# Paths are filled in fixed-size chunks; the chunk size is part of no
# contract (values are per-path) but keeps memory bounded.
_CHUNK = 16384

# Row slices of a path matrix hold about this many bytes: small enough
# that a slice's scratch is negligible next to a path block, large enough
# that numpy's per-call overhead is too.
SLICE_BYTES = 1 << 21


def row_slices(n_rows: int, n_cols: int) -> Iterator[slice]:
    """Consecutive row slices covering a (n_rows, n_cols) float matrix,
    each about ``SLICE_BYTES`` large."""
    step = max(1, SLICE_BYTES // (8 * max(n_cols, 1)))
    for lo in range(0, n_rows, step):
        yield slice(lo, min(lo + step, n_rows))


def _value_matrix(n_paths: int, n_nodes: int, out: np.ndarray | None) -> np.ndarray:
    """The first ``n_paths`` rows of ``out``, or a new matrix without it."""
    if out is None:
        return np.empty((n_paths, n_nodes), dtype=float)
    if out.dtype != float or out.ndim != 2 or out.shape[0] < n_paths or out.shape[1] != n_nodes:
        raise ValueError(f"output buffer {out.shape} cannot hold {n_paths} paths x {n_nodes} nodes")
    return out[:n_paths]


@dataclass(frozen=True)
class SeedSpec:
    """Base seed plus the rule deriving one substream per path index."""

    base_seed: int
    derivation: str = "philox:key=(base_seed<<64)|path_index"

    def __post_init__(self):
        if not (0 <= self.base_seed < 2**64):
            raise ValueError("base seed must fit in 64 bits")

    def generator_for_path(self, path_index: int) -> np.random.Generator:
        """Fresh generator for one path; defines the substream contract."""
        key = (int(self.base_seed) << 64) | int(path_index)
        return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class PathEnsemble:
    """Simulated path values, one row per path, one column per grid node."""

    grid: TimeGrid
    values: np.ndarray
    process_label: str
    seed_record: SeedSpec

    def __post_init__(self):
        if self.values.shape[1] != self.grid.n_nodes:
            raise ValueError("value matrix does not match the grid")

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]

    @property
    def times(self) -> np.ndarray:
        return self.grid.nodes

    def at_time(self, t: float) -> np.ndarray:
        return self.values[:, self.grid.index_of(t)]

    def to_csv(self, path, path_indices=None) -> None:
        """Long-format export: header ``path,t,value``, full precision."""
        idx = range(self.n_paths) if path_indices is None else path_indices
        with open(path, "w", encoding="utf-8") as f:
            f.write("path,t,value\n")
            for i in idx:
                for t, v in zip(self.grid.nodes, self.values[i]):
                    f.write(f"{i},{float(t)!r},{float(v)!r}\n")


class _Rekeyed:
    """Fast per-path generator reuse.

    Mutating the Philox key in place reproduces exactly the stream a
    freshly constructed Philox(key=(seed<<64)|i) generator would emit
    (asserted in the test suite), at a fraction of the construction cost.
    """

    def __init__(self, base_seed: int):
        self._bg = np.random.Philox(key=0)
        self.gen = np.random.Generator(self._bg)
        self._state = self._bg.state
        self._base = int(base_seed)

    def rekey(self, path_index: int) -> np.random.Generator:
        st = self._state
        st["state"]["key"][0] = int(path_index)
        st["state"]["key"][1] = self._base
        st["state"]["counter"][:] = 0
        st["buffer_pos"] = 4
        st["has_uint32"] = 0
        st["uinteger"] = 0
        self._bg.state = st
        return self.gen


def _fill_chunks(n_paths: int, fill: Callable[[int, int], None], n_workers: int | None) -> None:
    spans = [(lo, min(lo + _CHUNK, n_paths)) for lo in range(0, n_paths, _CHUNK)]
    if n_workers is None or n_workers <= 1 or len(spans) == 1:
        for lo, hi in spans:
            fill(lo, hi)
        return
    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        list(pool.map(lambda span: fill(*span), spans))


def simulate_brownian(
    grid: TimeGrid,
    n_paths: int,
    seed: SeedSpec,
    n_workers: int | None = None,
    first_path_index: int = 0,
    out: np.ndarray | None = None,
) -> PathEnsemble:
    """Standard Brownian paths: independent centered Gaussian increments
    with variance equal to each grid step, value 0 at the first node.

    ``first_path_index`` shifts the substream indices so a large ensemble
    can be produced block by block, bit-identical to one-shot simulation;
    ``out`` lets a block loop refill one value matrix instead of
    allocating a new one per block.
    """
    if n_paths < 1:
        raise ValueError("need at least one path")
    sqrt_steps = np.sqrt(grid.steps)
    n_incr = sqrt_steps.size
    values = _value_matrix(n_paths, grid.n_nodes, out)
    values[:, 0] = 0.0

    def fill(lo: int, hi: int) -> None:
        rk = _Rekeyed(seed.base_seed)
        for i in range(lo, hi):
            z = rk.rekey(first_path_index + i).standard_normal(n_incr)
            np.cumsum(z * sqrt_steps, out=values[i, 1:])

    _fill_chunks(n_paths, fill, n_workers)
    return PathEnsemble(grid, values, "brownian", seed)


# ---------------------------------------------------------------------------
# compound Poisson


@dataclass(frozen=True)
class JumpSampler:
    """Named jump-size distribution with finite mean."""

    name: str
    draw: Callable[[np.random.Generator, int], np.ndarray] = field(compare=False)
    mean: float = 0.0
    second_moment: float = 0.0


def constant_jumps(c: float) -> JumpSampler:
    return JumpSampler(f"const:{c}", lambda rng, k: np.full(k, float(c)), float(c), float(c) ** 2)


def rademacher_jumps() -> JumpSampler:
    return JumpSampler("pm1", lambda rng, k: rng.choice((-1.0, 1.0), size=k), 0.0, 1.0)


def normal_jumps(mu: float = 0.0, sigma: float = 1.0) -> JumpSampler:
    return JumpSampler(
        f"normal:mu={mu},sigma={sigma}",
        lambda rng, k: mu + sigma * rng.standard_normal(k),
        float(mu),
        float(mu) ** 2 + float(sigma) ** 2,
    )


def parse_jump_sampler(spec: str) -> JumpSampler:
    """Parse ``pm1``, ``const:1.0`` or ``normal:mu=0,sigma=1``."""
    head, _, rest = spec.partition(":")
    if head == "pm1":
        return rademacher_jumps()
    if head == "const":
        return constant_jumps(float(rest))
    if head == "normal":
        kv = dict(p.split("=") for p in rest.split(",") if p)
        return normal_jumps(float(kv.get("mu", 0.0)), float(kv.get("sigma", 1.0)))
    raise ValueError(f"unknown jump sampler {spec!r}")


def simulate_compound_poisson(
    grid: TimeGrid,
    rate: float,
    jump_sampler: JumpSampler,
    n_paths: int,
    seed: SeedSpec,
    n_workers: int | None = None,
    first_path_index: int = 0,
    out: np.ndarray | None = None,
) -> PathEnsemble:
    """Compound Poisson paths recorded at grid nodes.

    Jumps are placed exactly (uniform arrival times given the count) and
    the piecewise-constant path is read off at the nodes.  ``first_path_index``
    and ``out`` serve block loops as in :func:`simulate_brownian`.
    """
    if rate < 0:
        raise ValueError("jump rate must be nonnegative")
    if n_paths < 1:
        raise ValueError("need at least one path")
    horizon = grid.horizon
    nodes = grid.nodes
    values = _value_matrix(n_paths, grid.n_nodes, out)

    def fill(lo: int, hi: int) -> None:
        rk = _Rekeyed(seed.base_seed)
        for i in range(lo, hi):
            rng = rk.rekey(first_path_index + i)
            k = rng.poisson(rate * horizon)
            if k == 0:
                values[i] = 0.0
                continue
            times = np.sort(rng.uniform(0.0, horizon, k))
            sizes = jump_sampler.draw(rng, k)
            cum = np.concatenate([[0.0], np.cumsum(sizes)])
            values[i] = cum[np.searchsorted(times, nodes, side="right")]

    _fill_chunks(n_paths, fill, n_workers)
    return PathEnsemble(grid, values, f"compound_poisson(rate={rate},jumps={jump_sampler.name})", seed)
