"""Deterministic, parallel-safe path simulation on time grids.

Every path owns an independent counter-based random substream keyed by
(base_seed, path_index), so the simulated values are bit-identical no
matter how the paths are split into blocks or the rows of a block
across cores.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable, Iterator, TypeVar

import numpy as np

from .grid import TimeGrid

_T = TypeVar("_T")

# Row slices of a path matrix hold about this many bytes: small enough
# that a slice's scratch is negligible next to a path block, large enough
# that numpy's per-call overhead is too.
SLICE_BYTES = 1 << 21

# split_rows runs inline when a range would hold fewer rows than this,
# so small blocks pay no thread hand-off.
MIN_SPLIT_ROWS = 1024

_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()
_range = threading.local()  # .parts: ranges running at once, set while one runs


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _executor(workers: int) -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(workers, thread_name_prefix="enlargekit-rows")
        return _pool


def _forget_pool() -> None:
    """In a forked child: the parent's pool threads do not exist there,
    and work submitted to its pool would never run."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _run_range(fn: Callable[[int, int], _T], lo: int, hi: int, parts: int) -> _T:
    _range.parts = parts
    try:
        return fn(lo, hi)
    finally:
        _range.parts = 1


def split_rows(fn: Callable[[int, int], _T], n_rows: int) -> list[_T]:
    """``fn(lo, hi)`` on one contiguous row range per usable core, the
    results in row order.

    The calling thread runs the first range and a module-level thread
    pool the others; every range is finished before a worker's exception
    is re-raised here.  With fewer than ``MIN_SPLIT_ROWS`` rows per range,
    or when called from inside a range (so that a nested call never waits
    on the pool it runs in), it is ``[fn(0, n_rows)]``.

    ``fn`` must write only to its own rows and call no function that
    the benchmark's span tracer wraps: the tracer keeps one span stack for
    all threads.  Rows of a path block are pure functions of (seed, path),
    so no split changes an output bit.
    """
    cores = _usable_cores()
    parts = min(cores, n_rows // MIN_SPLIT_ROWS)
    if parts < 2 or getattr(_range, "parts", 1) > 1:
        return [fn(0, n_rows)]
    bounds = [n_rows * p // parts for p in range(parts + 1)]
    pool = _executor(cores - 1)
    rest = [pool.submit(_run_range, fn, lo, hi, parts) for lo, hi in zip(bounds[1:-1], bounds[2:])]
    try:
        first = _run_range(fn, 0, bounds[1], parts)
    finally:
        wait(rest)
    return [first] + [f.result() for f in rest]


def row_slices(n_rows: int, n_cols: int) -> Iterator[slice]:
    """Consecutive row slices covering a (n_rows, n_cols) float matrix,
    each about ``SLICE_BYTES`` large.

    Inside a :func:`split_rows` range the budget is shared by the ranges
    running at once, so all of them together hold one slice of scratch.
    """
    budget = SLICE_BYTES // getattr(_range, "parts", 1)
    step = max(1, budget // (8 * max(n_cols, 1)))
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


def simulate_brownian(
    grid: TimeGrid,
    n_paths: int,
    seed: SeedSpec,
    *,
    first_path_index: int = 0,
    out: np.ndarray | None = None,
) -> PathEnsemble:
    """Standard Brownian paths: independent centered Gaussian increments
    with variance equal to each grid step, value 0 at the first node.

    ``first_path_index`` shifts the substream indices so a large ensemble
    can be produced block by block, bit-identical to one-shot simulation;
    ``out`` lets a block loop refill one value matrix instead of
    allocating a new one per block.  The rows are split across cores by
    :func:`split_rows`, each range with its own generator.
    """
    if n_paths < 1:
        raise ValueError("need at least one path")
    sqrt_steps = np.sqrt(grid.steps)
    values = _value_matrix(n_paths, grid.n_nodes, out)

    def fill(lo: int, hi: int) -> None:
        # each row is drawn in place, then scaled and summed per row slice
        rk = _Rekeyed(seed.base_seed)
        part = values[lo:hi]
        part[:, 0] = 0.0
        for rows in row_slices(*part.shape):
            incr = part[rows, 1:]
            for i, row in enumerate(incr, start=first_path_index + lo + rows.start):
                rk.rekey(i).standard_normal(out=row)
            incr *= sqrt_steps
            np.cumsum(incr, axis=1, out=incr)

    split_rows(fill, n_paths)
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


def _finite(text) -> float:
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"jump parameter {text!r} is not a finite number")
    return x


def parse_jump_sampler(spec: str) -> JumpSampler:
    """Parse ``pm1``, ``const:1.0`` or ``normal:mu=0,sigma=1``."""
    head, _, rest = spec.partition(":")
    if head == "pm1":
        return rademacher_jumps()
    if head == "const":
        return constant_jumps(_finite(rest))
    if head == "normal":
        kv = dict(p.split("=") for p in rest.split(",") if p)
        return normal_jumps(_finite(kv.get("mu", 0.0)), _finite(kv.get("sigma", 1.0)))
    raise ValueError(f"unknown jump sampler {spec!r}")


def simulate_compound_poisson(
    grid: TimeGrid,
    rate: float,
    jump_sampler: JumpSampler,
    n_paths: int,
    seed: SeedSpec,
    *,
    first_path_index: int = 0,
    out: np.ndarray | None = None,
) -> PathEnsemble:
    """Compound Poisson paths recorded at grid nodes.

    Jumps are placed exactly (uniform arrival times given the count) and
    the piecewise-constant path is read off at the nodes.  ``first_path_index``
    and ``out`` serve block loops as in :func:`simulate_brownian`.

    The loop stays on one thread: its short per-path numpy calls hold the
    GIL for most of their time, and split over two threads a 16 384-path
    block took 517–703 ms against 480–519 ms serial (2-core VM).
    """
    if rate < 0:
        raise ValueError("jump rate must be nonnegative")
    if n_paths < 1:
        raise ValueError("need at least one path")
    horizon = grid.horizon
    nodes = grid.nodes
    values = _value_matrix(n_paths, grid.n_nodes, out)
    rk = _Rekeyed(seed.base_seed)
    for i in range(n_paths):
        rng = rk.rekey(first_path_index + i)
        k = rng.poisson(rate * horizon)
        if k == 0:
            values[i] = 0.0
            continue
        times = np.sort(rng.uniform(0.0, horizon, k))
        sizes = jump_sampler.draw(rng, k)
        cum = np.concatenate([[0.0], np.cumsum(sizes)])
        values[i] = cum[np.searchsorted(times, nodes, side="right")]
    return PathEnsemble(grid, values, f"compound_poisson(rate={rate},jumps={jump_sampler.name})", seed)
