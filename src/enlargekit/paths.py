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
from typing import Callable, ClassVar, Iterator, TypeVar

import numpy as np

from .grid import TimeGrid

_T = TypeVar("_T")

# Row slices of a path matrix hold about this many bytes: small enough
# that a slice's scratch is negligible next to a path block, large enough
# that numpy's per-call overhead is too.
SLICE_BYTES = 1 << 21

# split_rows runs inline when a range would hold fewer rows than this and
# fewer values than a range of that many rows of a 1035-node bridge block,
# so small blocks pay no thread hand-off.
MIN_SPLIT_ROWS = 1024
MIN_SPLIT_VALUES = MIN_SPLIT_ROWS * 1035

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


def split_rows(fn: Callable[[int, int], _T], shape: int | tuple[int, int]) -> list[_T]:
    """``fn(lo, hi)`` on one contiguous row range per usable core, the
    results in row order; ``shape`` is the row count or the (rows,
    columns) of the work.

    The calling thread runs the first range and a module-level thread
    pool the others; every range is finished before a worker's exception
    is re-raised here.  With fewer than ``MIN_SPLIT_ROWS`` rows and
    ``MIN_SPLIT_VALUES`` values per range, or when called from inside a
    range (so that a nested call never waits on the pool it runs in), it
    is ``[fn(0, n_rows)]``.

    ``fn`` must write only to its own rows and call no function that
    the benchmark's span tracer wraps: the tracer keeps one span stack for
    all threads.  Rows of a path block are pure functions of (seed, path),
    so no split changes an output bit.
    """
    n_rows, n_cols = (shape, 1) if np.ndim(shape) == 0 else shape
    cores = _usable_cores()
    parts = min(cores, n_rows, max(n_rows // MIN_SPLIT_ROWS, n_rows * n_cols // MIN_SPLIT_VALUES))
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
    derivation: ClassVar[str] = "philox:key=(base_seed<<64)|path_index"

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

    split_rows(fill, values.shape)
    return PathEnsemble(grid, values, "brownian", seed)


# ---------------------------------------------------------------------------
# compound Poisson


@dataclass(frozen=True)
class JumpSampler:
    """Named jump-size distribution with finite mean."""

    name: str
    draw: Callable[[np.random.Generator, int], np.ndarray] = field(compare=False)
    mean: float = 0.0


def constant_jumps(c: float) -> JumpSampler:
    return JumpSampler(f"const:{c}", lambda rng, k: np.full(k, float(c)), float(c))


_PM1 = np.array((-1.0, 1.0))


def rademacher_jumps() -> JumpSampler:
    # the same values and stream position as rng.choice((-1.0, 1.0), size=k),
    # without choice's per-call overhead
    return JumpSampler("pm1", lambda rng, k: _PM1[rng.integers(0, 2, size=k)], 0.0)


def normal_jumps(mu: float = 0.0, sigma: float = 1.0) -> JumpSampler:
    return JumpSampler(
        f"normal:mu={mu},sigma={sigma}",
        lambda rng, k: mu + sigma * rng.standard_normal(k),
        float(mu),
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


def _draw_jumps(
    mean_count: float,
    horizon: float,
    jump_sampler: JumpSampler,
    n_paths: int,
    seed: SeedSpec,
    first_path_index: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-path jump counts, and arrival times and sizes of all jumps in
    one flat array each, path by path, in draw order.

    Each path draws its count, ``k`` arrival times and ``k`` sizes from its
    own substream, in that order; ``rng.random`` scaled by the horizon is
    ``rng.uniform(0, horizon, k)`` bit for bit (``0.0 + T·u == T·u``).
    """
    counts = np.empty(n_paths, dtype=np.int64)
    cap = int(n_paths * mean_count * 1.25) + 64
    times, sizes = np.empty(cap), np.empty(cap)
    end = 0
    rk = _Rekeyed(seed.base_seed)
    for i in range(n_paths):
        rng = rk.rekey(first_path_index + i)
        k = counts[i] = rng.poisson(mean_count)
        if k == 0:
            continue
        stop = end + k
        if stop > times.size:  # grow by doubling
            cap = max(2 * times.size, stop)
            times = np.concatenate((times[:end], np.empty(cap - end)))
            sizes = np.concatenate((sizes[:end], np.empty(cap - end)))
        rng.random(out=times[end:stop])
        sizes[end:stop] = jump_sampler.draw(rng, k)
        end = stop
    times = times[:end]
    times *= horizon
    return counts, times, sizes[:end]


def _place_jumps(values: np.ndarray, nodes: np.ndarray, counts: np.ndarray,
                 times: np.ndarray, sizes: np.ndarray) -> None:
    """Writes each path's piecewise-constant value at the nodes into its
    row of ``values``: 0 before its first jump, then the running sums of
    its sizes in draw order, each stepping in at the first node at or
    after the next arrival time in time order.

    ``counts``, ``times`` and ``sizes`` are laid out as :func:`_draw_jumps`
    returns them; ``sizes`` is overwritten with the running sums.  A path
    is a run of zeros plus one run per jump, so a row slice is one
    ``np.repeat``.
    """
    n_paths, n_nodes = values.shape
    first = np.zeros(n_paths + 1, dtype=np.int64)
    np.cumsum(counts, out=first[1:])

    # running sums in draw order: one sequential add per jump rank, as
    # np.cumsum adds (the first size stays as drawn, sign bit included)
    most_jumps_first = np.argsort(-counts)
    with_more = n_paths - np.cumsum(np.bincount(counts))  # [r]: paths with more than r jumps
    for r in range(1, with_more.size):
        at = first[most_jumps_first[: with_more[r]]] + r
        sizes[at] += sizes[at - 1]

    for rows in row_slices(n_paths, n_nodes):
        lo, hi = first[rows.start], first[rows.stop]
        path = np.repeat(np.arange(rows.stop - rows.start), counts[rows])
        # node of each jump: t <= nodes[j] exactly when j >= j0; sorted
        # within each path, in time order (the key keeps paths in order)
        j0 = np.searchsorted(nodes, times[lo:hi], side="left")
        shift = path * (n_nodes + 1)
        j0 += shift
        j0.sort()
        j0 -= shift
        # runs of path p: its zero run, then one run per jump, each ending
        # where the next one starts or at the end of the row
        jump_run = np.arange(hi - lo) + path + 1
        run_value = np.zeros(jump_run.size + rows.stop - rows.start)
        run_value[jump_run] = sizes[lo:hi]
        run_start = np.zeros(run_value.size, dtype=np.int64)
        run_start[jump_run] = j0
        run_end = np.full(run_value.size, n_nodes, dtype=np.int64)
        run_end[jump_run - 1] = j0
        values[rows] = np.repeat(run_value, run_end - run_start).reshape(-1, n_nodes)


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

    The paths draw their counts, arrival times and sizes one after
    another, then one vectorised pass places every jump of the block; no
    bit depends on that split.  The draw loop stays on one thread: its
    short per-path generator calls hold the GIL for most of their time,
    and split over two threads the per-path loop of a 16 384-path block
    took 517–703 ms against 480–519 ms serial (2-core VM, measured when
    that loop also placed the jumps).
    """
    if rate < 0:
        raise ValueError("jump rate must be nonnegative")
    if n_paths < 1:
        raise ValueError("need at least one path")
    values = _value_matrix(n_paths, grid.n_nodes, out)
    counts, times, sizes = _draw_jumps(rate * grid.horizon, grid.horizon, jump_sampler, n_paths, seed,
                                       first_path_index)
    _place_jumps(values, grid.nodes, counts, times, sizes)
    return PathEnsemble(grid, values, f"compound_poisson(rate={rate},jumps={jump_sampler.name})", seed)
