"""Row-split kernels: splitting a block's rows across cores changes no bit,
keeps every error, and never disturbs the benchmark's span tracer."""

import functools
import importlib.util
import multiprocessing
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from enlargekit.cli import EXIT_PASS, main
from enlargekit.enlargement import EnlargementError, EnlargementSpec, drift_compensator, realize_X
from enlargekit.experiments import bridge_grid
from enlargekit.integrands import indicator, parse_integrand
from enlargekit.mgtests import QVAccumulator
from enlargekit.paths import MIN_SPLIT_ROWS, SeedSpec, simulate_brownian, split_rows

SEED = SeedSpec(31337)
N = 4096  # rows enough for split_rows to use every core of a small machine
SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _inline_slices(n):
    """Row slices short enough that every kernel runs them on one thread."""
    step = MIN_SPLIT_ROWS - 24
    return [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]


@pytest.fixture(scope="module")
def block():
    grid = bridge_grid(64, include=(0.25, 0.5, 0.75, 0.9))
    values = simulate_brownian(grid, N, SEED).values
    return grid, values


def test_split_rows_covers_rows_in_order():
    got = split_rows(lambda lo, hi: (lo, hi, threading.get_ident()), 10 * MIN_SPLIT_ROWS + 7)
    bounds = [(lo, hi) for lo, hi, _ in got]
    assert bounds[0][0] == 0 and bounds[-1][1] == 10 * MIN_SPLIT_ROWS + 7
    assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
    assert all(hi - lo >= MIN_SPLIT_ROWS for lo, hi in bounds)
    if len(got) > 1:  # the caller runs the first range and the pool the others
        assert len({ident for *_, ident in got}) > 1
    assert split_rows(lambda lo, hi: (lo, hi), MIN_SPLIT_ROWS + 1) == [(0, MIN_SPLIT_ROWS + 1)]


def test_split_rows_reraises_a_worker_error_after_every_range():
    done = []

    def fn(lo, hi):
        if lo > 0:
            raise KeyError(lo)
        done.append(lo)

    ranges = split_rows(lambda lo, hi: lo, N)
    if len(ranges) > 1:
        with pytest.raises(KeyError):
            split_rows(fn, N)
        assert done == [0]


def test_nested_split_rows_completes():
    result = {}

    def outer(lo, hi):
        return split_rows(lambda a, b: (lo + a, lo + b), hi - lo)

    runner = threading.Thread(target=lambda: result.update(ranges=split_rows(outer, 4 * N)), daemon=True)
    runner.start()
    runner.join(timeout=60)
    assert not runner.is_alive(), "a nested split_rows call waited on its own pool"
    flat = [r for inner in result["ranges"] for r in inner]
    assert flat[0][0] == 0 and flat[-1][1] == 4 * N
    assert all(len(inner) == 1 for inner in result["ranges"])  # nested calls run inline


def test_concurrent_callers_share_the_pool_without_mixing_rows():
    # more calling threads than cores, switching often: every caller
    # still gets exactly its own paths
    grid = bridge_grid(16)
    want = {i: simulate_brownian(grid, 2 * MIN_SPLIT_ROWS, SeedSpec(i)).values for i in range(6)}
    got = {}

    def run(i):
        for _ in range(3):
            got[i] = simulate_brownian(grid, 2 * MIN_SPLIT_ROWS, SeedSpec(i)).values

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=run, args=(i,), daemon=True) for i in want]
        for c in callers:
            c.start()
        for c in callers:
            c.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(c.is_alive() for c in callers)
    assert all(np.array_equal(got[i], want[i]) for i in want)


def _simulate_into(queue):
    queue.put(simulate_brownian(bridge_grid(16), 2 * MIN_SPLIT_ROWS, SEED).values)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork here")
def test_forked_child_after_a_split_does_not_hang():
    want = simulate_brownian(bridge_grid(16), 2 * MIN_SPLIT_ROWS, SEED).values  # starts the pool
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=_simulate_into, args=(queue,))
    child.start()
    try:
        got = queue.get(timeout=60)
    finally:
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
    assert np.array_equal(got, want)


def test_split_simulation_equals_one_path_calls(block):
    grid, values = block
    one_by_one = np.stack([simulate_brownian(grid, 1, SEED, first_path_index=i).values[0]
                           for i in range(N)])
    assert np.array_equal(values, one_by_one)


@pytest.mark.parametrize("phi", ["indicator:T=1", "jy:alpha=0.75,T=1"])
def test_split_drift_compensator_equals_inline_slices(block, phi):
    grid, values = block
    spec = EnlargementSpec(parse_integrand(phi), grid)
    x = realize_X(spec, values)
    whole = drift_compensator(spec, values, x)
    parts = [drift_compensator(spec, values[rows], x[rows]) for rows in _inline_slices(N)]
    assert np.array_equal(whole, np.concatenate(parts))


class _Capture:
    """Stands in for an accumulator's moments and keeps the block it gets."""

    def update(self, block):
        self.block = np.array(block)


def test_split_qv_equals_inline_slices(block):
    grid, values = block
    spec = EnlargementSpec(indicator(1.0), grid)
    fv = drift_compensator(spec, values, realize_X(spec, values))
    k = grid.index_of(0.9)

    def per_path_qv(v, a):
        acc = QVAccumulator(k, 0.9)
        acc._moments = _Capture()
        acc.update(v, a)
        return acc._moments.block

    whole = per_path_qv(values, fv)
    parts = [per_path_qv(values[rows], fv[rows]) for rows in _inline_slices(N)]
    assert np.array_equal(whole, np.concatenate(parts))


def test_nan_in_the_second_half_is_rejected(block):
    grid, values = block
    spec = EnlargementSpec(indicator(1.0), grid)
    values = values.copy()
    values[3 * N // 4, 10] = np.nan
    x = realize_X(spec, values)
    with pytest.raises(EnlargementError):
        drift_compensator(spec, values, x)


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = spans  # its dataclasses resolve annotations through sys.modules
    try:
        spec.loader.exec_module(spans)
    finally:
        del sys.modules[spec.name]
    return spans


def test_traced_bridge_keeps_one_span_tree():
    spans = _load_spans()
    callers = set()

    class Tracer(spans.Tracer):
        """Also records the thread of every traced call: the tracer keeps
        one span stack, so a traced call from a worker would corrupt it."""

        def _wrap(self, span_name, attr, fn):
            traced = super()._wrap(span_name, attr, fn)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                callers.add(threading.get_ident())
                return traced(*args, **kwargs)

            return wrapper

    tracer = Tracer()
    tracer.install()
    counts = []
    try:
        for _ in range(2):
            first = tracer.mark()
            assert main(["bridge-demo", "--paths", str(N), "--steps", "64", "--seed", "3"]) == EXIT_PASS
            _, _, c = tracer.layer_times(first)
            assert c["experiments.blocks"] == 1
            counts.append(c)
    finally:
        tracer.uninstall()
    assert tracer._stack == []
    assert callers == {threading.get_ident()}
    for s in tracer.spans:
        if s.parent >= 0:
            parent = tracer.spans[s.parent]
            assert parent.start <= s.start and s.end <= parent.end, (parent.name, s.name)
    assert counts[0] == counts[1]
