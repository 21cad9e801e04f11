"""enlargekit benchmark: closed-loop workloads through ``enlargekit.cli.main``.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload bridge --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One process runs one workload.  After one untimed repetition (which also
fixes the reference reports), it repeats the workload's CLI calls until
``--seconds`` would be exceeded and reports end-to-end metrics.  With
``--trace 1`` it instead alternates traced and untraced repetitions and
reports per-layer metrics (see perfbench/README.md).  The last line of
standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import spans
import workloads

SRC = Path("src")
PACKAGE = SRC / "enlargekit" / "__init__.py"
OUT_ROOT = Path(".bench_build") / "perfbench"
SETUP_PROBES = 9          # fresh processes timed for setup_s
MIN_TRACED = 2            # traced repetitions, so counts can be compared
# largest share of the traced wall left outside every named layer (the
# self time of cli.main and the experiment drivers); exact's many small
# commands spend about 7% in argument parsing and inline file writes
ACCOUNTING_SHARE = {"bridge": 0.02, "levy": 0.02, "exact": 0.10}
CHILD_TIMEOUT = 170.0
READY = "import sys, enlargekit.cli; sys.stdout.write('ready\\n'); sys.stdout.flush()"

END_TO_END_UNITS = {"wall_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}


def blas_capped_env() -> dict[str, str]:
    """This environment with every BLAS pool capped at the usable core count."""
    cap = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            current = int(env.get(var, cap))
        except ValueError:
            current = cap
        env[var] = str(max(1, min(current, cap)))
    src = str(SRC.resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def git_commit() -> str:
    head = Path(".git") / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = Path(".git") / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = Path(".git") / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        sha, _, ref_name = line.partition(" ")
        if ref_name == name:
            return sha
    return "unknown"


def machine(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": git_commit(),
        "seed": seed,
    }


# -- one repetition of a workload ---------------------------------------------


def run_calls(cli, calls, out: Path, gate, reference=None) -> tuple[float, float, list]:
    """Runs every call once; returns (wall s, CPU s, report digests).

    Only ``cli.main`` itself is timed; reading and checking the reports
    is not.  ``cli.main`` is looked up at each call so a tracer's
    wrapper is used once installed.
    """
    wall = cpu = 0.0
    digests = []
    for call in calls:
        report_path = out / call.report if call.report else None
        if report_path is not None:
            report_path.unlink(missing_ok=True)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                rc = cli.main(list(call.argv))
            except SystemExit as e:
                rc = e.code
            except Exception:  # a crash is a failed call; keep measuring the rest
                rc = "crash: " + traceback.format_exc(limit=-1).strip().splitlines()[-1]
            wall += time.perf_counter() - t0
            cpu += time.process_time() - c0
        raw = report_path.read_bytes() if report_path is not None and report_path.is_file() else None
        call.check(rc, json.loads(raw) if raw else None, gate)
        digests.append(hashlib.sha256(raw).hexdigest() if raw else None)
    if reference is not None:
        gate.check(digests == reference, "a report changed between repetitions of the same call")
    return wall, cpu, digests


def repeat(once, seconds: float, at_least: int, between=None) -> list[tuple]:
    """Closed loop: calls ``once`` until another call would run past
    ``seconds``; ``once`` returns a tuple whose first item is its wall time.
    ``between(done)``, if given, runs after each call with the share of
    ``seconds`` measured so far; its own time is not measured."""
    reps = []
    measured = 0.0
    while len(reps) < at_least or measured + statistics.median(r[0] for r in reps) <= seconds:
        t0 = time.perf_counter()
        reps.append(once())
        measured += time.perf_counter() - t0
        if between is not None:
            between(measured / seconds)
    return reps


def setup_times(env: dict, n: int) -> list[float]:
    """Seconds from spawning a fresh interpreter until enlargekit.cli is imported."""
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", READY], env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True) as proc:
            killer = threading.Timer(CHILD_TIMEOUT / 2, proc.kill)
            killer.start()
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - t0
                proc.wait()
            finally:
                killer.cancel()
        if line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed (exit code {proc.returncode})")
        times.append(elapsed)
    return times


def quartiles(xs: list[float]) -> str:
    if len(xs) < 2:
        return f"n={len(xs)}"
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return f"median of n={len(xs)}, q1 {q1:.4g}, q3 {q3:.4g}"


# -- the two kinds of run -----------------------------------------------------


def end_to_end(once, calls, args, env) -> dict:
    setup = []

    def probe(done):  # spreads the set-up probes over the measured time
        if len(setup) < SETUP_PROBES * done:
            setup.extend(setup_times(env, 1))

    walls = [r[0] for r in repeat(once, args.seconds, at_least=1, between=probe)]
    wall = statistics.median(walls)
    items = sum(c.items for c in calls)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    setup += setup_times(env, SETUP_PROBES - len(setup))
    print(f"  wall_s       {wall:.4f} s    ({quartiles(walls)} repetitions of {len(calls)} call(s))")
    print(f"  items_per_s  {items / wall:.2f} 1/s  ({items} items per repetition)")
    print(f"  peak_rss_mb  {peak:.1f} MB")
    print(f"  setup_s      {statistics.median(setup):.4f} s    ({quartiles(setup)} fresh processes)")
    return {"wall_s": wall, "items_per_s": items / wall, "peak_rss_mb": peak,
            "setup_s": statistics.median(setup)}


def unit_of(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last in ("s", "self_s", "overhead_s"):
        return "s"
    if last == "out_mb":
        return "MB"
    if last in ("decided_ratio", "verified_ratio", "cpu_util", "unaccounted_share"):
        return "ratio"
    return "count"


def traced(once, run_traced, gate, args) -> dict:
    """Pairs each traced repetition with an untraced one, in alternating
    order, so that the tracer's overhead is a paired difference under the
    same host speed."""
    tracer = spans.Tracer()
    order = itertools.count()

    def with_tracer():
        tracer.install()
        try:
            return run_traced(tracer)
        finally:
            tracer.uninstall()

    def pair():
        if next(order) % 2:
            plain_wall, plain_cpu = once()
            wall, times = with_tracer()
        else:
            wall, times = with_tracer()
            plain_wall, plain_cpu = once()
        return wall + plain_wall, wall, times, plain_wall, plain_cpu

    pairs = repeat(pair, args.seconds, at_least=MIN_TRACED)
    if tracer.absent:
        print("  absent (no longer in enlargekit): " + ", ".join(tracer.absent))

    per_rep = []
    for _, wall, (self_s, _, counts), _, _ in pairs:
        layer = spans.layer_metrics(tracer, self_s, counts)
        named = sum(v for name, v in self_s.items() if name not in spans.DRIVERS)
        share = (wall - named) / wall
        gate.check(share <= ACCOUNTING_SHARE[args.workload],
                   f"{share:.2%} of the traced wall is outside every named layer")
        layer["trace.unaccounted_share"] = share
        per_rep.append(layer)
    metrics = {}
    for name in per_rep[0]:
        values = [m[name] for m in per_rep]
        if unit_of(name) in ("count", "MB") or name.endswith("_ratio"):
            gate.check(all(v == values[0] for v in values), f"{name} differs between repetitions")
            metrics[name] = values[0]
        else:
            metrics[name] = None if None in values else statistics.median(values)
    n, ok = gate.stats["instances"], gate.stats["verified"]
    metrics["finitelab.verified_ratio"] = ok / n if n else 0.0
    metrics["proc.cpu_util"] = sum(p[4] for p in pairs) / sum(p[3] for p in pairs)
    metrics["trace.overhead_s"] = statistics.median(p[1] - p[3] for p in pairs)
    print_stage_table([p[1:3] for p in pairs])
    for name, value in metrics.items():
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"  {name:42s} {shown} {unit_of(name)}")
    return metrics


def print_stage_table(reps) -> None:
    """Per-block breakdown of the streamed drivers' spans (median over
    traced repetitions), the stage table of one path block."""
    blocks = reps[0][1][2]["experiments.blocks"]
    if not blocks:
        return
    rows = []
    for name in reps[0][1][1]:
        if name.startswith(("cli", "classifier", "finitelab")):
            continue
        total = statistics.median(r[1][1].get(name, 0.0) for r in reps) / blocks
        own = statistics.median(r[1][0].get(name, 0.0) for r in reps) / blocks
        rows.append((total, own, name))
    rows.sort(reverse=True)
    print(f"  per {workloads.BLOCK}-path block ({blocks} blocks, median of {len(reps)} traced repetitions):")
    print(f"    {'stage':40s} {'total ms':>9s} {'self ms':>9s}")
    for total, own, name in rows:
        print(f"    {name:40s} {total * 1e3:9.1f} {own * 1e3:9.1f}")
    print("stages: " + json.dumps({
        "block_paths": workloads.BLOCK, "blocks": blocks, "traced_repetitions": len(reps),
        "per_block_ms": {name: {"total": total * 1e3, "self": own * 1e3} for total, own, name in rows},
    }))


def spawn(workload: str, seed: int, seconds: float, trace: int) -> tuple[list[str], dict]:
    """Runs one workload in a fresh run.py process; returns the lines it
    printed before its result, and the result."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT * 2)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} (seed {seed}) exited with {proc.returncode}:\n{proc.stderr}")
    return lines[:-1], json.loads(lines[-1])


def run_all(args) -> int:
    """Runs every workload in its own process and prints each metric by name."""
    results = {}
    for name in workloads.WORKLOADS:
        try:
            lines, results[name] = spawn(name, args.seed, args.seconds, args.trace)
        except RuntimeError as e:
            print(f"perfbench: {e}", file=sys.stderr)
            return 1
        print(f"== {name}")
        print("\n".join(lines))
    print("== summary")
    for name, r in results.items():
        for metric, m in r["metrics"].items():
            print(f"  {name:7s} {metric:42s} {m['value']} {m['unit']}")
        print(f"  {name:7s} {'check_fail_ratio':42s} {r['failed'] / r['attempted']} ratio")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0, help="measured time of one run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not PACKAGE.is_file():
        print(f"perfbench: {PACKAGE} not found; run from the root of an enlargekit source checkout",
              file=sys.stderr)
        return 2
    env = blas_capped_env()
    os.environ.update({k: v for k, v in env.items() if k.endswith("_NUM_THREADS")})
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC.resolve()))
    from enlargekit import cli

    if Path(cli.__file__).resolve().parents[1] != SRC.resolve():
        print(f"perfbench: imported enlargekit from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    print("machine: " + json.dumps(machine(args.seed)))
    out = OUT_ROOT / f"{args.workload}-{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)
    gate = workloads.Gate()
    try:
        calls = workloads.WORKLOADS[args.workload](args.seed, str(out))
        _, _, reference = run_calls(cli, calls, out, gate)  # untimed warm-up
        once = lambda: run_calls(cli, calls, out, gate, reference)[:2]

        def run_traced(tracer):
            first = tracer.mark()
            wall = run_calls(cli, calls, out, gate, reference)[0]
            return wall, tracer.layer_times(first)

        print(f"perfbench {args.workload} (seed {args.seed}, {args.seconds:g} s, trace {args.trace}):")
        metrics = (traced(once, run_traced, gate, args) if args.trace
                   else end_to_end(once, calls, args, env))
    finally:
        shutil.rmtree(out, ignore_errors=True)
    failed = len(gate.failures)
    print(f"  checks: {gate.attempted} attempted, {failed} failed "
          f"(check_fail_ratio {failed / max(gate.attempted, 1):.6g})")
    for what in gate.failures[:20]:
        print(f"  FAILED {what}")
    units = END_TO_END_UNITS if not args.trace else {name: unit_of(name) for name in metrics}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": gate.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
