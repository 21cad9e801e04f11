"""The benchmark's workloads: the argv each one hands to
``enlargekit.cli.main``, generated from the benchmark seed, and the
checks its exit codes and reports must pass.

Every workload is a fixed list of CLI calls.  The same seed gives the
same calls, and per-path Philox substreams make every report a pure
function of its argv, so a report that changes between repetitions of a
call is itself a failed check.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import Callable

BLOCK = 16384     # path block of the streamed experiment drivers
THRESHOLD = 4.0   # the CLI's default per-test |z| limit

EXIT_PASS, EXIT_STAT_FAIL, EXIT_REFUSAL, EXIT_UNDECIDED, EXIT_CONFIG = 0, 2, 3, 4, 64
KNOWN_EXITS = {EXIT_PASS, EXIT_STAT_FAIL, EXIT_REFUSAL, EXIT_UNDECIDED, EXIT_CONFIG}

VERDICT_EXIT = {
    "SEMIMARTINGALE": EXIT_PASS,
    "UNDECIDED": EXIT_UNDECIDED,
    "NOT_SEMIMARTINGALE": EXIT_REFUSAL,
    "NOT_DEFINED": EXIT_REFUSAL,
}

BRIDGE_PATHS = 2 * BLOCK
LEVY_PATHS = 2 * BLOCK
# exact: (low, high, count) strata of the Jeulin-Yor alpha sweep, dense
# around the analytic boundaries alpha = 1/2 and alpha = 1
ALPHA_STRATA = ((0.40, 0.60, 100), (0.90, 1.10, 100), (0.10, 3.00, 40))
M_FAMILY_CALLS = 21
FINITE_RUNS, FINITE_INSTANCES = 2, 200


class Gate:
    """Counts certified checks and the ones that missed their expected outcome."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.stats: Counter = Counter()

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def exit_code(self, rc, expected: int, what: str) -> bool:
        if rc not in KNOWN_EXITS:
            return self.check(False, f"{what}: undocumented exit code {rc!r}")
        return self.check(rc == expected, f"{what}: exit code {rc}, expected {expected}")


@dataclass(frozen=True)
class Call:
    """One ``enlargekit.cli.main`` invocation and how to certify it."""

    argv: tuple[str, ...]
    report: str | None                      # JSON report it writes under --out
    check: Callable[[object, dict | None, Gate], None]
    items: int                              # certified work units it yields


# -- bridge -----------------------------------------------------------------


def _check_bridge(rc, report, gate: Gate) -> None:
    if not gate.exit_code(rc, EXIT_PASS, "bridge-demo") or report is None:
        return
    gate.check(report["n_paths"] == BRIDGE_PATHS, "bridge-demo: path count")
    gate.check(report["battery"]["verdict"] == "pass", "bridge-demo: compensated battery failed")
    gate.check(report["negative_control"]["verdict"] == "fail",
               "bridge-demo: raw-motion negative control passed")
    gate.check(bool(report["quadratic_variation"]["passed"]), "bridge-demo: quadratic variation")
    slopes = report["symmetry"]
    gate.check(len(slopes) == 3, f"bridge-demo: {len(slopes)} symmetry slopes, expected 3")
    for s in slopes:
        gate.check(abs(s["z"]) <= THRESHOLD, f"bridge-demo: symmetry slope ({s['s']},{s['t']}) z={s['z']}")
    rungs = report["abs_drift_ladder"]["rungs"]
    gate.check(len(rungs) == 11, f"bridge-demo: {len(rungs)} ladder rungs, expected 11")
    for r in rungs:
        gate.check(bool(r["within"]), f"bridge-demo: |drift| ladder rung eps={r['eps']}")


def bridge(seed: int, out: str) -> list[Call]:
    rng = random.Random(seed)
    argv = ("bridge-demo", "--paths", str(BRIDGE_PATHS), "--steps", "1024",
            "--seed", str(rng.randrange(2**63)), "--out", out, "--no-timestamp")
    return [Call(argv, "bridge_demo.json", _check_bridge, BRIDGE_PATHS)]


# -- levy -------------------------------------------------------------------


def _check_levy(rc, report, gate: Gate) -> None:
    if not gate.exit_code(rc, EXIT_PASS, "levy-demo") or report is None:
        return
    gate.check(report["n_paths"] == LEVY_PATHS, "levy-demo: path count")
    gate.check(report["battery"]["verdict"] == "pass", "levy-demo: compensated jump battery failed")
    means = report["terminal_increment_mean"]
    gate.check(len(means) == 2, f"levy-demo: {len(means)} terminal means, expected 2")
    for s, m in means.items():
        gate.check(abs(m["z"]) <= THRESHOLD, f"levy-demo: terminal mean from s={s} z={m['z']}")


def levy(seed: int, out: str) -> list[Call]:
    rng = random.Random(seed)
    argv = ("levy-demo", "--rate", "1", "--jumps", "pm1", "--paths", str(LEVY_PATHS),
            "--steps", "512", "--seed", str(rng.randrange(2**63)), "--out", out, "--no-timestamp")
    return [Call(argv, "levy_demo.json", _check_levy, LEVY_PATHS)]


# -- exact ------------------------------------------------------------------


def jy_verdict(alpha: float) -> str:
    """Analytic verdict for the Jeulin-Yor family at exponent alpha."""
    if alpha <= 0.5:
        return "NOT_DEFINED"
    return "NOT_SEMIMARTINGALE" if alpha <= 1.0 else "SEMIMARTINGALE"


def _check_classify(what: str, expected: str, values: tuple[float, float] | None,
                    rc, report, gate: Gate) -> None:
    if report is None:
        gate.check(False, f"{what}: no report (exit code {rc!r})")
        return
    verdict = report["verdict"]
    if not gate.check(verdict in VERDICT_EXIT, f"{what}: unknown verdict {verdict!r}"):
        return
    gate.exit_code(rc, VERDICT_EXIT[verdict], f"{what} [{verdict}]")
    if verdict == "UNDECIDED":  # honest refusal to decide near a boundary: no failure
        return
    gate.check(verdict == expected, f"{what}: {verdict}, analytic {expected}")
    if values is not None:
        for key, exact in zip(("jy_value", "l2_value"), values):
            got = report[key]
            gate.check(isinstance(got, float) and math.isclose(got, exact, rel_tol=1e-6),
                       f"{what}: {key} {got!r}, analytic {exact!r}")


def _m_family(i: int, rng: random.Random) -> tuple[str, str, tuple[float, float]]:
    """(spec, T, analytic (jy, l2) values) of a closed-form --m integrand."""
    t = f"{rng.uniform(0.5, 2.0):.4f}"
    T = float(t)
    kind = i % 3
    if kind == 0:
        c = f"{rng.uniform(0.5, 2.0):.4f}"
        return f"const:c={c},T={t}", t, (2.0 * float(c) * math.sqrt(T), float(c) ** 2 * T)
    if kind == 1:
        return f"linear:T={t}", t, (2.0 / 3.0 * math.sqrt(T), T / 3.0)
    return f"indicator:T={t}", t, (2.0 * math.sqrt(T), T)


def _check_config_error(rc, report, gate: Gate) -> None:
    gate.exit_code(rc, EXIT_CONFIG, "classify with an unknown integrand family")


def _check_finite(n: int, rc, report, gate: Gate) -> None:
    if not gate.exit_code(rc, EXIT_PASS, "finite-demo") or report is None:
        return
    gate.check(report["n_instances"] == n, f"finite-demo: {report['n_instances']} instances, expected {n}")
    for k, inst in enumerate(report["instances"]):
        gate.stats["instances"] += 1
        gate.stats["verified"] += bool(inst["ok"])
        gate.check(bool(inst["ok"]), f"finite-demo: instance {k} failed its exact checks")


def exact(seed: int, out: str) -> list[Call]:
    rng = random.Random(seed)
    tail = ("--out", out, "--no-timestamp")
    calls = []
    for lo, hi, n in ALPHA_STRATA:
        for i in range(n):
            a = f"{lo + (hi - lo) * (i + rng.random()) / n:.6f}"
            t = f"{rng.uniform(0.5, 2.0):.4f}"
            check = partial(_check_classify, f"classify jy alpha={a} T={t}", jy_verdict(float(a)), None)
            calls.append(Call(("classify", "--alpha", a, "--T", t) + tail, "classify.json", check, 1))
    for i in range(M_FAMILY_CALLS):
        spec, t, values = _m_family(i, rng)
        check = partial(_check_classify, f"classify {spec}", "SEMIMARTINGALE", values)
        calls.append(Call(("classify", "--m", spec, "--T", t) + tail, "classify.json", check, 1))
    calls.append(Call(("classify", "--m", "nosuch:T=1") + tail, None, _check_config_error, 0))
    for _ in range(FINITE_RUNS):
        argv = ("finite-demo", "--random", str(FINITE_INSTANCES), "--seed", str(rng.randrange(2**31))) + tail
        calls.append(Call(argv, "finite_demo.json", partial(_check_finite, FINITE_INSTANCES),
                          FINITE_INSTANCES))
    return calls


WORKLOADS = {"bridge": bridge, "levy": levy, "exact": exact}
