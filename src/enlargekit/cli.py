"""Experiment runner.

One entry point dispatches to the engines, validates every parameter
before any work starts, and writes self-describing reports (JSON plus
plot-ready CSV).  Exit codes separate configuration problems from
scientific outcomes:

    0   all certified checks passed
    2   a statistical certification failed
    3   classifier refusal (the requested object provably does not exist)
    4   classifier could not decide within its rung budget
    64  configuration error
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import experiments, finitelab
from .integrands import jeulin_yor, parse_integrand
from .classifier import MAX_RUNGS, MIN_RUNGS, SEMIMARTINGALE, UNDECIDED, classify
from .enlargement import RefusedNonSemimartingaleError
from .paths import parse_jump_sampler

EXIT_PASS = 0
EXIT_STAT_FAIL = 2
EXIT_REFUSAL = 3
EXIT_UNDECIDED = 4
EXIT_CONFIG = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_CONFIG)


def _parse_pairs(text: str) -> list[tuple[float, float]]:
    pairs = []
    for chunk in text.split(","):
        s, _, t = chunk.partition(":")
        pairs.append((float(s), float(t)))
    return pairs


def _finite_float(text: str) -> float:
    """argparse type: a float that is neither NaN nor infinite."""
    x = float(text)
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return x


def _positive_int(text: str) -> int:
    """argparse type: an integer of at least 1."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return n


def _rung_count(text: str) -> int:
    """argparse type: a ladder depth the classifier can resolve."""
    n = _positive_int(text)
    if not MIN_RUNGS <= n <= MAX_RUNGS:
        raise argparse.ArgumentTypeError(f"{text!r} is not a rung count from {MIN_RUNGS} to {MAX_RUNGS}")
    return n


def _positive_ints(text: str) -> list[int]:
    """argparse type: a comma-separated list of positive integers."""
    return [_positive_int(chunk) for chunk in text.split(",")]


def _parse_epsilon(text: str) -> float:
    """argparse type: ``2^x`` or a float, finite and greater than 0."""
    try:
        eps = 2.0 ** float(text[2:]) if text.startswith("2^") else float(text)
    except (ValueError, OverflowError):
        eps = math.nan
    if not (math.isfinite(eps) and eps > 0):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite positive number")
    return eps


def _write_report(out: str | None, name: str, report: dict, stamp: bool, csv: str = "") -> None:
    """<name>.json under ``out``, and <name>.csv holding ``csv`` if given."""
    if out is None:
        return
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if stamp:
        report = dict(report)
        report["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    with open(out_dir / f"{name}.json", "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2, sort_keys=True, default=_json_default)
        f.write("\n")
    if csv:
        with open(out_dir / f"{name}.csv", "w", encoding="utf-8") as f:
            f.write(csv)


def _json_default(x):
    if isinstance(x, Fraction):
        return finitelab.frac_str(x)
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, frozenset):
        return sorted(x)
    raise TypeError(f"cannot serialize {type(x)!r}")


def _write_battery_csv(out: str | None, name: str, battery: dict) -> None:
    if out is None:
        return
    with open(Path(out) / f"{name}.csv", "w", encoding="utf-8") as f:
        f.write("s,t,basis,estimate,se,z\n")
        for r in battery["tests"]:
            f.write(f"{r['s']!r},{r['t']!r},{r['basis']},{r['estimate']!r},{r['se']!r},{r['z']!r}\n")


# ---------------------------------------------------------------------------


def cmd_classify(args) -> int:
    if args.m is not None:
        m = parse_integrand(args.m)
    else:
        m = jeulin_yor(args.alpha, args.T)
    verdict = classify(m, args.T, max_rungs=args.rungs)
    report = {
        "command": "classify",
        "family": verdict.family,
        "T": verdict.T,
        "rungs": args.rungs,
        "jy_value": verdict.jy.value if verdict.jy.is_finite else verdict.jy.status,
        "l2_value": verdict.l2.value if verdict.l2.is_finite else verdict.l2.status,
        "verdict": verdict.verdict,
        "rungs_used": max(verdict.jy.rungs_used, verdict.l2.rungs_used),
        "ladders": {"jy": verdict.jy.explain(), "l2": verdict.l2.explain()},
    }
    csv = "family,params,T,jy_value,l2_value,verdict,rungs_used\n" + verdict.record() + "\n"
    _write_report(args.out, "classify", report, not args.no_timestamp, csv)
    print(f"classify {verdict.family} T={verdict.T:g}: {verdict.verdict} "
          f"(jy={verdict.jy.render_value()}, l2={verdict.l2.render_value()})")
    if verdict.verdict == SEMIMARTINGALE:
        return EXIT_PASS
    if verdict.verdict == UNDECIDED:
        return EXIT_UNDECIDED
    return EXIT_REFUSAL


def _print_battery(tag: str, battery: dict) -> None:
    worst = max(abs(r["z"]) for r in battery["tests"])
    print(f"{tag}: {battery['verdict']} (max |z| = {worst:.2f}, {len(battery['tests'])} tests, "
          f"N = {battery['n_paths']})")


def cmd_bridge_demo(args) -> int:
    report = experiments.run_bridge_demo(
        args.paths, args.steps, args.seed, tuple(_parse_pairs(args.pairs)), args.threshold,
    )
    report["command"] = "bridge-demo"
    _write_report(args.out, "bridge_demo", report, not args.no_timestamp)
    _write_battery_csv(args.out, "bridge_demo_battery", report["battery"])
    if "negative_control" in report:
        _write_battery_csv(args.out, "bridge_demo_negative", report["negative_control"])
    _print_battery("compensated battery", report["battery"])
    _print_battery("raw-motion battery (must fail)", report["negative_control"])
    qv = report["quadratic_variation"]
    print(f"quadratic variation at t={qv['t']:g}: {qv['mean']:.5f} vs {qv['expected']:g} "
          f"(rel err {qv['rel_error']:.3%})")
    for s in report["symmetry"]:
        print(f"symmetry slope ({s['s']:g},{s['t']:g}): {s['slope']:.5f} "
              f"expected {s['expected']:.5f} (z = {s['z']:.2f})")
    ok = (
        report["battery"]["verdict"] == "pass"
        and report["negative_control"]["verdict"] == "fail"
        and qv["passed"]
        and all(abs(s["z"]) <= args.threshold for s in report["symmetry"])
        and all(r["within"] for r in report["abs_drift_ladder"]["rungs"])
    )
    return EXIT_PASS if ok else EXIT_STAT_FAIL


def cmd_drift_sim(args) -> int:
    phi = parse_integrand(args.phi)
    report = experiments.run_enlargement_demo(
        phi, args.paths, args.steps, args.seed, tuple(_parse_pairs(args.pairs)), args.threshold,
    )
    report["command"] = "drift-sim"
    _write_report(args.out, "drift_sim", report, not args.no_timestamp)
    _write_battery_csv(args.out, "drift_sim_battery", report["battery"])
    _print_battery(f"compensated battery [{report['phi']}]", report["battery"])
    return EXIT_PASS if report["battery"]["verdict"] == "pass" else EXIT_STAT_FAIL


def cmd_mg_test(args) -> int:
    drift = args.drift if args.process == "drifted" else 0.0
    report = experiments.run_mg_test(drift, args.paths, args.steps, args.seed, args.threshold)
    report.update(command="mg-test", process=args.process, drift=args.drift)
    _write_report(args.out, "mg_test", report, not args.no_timestamp)
    _write_battery_csv(args.out, "mg_test_battery", report["battery"])
    _print_battery("own-filtration battery", report["battery"])
    suite = report["characterization"]
    print(f"characterization suite: {suite['verdict']} "
          f"(worst |z| = {max(abs(c['z']) for c in suite['checks']):.2f})")
    ok = report["battery"]["verdict"] == "pass" and suite["verdict"] == "pass"
    return EXIT_PASS if ok else EXIT_STAT_FAIL


def cmd_levy_demo(args) -> int:
    sampler = parse_jump_sampler(args.jumps)
    report = experiments.run_levy_demo(
        args.rate, sampler, args.paths, args.steps, args.seed,
        tuple(_parse_pairs(args.pairs)), args.threshold,
    )
    report["command"] = "levy-demo"
    _write_report(args.out, "levy_demo", report, not args.no_timestamp)
    _write_battery_csv(args.out, "levy_demo_battery", report["battery"])
    _print_battery("compensated jump battery", report["battery"])
    means_ok = all(abs(v["z"]) <= args.threshold for v in report["terminal_increment_mean"].values())
    return EXIT_PASS if report["battery"]["verdict"] == "pass" and means_ok else EXIT_STAT_FAIL


def cmd_finite_demo(args) -> int:
    results = []
    if args.instance:
        with open(args.instance, "r", encoding="utf-8") as f:
            space, filtration, x_map = finitelab.parse_instance(f.read())
        cases = [(space, filtration, x_map)]
    else:
        rng = random.Random(args.seed)
        cases = [finitelab.random_instance(rng) for _ in range(args.random)]
    rng = random.Random(args.seed + 1)
    all_ok = True
    for space, filtration, x_map in cases:
        setup = finitelab.enlargement_setup(space, filtration, x_map)
        ok_ac, witness = finitelab.check_absolute_continuity(setup)
        z_mart = ok_ac and finitelab.likelihood_is_decoupled_martingale(setup)
        mart = finitelab.random_adapted_martingale(space, filtration, rng)
        gir = finitelab.discrete_girsanov(mart, setup) if ok_ac else None
        jac = finitelab.jacod_discrete_checks(space, filtration, x_map)
        jacod_z = finitelab.jacod_identity_holds(setup, x_map, jac)
        case_ok = ok_ac and z_mart and gir.is_enlarged_martingale and jac.absolutely_continuous and jacod_z
        all_ok = all_ok and case_ok
        results.append({
            "outcomes": list(space.outcomes),
            "prob": {w: space.prob[w] for w in space.outcomes},
            "stages": [[sorted(b) for b in p.blocks] for p in filtration.stages],
            "X": dict(x_map),
            "absolutely_continuous": ok_ac,
            "likelihood_decoupled_martingale": z_mart,
            "girsanov_exact_martingale": None if gir is None else gir.is_enlarged_martingale,
            "girsanov_compensator_final": None if gir is None else gir.compensator[-1],
            "conditional_law_report": jac.to_json_dict(),
            "jacod_density_is_likelihood": jacod_z,
            "ok": case_ok,
        })
    report = {
        "command": "finite-demo",
        "seed": args.seed,
        "n_instances": len(cases),
        "all_exact_checks_pass": all_ok,
        "instances": results,
    }
    _write_report(args.out, "finite_demo", report, not args.no_timestamp)
    print(f"finite-demo: {len(cases)} instance(s), exact checks "
          f"{'all pass' if all_ok else 'FAILED'}")
    return EXIT_PASS if all_ok else EXIT_STAT_FAIL


def cmd_lookahead_demo(args) -> int:
    report = experiments.run_lookahead_demo(
        args.epsilon, args.levels, args.paths, args.seed, args.delta,
    )
    report["command"] = "lookahead-demo"
    _write_report(args.out, "lookahead_demo", report, not args.no_timestamp)
    ok = True
    for lv in report["levels"]:
        mean_ok = abs(lv["integral_mean"] - 1.0) <= args.threshold * lv["integral_se"]
        bound = min(lv["sup_tail_bound"], 1.0)  # coarse levels: the tail bound can pass 1
        sampling = args.threshold * math.sqrt(bound * (1.0 - bound) / args.paths)
        sup_ok = lv["sup_exceed_prob"] <= bound + sampling
        ok = ok and mean_ok and sup_ok
        print(f"level {lv['level']}: E[(H^n . W)_1] = {lv['integral_mean']:.5f} "
              f"(se {lv['integral_se']:.2e}), P(sup > {report['delta']}) = "
              f"{lv['sup_exceed_prob']:.2e} [bound {lv['sup_tail_bound']:.2e}]")
    return EXIT_PASS if ok else EXIT_STAT_FAIL


def cmd_jeulin_probe(args) -> int:
    cases = ["finite", "divergent"] if args.case == "both" else [args.case]
    ok = True
    reports = []
    for case in cases:
        rep = experiments.run_jeulin_probe(case, args.paths, args.seed)
        reports.append(rep)
        if case == "finite":
            case_ok = rep["cauchy_fraction"] >= 0.99 and rep["exceed_fraction"] <= 0.05
        else:
            case_ok = rep["exceed_fraction"] >= 0.99 and rep["cauchy_fraction"] <= 0.01
        ok = ok and case_ok
        print(f"probe [{case}] {rep['integrand']}: cauchy {rep['cauchy_fraction']:.3f}, "
              f"exceed>{rep['ceiling']:g} {rep['exceed_fraction']:.3f} "
              f"({'ok' if case_ok else 'FAILED'})")
    report = {"command": "jeulin-probe", "cases": reports}
    _write_report(args.out, "jeulin_probe", report, not args.no_timestamp)
    return EXIT_PASS if ok else EXIT_STAT_FAIL


# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, paths: int, steps: int | None = None) -> None:
    p.add_argument("--seed", type=int, default=20240901, help="base seed (explicit only)")
    p.add_argument("--paths", type=_positive_int, default=paths)
    if steps is not None:
        p.add_argument("--steps", type=_positive_int, default=steps, help="uniform base steps")
    p.add_argument("--threshold", type=_finite_float, default=4.0, help="|z| limit per test")
    p.add_argument("--out", default=None, help="directory for JSON/CSV reports")
    p.add_argument("--no-timestamp", action="store_true",
                   help="omit the timestamp field for byte-identical reports")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once: parsing keeps no state in it."""
    p = _Parser(prog="enlargekit", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("classify", help="integrability verdict for m•W under terminal-value enlargement")
    q.add_argument("--alpha", type=_finite_float, default=0.75)
    q.add_argument("--T", type=_finite_float, default=1.0)
    q.add_argument("--m", default=None, help="explicit integrand spec, e.g. const:c=1,T=1")
    q.add_argument("--rungs", type=_rung_count, default=40)
    q.add_argument("--out", default=None)
    q.add_argument("--no-timestamp", action="store_true")
    q.set_defaults(fn=cmd_classify)

    q = sub.add_parser("bridge-demo", help="pinned-bridge compensation with full diagnostics")
    _add_common(q, paths=200_000, steps=1024)
    q.add_argument("--pairs", default="0.25:0.5,0.5:0.75,0.25:0.9")
    q.set_defaults(fn=cmd_bridge_demo)

    q = sub.add_parser("drift-sim", help="general information-drift compensation for a chosen φ")
    _add_common(q, paths=100_000, steps=512)
    q.add_argument("--phi", default="linear:T=1", help="integrand spec, e.g. linear:T=1")
    q.add_argument("--pairs", default="0.25:0.5,0.5:0.75,0.25:0.9")
    q.set_defaults(fn=cmd_drift_sim)

    q = sub.add_parser("mg-test", help="martingale battery + Brownian characterization of a raw process")
    _add_common(q, paths=50_000, steps=256)
    q.add_argument("--process", choices=["brownian", "drifted"], default="brownian")
    q.add_argument("--drift", type=_finite_float, default=0.5)
    q.set_defaults(fn=cmd_mg_test)

    q = sub.add_parser("levy-demo", help="terminal-pinned compensation of a compound Poisson path")
    _add_common(q, paths=100_000, steps=512)
    q.add_argument("--rate", type=_finite_float, default=1.0)
    q.add_argument("--jumps", default="pm1", help="pm1 | const:<c> | normal:mu=..,sigma=..")
    q.add_argument("--pairs", default="0.25:0.5,0.5:0.75")
    q.set_defaults(fn=cmd_levy_demo)

    q = sub.add_parser("finite-demo", help="exact finite-space verification")
    q.add_argument("--instance", default=None, help="instance file (structured text)")
    q.add_argument("--random", type=_positive_int, default=25, help="number of random instances")
    q.add_argument("--seed", type=int, default=20240901)
    q.add_argument("--out", default=None)
    q.add_argument("--no-timestamp", action="store_true")
    q.set_defaults(fn=cmd_finite_demo)

    q = sub.add_parser("lookahead-demo", help="look-ahead filtration non-integrator demonstration")
    _add_common(q, paths=10_000)
    q.add_argument("--epsilon", type=_parse_epsilon, default="2^-6",
                   help="look-ahead margin (accepts 2^-k)")
    q.add_argument("--levels", type=_positive_ints, default="8,10,12")
    q.add_argument("--delta", type=_finite_float, default=0.25)
    q.set_defaults(fn=cmd_lookahead_demo)

    q = sub.add_parser("jeulin-probe", help="two-sided probe of the a.s. integral-finiteness equivalence")
    _add_common(q, paths=5000)
    q.add_argument("--case", choices=["finite", "divergent", "both"], default="both")
    q.set_defaults(fn=cmd_jeulin_probe)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, KeyError) as e:
        print(f"enlargekit: config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except RefusedNonSemimartingaleError as e:
        print(f"enlargekit: refused: {e}", file=sys.stderr)
        return EXIT_REFUSAL


if __name__ == "__main__":
    sys.exit(main())
