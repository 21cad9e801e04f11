"""Regenerates perfbench/baseline.json from the root of a source checkout:

    python3 perfbench/baseline.py

Runs every workload untraced once per seed (101 to 110, each for
BENCHMARK.json's ``run_seconds``) and traced once (first seed),
each in its own process through run.py, and records per workload the
median and quartiles of each end-to-end metric over the seeds, the
per-layer metrics, the check counts, the per-block stage table of the
Monte Carlo workloads, and the machine.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import workloads
from run import spawn

OUT = Path(__file__).with_name("baseline.json")
SEEDS = list(range(101, 111))
RUN_SECONDS = json.loads((Path(__file__).parents[1] / "BENCHMARK.json").read_text())["run_seconds"]


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """One run.py process; returns its tagged JSON lines and its result."""
    lines, result = spawn(workload, seed, RUN_SECONDS, trace)
    tagged = {}
    for line in lines:
        tag, sep, rest = line.partition(": ")
        if sep and tag in ("machine", "stages"):
            tagged[tag] = json.loads(rest)
    return tagged, result


def main() -> int:
    baseline = {"seeds": SEEDS, "run_seconds": RUN_SECONDS, "workloads": {}}
    for name in workloads.WORKLOADS:
        values, checks = {}, {"attempted": 0, "failed": 0}
        for seed in SEEDS:
            tagged, result = run(name, seed, trace=0)
            baseline.setdefault("machine", tagged["machine"])
            checks["attempted"] += result["attempted"]
            checks["failed"] += result["failed"]
            for metric, m in result["metrics"].items():
                values.setdefault(metric, (m["unit"], []))[1].append(m["value"])
            print(f"{name} seed {seed}: " + ", ".join(f"{k} {m['value']:.5g}" for k, m in result["metrics"].items()),
                  flush=True)
        end_to_end = {}
        for metric, (unit, xs) in values.items():
            q1, med, q3 = statistics.quantiles(xs, n=4)
            end_to_end[metric] = {"unit": unit, "median": med, "q1": q1, "q3": q3,
                                  "spread": (q3 - q1) / med, "values": xs}
        tagged, traced = run(name, SEEDS[0], trace=1)
        checks["check_fail_ratio"] = checks["failed"] / checks["attempted"]
        entry = {
            "end_to_end": end_to_end,
            "checks": checks,
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
        }
        if "stages" in tagged:
            entry["stages"] = tagged["stages"]
        baseline["workloads"][name] = entry
    OUT.write_text(json.dumps(baseline, indent=2) + "\n")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
