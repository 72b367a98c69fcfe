#!/usr/bin/env python3
# SPDX-License-Identifier: Apache-2.0
"""Self-check of the host-speed benchmark, at tiny sizes.

Run from the repository root:

    python3 perfbench/selfcheck.py

For every workload it runs perfbench/run.py --tiny twice untraced (seeds
1 and 2) and once traced, and asserts that:
  - every run is correct with no failed operation, so both seeds reproduce
    the recorded reference cycles and instret;
  - every metric BENCHMARK.json names appears with its unit;
  - the simulated counts repeat exactly across the runs;
  - the traced run's span tree nests;
  - prof.coverage >= 0.9.
Exits 0 when all hold, 1 otherwise.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPAN_NAMES = {"bench.op", "bench.setup", "bench.wall", "kernels.build",
              "arch.construct", "arch.load", "arch.run", "kernels.verify",
              "power.account", "sys.run_jobs"}
EPS = 1e-9

failures = []


def check(cond, message):
    if not cond:
        failures.append(message)
    return cond


def run(workload, seed, trace, out):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--tiny", "--out", out]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    if not check(proc.returncode == 0, f"{' '.join(cmd)} exited {proc.returncode}"):
        return None, None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(out) as f:
        detail = json.load(f)
    label = f"{workload} seed={seed} trace={trace}"
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          f"{label}: {result['failed']} of {result['attempted']} operations failed")
    return result, detail


def check_metrics(label, result, wanted):
    for spec in wanted:
        got = result["metrics"].get(spec["name"])
        if check(got is not None, f"{label}: metric {spec['name']} missing"):
            check(got["unit"] == spec["unit"],
                  f"{label}: {spec['name']} unit {got['unit']} != {spec['unit']}")


def check_spans(label, spans):
    """Parents precede children, enclose them, share their op id; siblings
    do not overlap; every root is a bench.op."""
    check(len(spans) > 0, f"{label}: no spans recorded")
    last_child_end = {}
    for i, s in enumerate(spans):
        where = f"{label}: span {i} ({s['name']})"
        check(s["name"] in SPAN_NAMES, f"{where}: unknown name")
        check(s["end"] >= s["start"], f"{where}: ends before it starts")
        p = s["parent"]
        if p < 0:
            check(s["name"] == "bench.op", f"{where}: root is not bench.op")
            continue
        if not check(p < i, f"{where}: parent {p} recorded after its child"):
            continue
        parent = spans[p]
        check(parent["op"] == s["op"], f"{where}: op id differs from its parent's")
        check(parent["start"] <= s["start"] + EPS and s["end"] <= parent["end"] + EPS,
              f"{where}: not inside its parent")
        check(s["start"] + EPS >= last_child_end.get(p, parent["start"]),
              f"{where}: overlaps an earlier sibling")
        last_child_end[p] = s["end"]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    scratch = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                           "selfcheck")
    os.makedirs(scratch, exist_ok=True)
    for workload in (w["name"] for w in bench["workloads"]):
        out = lambda tag: os.path.join(scratch, f"{workload}-{tag}.json")
        plain1, sim1 = run(workload, 1, 0, out("seed1"))
        plain2, sim2 = run(workload, 2, 0, out("seed2"))
        traced, detail = run(workload, 1, 1, out("traced"))
        if None in (plain1, plain2, traced):
            continue
        check_metrics(f"{workload} trace=0", plain1, bench["end_to_end"])
        check_metrics(f"{workload} trace=1", traced, bench["per_layer"])
        check(sim1["sim"] == sim2["sim"] == detail["sim"],
              f"{workload}: simulated counts differ between runs")
        check_spans(f"{workload} trace=1", detail["spans"])
        coverage = traced["metrics"].get("prof.coverage", {}).get("value", 0.0)
        check(coverage >= 0.9, f"{workload}: prof.coverage {coverage:.3f} < 0.9")
        print(f"selfcheck: {workload} done", file=sys.stderr)
    for message in failures:
        print(f"FAIL {message}")
    print("selfcheck: " + ("ok" if not failures else f"{len(failures)} failures"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
