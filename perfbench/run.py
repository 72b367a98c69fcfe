#!/usr/bin/env python3
# SPDX-License-Identifier: Apache-2.0
"""Host-speed benchmark of the MemPool-3D simulator.

Run from the repository root:

    python3 perfbench/run.py --workload paper_matmul --seed 1 --seconds 40 --trace 0

Builds the simulator and the perfbench runner from source (Release) into
$CARGO_TARGET_DIR, or .bench_build when unset, then runs the one workload
in its own process and relays its result. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}. Build output
goes to stderr. Exits non-zero without a result when the simulator sources
are missing or the build or the run fails.

--workload all runs every workload, untraced and traced, one process at a
time, prints one result line per run (with "workload" and "trace" added)
and exits 1 when any run is incorrect.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_matmul", "far_memory_axpy", "system_batch")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                        "perfbench")


def build():
    """Configure and build the runner; returns the binary's path."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail(f"no simulator sources at {os.path.join(ROOT, 'src')}")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", out, "-j", jobs, "--target", "perfbench"]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def run(binary, workload, trace, args, extra):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace)] + extra
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result line: {lines[-1]}")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the self-check")
    parser.add_argument("--out", help="write simulated counts and spans here")
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    extra = (["--tiny"] if args.tiny else []) + (["--out", args.out] if args.out else [])
    binary = build()
    if args.workload != "all":
        print(json.dumps(run(binary, args.workload, args.trace, args, extra)))
        return
    correct = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = run(binary, workload, trace, args, extra)
            correct = correct and result["correct"]
            print(json.dumps({"workload": workload, "trace": trace, **result}), flush=True)
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
