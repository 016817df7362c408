#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload shuffle --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from anywhere inside a checkout: the DFI sources are taken from the
checkout's src/ and built, with the benchmark, under .bench_build/perfbench.
The last line of standard output is the JSON result of the run.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(*targets):
    """Configures (once) and builds `targets`; returns when they are current.
    Only the benchmark binary is needed for a run, so a missing or broken test
    dependency cannot stop the benchmark."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no DFI sources at {ROOT / 'src'}; run inside a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
                  *targets])
    for step in steps:
        proc = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-20000:])
            fail("build failed: " + " ".join(step))


def check_result_line(line):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return False
    return (isinstance(result, dict) and set(result) == RESULT_KEYS
            and isinstance(result["metrics"], dict))


def run(args):
    build("dfi_perfbench")
    cmd = [str(BUILD / "dfi_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=args.seconds + 120)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not check_result_line(lines[-1]):
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(f"benchmark exited with {proc.returncode} and no valid result")
    sys.stdout.write("\n".join(lines) + "\n")


def selftest():
    """Builds, runs the benchmark's tests, and checks BENCHMARK.json against
    the metric catalog the binary prints."""
    build("dfi_perfbench", "perfbench_selftest")
    test = BUILD / "perfbench_selftest"
    if subprocess.run([str(test)], cwd=ROOT).returncode != 0:
        fail("self-tests failed")
    listed = subprocess.run([str(BUILD / "dfi_perfbench"), "--list-metrics"],
                            cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            check=True).stdout.split("\n")
    catalog = {}
    for line in filter(None, listed):
        name, unit, better, tier = line.split()
        catalog[name] = (unit, better, tier)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {}
    for tier in ("end_to_end", "per_layer"):
        for m in spec[tier]:
            declared[m["name"]] = (m["unit"], m["better"], tier)
    if declared != catalog:
        for name in sorted(set(declared) | set(catalog)):
            if declared.get(name) != catalog.get(name):
                print(f"  {name}: BENCHMARK.json {declared.get(name)} "
                      f"vs binary {catalog.get(name)}", file=sys.stderr)
        fail("BENCHMARK.json and the metric catalog disagree")
    print("perfbench self-test passed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=["shuffle", "pipeline", "consensus"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        selftest()
    elif args.workload is None:
        parser.error("--workload is required")
    elif args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")
    else:
        run(args)


if __name__ == "__main__":
    main()
