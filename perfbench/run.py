#!/usr/bin/env python3
"""Builds the host benchmark from source and runs it.

Usage, from the repository root:

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

The program's libraries (../src) and the perfbench executable are
configured and built into .bench_build/perfbench under the repository
root; later runs rebuild only what changed. Before each run the
benchmark's self-tests (perfbench --self-test) must pass. Every argument
is handed to perfbench, which validates it. The last line of standard
output is perfbench's JSON result, after checking that it reports
exactly the metrics BENCHMARK.json declares for the requested mode,
with the same units.

`--workload all` runs every workload BENCHMARK.json lists, one after the
other, and ends with one JSON object whose metric names are prefixed with
the workload name.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")


def fail(message, code=1):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures on first use, then builds incrementally."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("program sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    command = ["cmake", "--build", BUILD_DIR, "--target", "perfbench",
               "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return spec, {m["name"]: m["unit"] for m in spec[key]}


def run_one(args, declared):
    """Runs perfbench once, echoing its report; returns the result line
    and its parsed JSON."""
    proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail("perfbench exited with code %d" % proc.returncode,
             proc.returncode or 1)
    result = json.loads(lines[-1])
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    if reported != declared:
        fail("reported metrics %s do not match BENCHMARK.json %s"
             % (sorted(reported.items()), sorted(declared.items())))
    for line in lines[:-1]:
        print(line)
    return lines[-1], result


def option(args, flag, default):
    if flag in args[:-1]:
        return args[args.index(flag) + 1]
    return default


def main():
    args = sys.argv[1:]
    build()
    if subprocess.run([BINARY, "--self-test"]).returncode != 0:
        fail("self-tests failed")
    spec, declared = declared_metrics(option(args, "--trace", "0") == "1")
    if option(args, "--workload", "") != "all":
        print(run_one(args, declared)[0])
        return
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    index = args.index("--workload") + 1
    for workload in spec["workloads"]:
        args[index] = workload["name"]
        result = run_one(args, declared)[1]
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][workload["name"] + "." + name] = metric
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
