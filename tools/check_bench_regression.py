#!/usr/bin/env python3
"""Gate host-time regressions between benchmark result files.

Reads two shapes; every file must have the same one.

- google-benchmark JSON exports (BENCH_interp.json, and the bench
  drivers' BENCH_warm_start/share/budget.json): compared
  benchmark-by-benchmark, failing when any benchmark present in both
  files got slower than --threshold percent (default 10).
- perfbench results, the last line `perfbench/run.py` prints
  (CI's BENCH_e2e-N.json): {"correct", "metrics": {name: {"value", "unit"}}},
  names optionally prefixed "<workload>." as `--workload all` does.
  Each side may hold several runs. Host times `wall_s` and `cpu_s` are
  compared as the median over each side's runs, and fail when the
  current median exceeds the baseline median by more than their
  end-to-end bound in BENCHMARK.json: one run on a shared host can land
  in a slow phase, the median of three rarely does.
  The deterministic simulated totals (sim_cycles, sim_opt_code_bytes,
  sim_compile_cycles) must be exactly equal in every file: a one-cycle
  change is a behaviour change, not noise. A current result that
  reports "correct": false fails.

Simulated-cycle behaviour is also pinned by goldens; this gate covers the
host time those goldens deliberately ignore.

Usage:
  tools/check_bench_regression.py BASELINE.json CURRENT.json [--threshold 10]
  tools/check_bench_regression.py --baseline B1.json [B2.json ...] \
      --current C1.json [C2.json ...]

Several files per side are accepted for perfbench results only. Missing
baseline files are skipped.

Exit status: 0 when no gated regression (or no usable baseline — a cold
cache must not fail CI), 1 when at least one gated metric regressed, 2 on
malformed input.

For google-benchmark files, throughput (items_per_second) is preferred
when both sides report it, falling back to real_time; aggregate rows
(mean/median/stddev) and error rows are skipped. Benchmarks or metrics
that exist on only one side are reported but never gate — adding or
retiring one is not a regression.
"""

import argparse
import json
import os
import statistics
import sys

SPEC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "BENCHMARK.json")

# perfbench metrics gated on host time, at their BENCHMARK.json bound.
HOST_GATED = ("wall_s", "cpu_s")
# perfbench metrics that must not move at all. sim_minstr_per_s is not
# here: it divides simulated work by host seconds.
EXACT = ("sim_cycles", "sim_opt_code_bytes", "sim_compile_cycles")


def fail_input(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def read_json(path, missing_ok=False):
    """Returns the parsed JSON object in path, or None when missing_ok and
    the file does not exist."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except FileNotFoundError:
        if missing_ok:
            return None
        fail_input(f"cannot read {path}: not found")
    except (OSError, ValueError) as e:
        fail_input(f"cannot read {path}: {e}")
    if not isinstance(doc, dict):
        fail_input(f"{path}: top-level JSON value is {type(doc).__name__}, "
                   f"expected an object with a 'benchmarks' array or a "
                   f"'metrics' object")
    return doc


def is_perfbench(doc):
    return "metrics" in doc


def is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def load_benchmarks(path, doc):
    """Returns {name: (items_per_second or None, real_time_ns)} from a
    google-benchmark export."""
    benchmarks = doc.get("benchmarks", [])
    if not isinstance(benchmarks, list):
        fail_input(f"{path}: 'benchmarks' is {type(benchmarks).__name__}, "
                   f"expected an array")
    out = {}
    for i, b in enumerate(benchmarks):
        if not isinstance(b, dict):
            fail_input(f"{path}: benchmarks[{i}] is {type(b).__name__}, "
                       f"expected an object")
        if b.get("run_type") == "aggregate" or "error_occurred" in b:
            continue
        name = b.get("name")
        real = b.get("real_time")
        if name is None or real is None:
            continue
        if not is_number(real):
            fail_input(f"{path}: benchmarks[{i}] ({name}): real_time is "
                       f"{real!r}, expected a number")
        ips = b.get("items_per_second")
        if ips is not None and not is_number(ips):
            fail_input(f"{path}: benchmarks[{i}] ({name}): items_per_second "
                       f"is {ips!r}, expected a number")
        unit = b.get("time_unit", "ns")
        scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}.get(unit)
        if scale is None:
            fail_input(f"{path}: unknown time_unit '{unit}'")
        out[name] = (ips, real * scale)
    return out


def load_metrics(path, doc):
    """Returns {name: value} from a perfbench result."""
    metrics = doc["metrics"]
    if not isinstance(metrics, dict):
        fail_input(f"{path}: 'metrics' is {type(metrics).__name__}, "
                   f"expected an object")
    out = {}
    for name, m in metrics.items():
        value = m.get("value") if isinstance(m, dict) else None
        if not is_number(value):
            fail_input(f"{path}: metric {name}: expected "
                       f"{{\"value\": <number>, \"unit\": ...}}, got {m!r}")
        out[name] = value
    return out


def end_to_end_bounds():
    """{metric: bound} for the host-time metrics, from BENCHMARK.json."""
    try:
        with open(SPEC) as f:
            spec = json.load(f)
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    except (OSError, ValueError, KeyError, TypeError) as e:
        fail_input(f"cannot read end-to-end bounds from {SPEC}: {e}")
    missing = [m for m in HOST_GATED if m not in bounds]
    if missing:
        fail_input(f"{SPEC} declares no bound for {', '.join(missing)}")
    return {m: bounds[m] for m in HOST_GATED}


def compare_benchmarks(base, cur, threshold):
    """Returns [(name, slowdown_pct)] for benchmarks slower than threshold."""
    regressions = []
    print(f"{'benchmark':<44} {'baseline':>12} {'current':>12} {'delta':>8}")
    for name in sorted(base):
        if name not in cur:
            print(f"{name:<44} {'(retired)':>12}")
            continue
        b_ips, b_ns = base[name]
        c_ips, c_ns = cur[name]
        if b_ns == 0 and not (b_ips and c_ips):
            # A zero baseline cannot gate a ratio; report, never fail.
            print(f"{name:<44} {'(zero baseline)':>12}")
            continue
        if b_ips and c_ips:
            # Higher is better; slowdown = throughput loss.
            slowdown_pct = (b_ips / c_ips - 1.0) * 100.0
            b_disp, c_disp = f"{b_ips:.3g}/s", f"{c_ips:.3g}/s"
        else:
            # Lower is better; slowdown = wall-time growth.
            slowdown_pct = (c_ns / b_ns - 1.0) * 100.0
            b_disp, c_disp = f"{b_ns:.3g}ns", f"{c_ns:.3g}ns"
        verdict = ""
        if slowdown_pct > threshold:
            regressions.append((name, f"{slowdown_pct:+.1f}%"))
            verdict = "  REGRESSED"
        print(f"{name:<44} {b_disp:>12} {c_disp:>12} "
              f"{slowdown_pct:>+7.1f}%{verdict}")
    for name in sorted(set(cur) - set(base)):
        print(f"{name:<44} {'(new)':>12}")
    return regressions


def compare_metrics(base_runs, cur_runs):
    """Returns [(name, why)] for gated perfbench metrics that regressed.
    Each argument is a list of {name: value}, one per run."""
    bounds = end_to_end_bounds()

    def medians(runs):
        names = {name for run in runs for name in run}
        return {name: statistics.median(run[name] for run in runs
                                        if name in run)
                for name in names}

    base, cur = medians(base_runs), medians(cur_runs)
    regressions = []
    print(f"{'metric (median)':<36} {'baseline':>14} {'current':>14} "
          f"{'delta':>8}")
    for name in sorted(base):
        metric = name.rsplit(".", 1)[-1]
        if name not in cur:
            print(f"{name:<36} {'(retired)':>14}")
            continue
        b, c = base[name], cur[name]
        delta = f"{(c / b - 1.0) * 100.0:>+7.1f}%" if b else f"{'':>8}"
        verdict = ""
        if metric in EXACT:
            values = sorted({run[name] for run in base_runs + cur_runs
                             if name in run})
            if len(values) > 1:
                regressions.append((name, "differs between runs: " +
                                    ", ".join(f"{v:.17g}" for v in values) +
                                    "; must be equal"))
                verdict = "  CHANGED"
        elif metric in HOST_GATED:
            bound = bounds[metric]
            if b > 0 and c > b * (1.0 + bound):
                regressions.append((name, f"{(c / b - 1.0) * 100.0:+.1f}% "
                                          f"(bound {bound * 100.0:g}%)"))
                verdict = "  REGRESSED"
        else:
            verdict = "  (not gated)"
        print(f"{name:<36} {b:>14.6g} {c:>14.6g} {delta}{verdict}")
    for name in sorted(set(cur) - set(base)):
        print(f"{name:<36} {'(new)':>14}")
    return regressions


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("pair", nargs="*", metavar="BASELINE CURRENT",
                   help="one baseline file and one current file")
    p.add_argument("--baseline", nargs="+", default=[],
                   help="baseline perfbench results (several runs)")
    p.add_argument("--current", nargs="+", default=[],
                   help="current perfbench results (several runs)")
    p.add_argument("--threshold", type=float, default=10.0,
                   help="percent slowdown that fails a google-benchmark "
                        "comparison (default 10); perfbench results use "
                        "the BENCHMARK.json bounds")
    args = p.parse_args()
    if args.pair and (args.baseline or args.current):
        p.error("give BASELINE CURRENT or --baseline/--current, not both")
    if args.pair:
        if len(args.pair) != 2:
            p.error("expected exactly two files: BASELINE CURRENT")
        base_paths, cur_paths = [args.pair[0]], [args.pair[1]]
    else:
        if not args.baseline or not args.current:
            p.error("--baseline and --current both need at least one file")
        base_paths, cur_paths = args.baseline, args.current

    cur_docs = [(path, read_json(path)) for path in cur_paths]
    base_docs = [(path, doc) for path in base_paths
                 if (doc := read_json(path, missing_ok=True)) is not None]
    perfbench = is_perfbench(cur_docs[0][1])
    for path, doc in base_docs + cur_docs:
        if is_perfbench(doc) != perfbench:
            fail_input(f"{path} and {cur_docs[0][0]} are not the same kind "
                       f"of result (google-benchmark vs perfbench)")
    if not perfbench and (len(base_paths) > 1 or len(cur_paths) > 1):
        fail_input("several files per side are read only for perfbench "
                   "results")

    load = load_metrics if perfbench else load_benchmarks
    cur_runs = [load(path, doc) for path, doc in cur_docs]
    base_runs = [run for run in (load(path, doc) for path, doc in base_docs)
                 if run]
    if not base_runs:
        # A cold baseline cache (first run on a branch) must not fail CI.
        print(f"no usable baseline at {', '.join(base_paths)}; "
              f"nothing to gate")
        return 0
    for (path, _), run in zip(cur_docs, cur_runs):
        if not run:
            fail_input(f"no benchmarks in {path}")

    if perfbench:
        regressions = compare_metrics(base_runs, cur_runs)
        for path, doc in cur_docs:
            if doc.get("correct") is False:
                regressions.append((path, "the current run reported a "
                                          "wrong result"))
        what = "perfbench metric(s) regressed"
    else:
        regressions = compare_benchmarks(base_runs[0], cur_runs[0],
                                         args.threshold)
        what = (f"benchmark(s) regressed more than {args.threshold:g}% in "
                f"host wall time")

    if regressions:
        print(f"\n{len(regressions)} {what}:", file=sys.stderr)
        for name, why in regressions:
            print(f"  {name}: {why}", file=sys.stderr)
        return 1
    print("\nok: no gated regression")
    return 0


if __name__ == "__main__":
    sys.exit(main())
