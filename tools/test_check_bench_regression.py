#!/usr/bin/env python3
"""Tests of tools/check_bench_regression.py, run as a subprocess the way CI
runs it.

  python3 tools/test_check_bench_regression.py

The perfbench fixture is built from BENCHMARK.json: every end-to-end
metric of every workload, prefixed "<workload>." as
`perfbench/run.py --workload all` prints it.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
TOOL = os.path.join(HERE, "check_bench_regression.py")
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

# Plausible values; the gate only looks at ratios and equality.
SAMPLE = {"setup_s": 0.006, "wall_s": 1.8, "cpu_s": 7.0,
          "peak_rss_mb": 32.0, "step_p50_ms": 130.0, "step_p95_ms": 170.0,
          "sim_minstr_per_s": 550.0, "passed_frac": 1.0,
          "sim_cycles": 12977952474, "sim_opt_code_bytes": 1234567,
          "sim_compile_cycles": 98765432}


def perfbench_all():
    with open(SPEC) as f:
        spec = json.load(f)
    metrics = {}
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            metrics[w["name"] + "." + m["name"]] = {
                "value": SAMPLE[m["name"]], "unit": m["unit"]}
    return {"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}


def gbench(items_per_second):
    return {"benchmarks": [{"name": "BM_X", "run_type": "iteration",
                            "real_time": 1e9 / items_per_second,
                            "time_unit": "ns",
                            "items_per_second": items_per_second}]}


class CheckBenchRegressionTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.dir.cleanup()

    def write(self, name, doc):
        path = os.path.join(self.dir.name, name)
        with open(path, "w") as f:
            json.dump(doc, f)
        return path

    def gate(self, base, cur):
        args = [self.write("base.json", base) if base is not None
                else os.path.join(self.dir.name, "missing.json"),
                self.write("cur.json", cur)]
        proc = subprocess.run([sys.executable, TOOL, *args],
                              capture_output=True, text=True)
        return proc.returncode, proc.stdout + proc.stderr

    def gate_runs(self, base_runs, cur_runs):
        """Runs the gate with several result files per side."""
        args = ["--baseline"]
        args += [self.write(f"base{i}.json", doc)
                 for i, doc in enumerate(base_runs)]
        args += ["--current"]
        args += [self.write(f"cur{i}.json", doc)
                 for i, doc in enumerate(cur_runs)]
        proc = subprocess.run([sys.executable, TOOL, *args],
                              capture_output=True, text=True)
        return proc.returncode, proc.stdout + proc.stderr

    def perturbed(self, metric, scale=1.0, add=0):
        doc = copy.deepcopy(perfbench_all())
        m = doc["metrics"][metric]
        m["value"] = m["value"] * scale + add
        return doc

    def test_unchanged_perfbench_result_passes(self):
        code, out = self.gate(perfbench_all(), perfbench_all())
        self.assertEqual(code, 0, out)

    def test_wall_time_up_30_percent_fails(self):
        code, out = self.gate(perfbench_all(),
                              self.perturbed("paper-grid.wall_s", 1.3))
        self.assertEqual(code, 1, out)
        self.assertIn("paper-grid.wall_s", out)

    def test_cpu_time_up_30_percent_fails(self):
        code, out = self.gate(perfbench_all(),
                              self.perturbed("serve-mix.cpu_s", 1.3))
        self.assertEqual(code, 1, out)
        self.assertIn("serve-mix.cpu_s", out)

    def test_wall_time_within_bound_passes(self):
        code, out = self.gate(perfbench_all(),
                              self.perturbed("cache-churn.wall_s", 1.2))
        self.assertEqual(code, 0, out)

    def test_one_simulated_cycle_fails(self):
        code, out = self.gate(perfbench_all(),
                              self.perturbed("cache-churn.sim_cycles", add=1))
        self.assertEqual(code, 1, out)
        self.assertIn("cache-churn.sim_cycles", out)

    def test_simulated_totals_must_not_drop_either(self):
        code, out = self.gate(
            perfbench_all(),
            self.perturbed("paper-grid.sim_opt_code_bytes", add=-1))
        self.assertEqual(code, 1, out)

    def test_host_rate_and_memory_are_not_gated(self):
        cur = self.perturbed("paper-grid.sim_minstr_per_s", 0.5)
        cur["metrics"]["paper-grid.peak_rss_mb"]["value"] *= 2
        code, out = self.gate(perfbench_all(), cur)
        self.assertEqual(code, 0, out)

    def test_incorrect_current_run_fails(self):
        cur = perfbench_all()
        cur["correct"] = False
        code, out = self.gate(perfbench_all(), cur)
        self.assertEqual(code, 1, out)

    def test_single_workload_names_are_gated_too(self):
        base = {"correct": True, "metrics": {
            "wall_s": {"value": 2.0, "unit": "s"},
            "sim_cycles": {"value": 10, "unit": "cycles"}}}
        cur = copy.deepcopy(base)
        cur["metrics"]["wall_s"]["value"] = 2.6
        code, out = self.gate(base, cur)
        self.assertEqual(code, 1, out)

    def test_one_outlier_among_three_runs_passes(self):
        # One current run caught a slow host phase; the median did not.
        base = [perfbench_all()] * 3
        cur = [perfbench_all(), self.perturbed("paper-grid.wall_s", 1.6),
               self.perturbed("paper-grid.wall_s", 1.05)]
        code, out = self.gate_runs(base, cur)
        self.assertEqual(code, 0, out)

    def test_consistent_wall_time_up_30_percent_fails(self):
        base = [perfbench_all(), self.perturbed("serve-mix.wall_s", 0.95),
                self.perturbed("serve-mix.wall_s", 1.05)]
        cur = [self.perturbed("serve-mix.wall_s", 1.3)] * 3
        code, out = self.gate_runs(base, cur)
        self.assertEqual(code, 1, out)
        self.assertIn("serve-mix.wall_s", out)

    def test_simulated_totals_must_match_in_every_run(self):
        base = [perfbench_all()] * 3
        cur = [perfbench_all(), perfbench_all(),
               self.perturbed("cache-churn.sim_compile_cycles", add=1)]
        code, out = self.gate_runs(base, cur)
        self.assertEqual(code, 1, out)
        self.assertIn("cache-churn.sim_compile_cycles", out)

    def test_missing_baseline_runs_pass(self):
        missing = [os.path.join(self.dir.name, f"gone{i}.json")
                   for i in range(3)]
        cur = [self.write(f"cur{i}.json", perfbench_all()) for i in range(3)]
        proc = subprocess.run([sys.executable, TOOL, "--baseline", *missing,
                               "--current", *cur],
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_missing_baseline_passes(self):
        code, out = self.gate(None, perfbench_all())
        self.assertEqual(code, 0, out)

    def test_mixed_shapes_are_malformed(self):
        code, out = self.gate(gbench(1e6), perfbench_all())
        self.assertEqual(code, 2, out)

    def test_non_numeric_metric_is_malformed(self):
        cur = perfbench_all()
        cur["metrics"]["paper-grid.wall_s"]["value"] = "fast"
        code, out = self.gate(perfbench_all(), cur)
        self.assertEqual(code, 2, out)

    def test_google_benchmark_throughput_gate(self):
        self.assertEqual(self.gate(gbench(1e6), gbench(0.95e6))[0], 0)
        code, out = self.gate(gbench(1e6), gbench(0.8e6))
        self.assertEqual(code, 1, out)
        self.assertIn("BM_X", out)


if __name__ == "__main__":
    unittest.main()
