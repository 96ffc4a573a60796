#!/usr/bin/env python3
"""Tests of the benchmark itself, on quick (1/8-scale) workload shapes.

    python3 perfbench/test_perfbench.py

ssr_perfbench --selftest checks, per workload: the same seed gives the same
digest; stepping through advance_to gives the digest of one run_scenario /
run_open_scenario call; the traced run's digest equals the untraced one; the
tracer's own bookkeeping agrees with the engine.  The cases below add the
checks that need separate processes.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("trace_10k_ssr", "open_tenants", "chaos_replay")
# Metrics that are host measurements; every other metric is a simulated
# value or a count and must repeat exactly for the same seed.
HOST_METRICS = {"tasks_per_s", "step_p50_ms", "step_p99_ms", "setup_s",
                "peak_rss_mb", "trace.overhead_ratio"}


def is_host(name):
    return (name in HOST_METRICS or name.endswith("_s")
            or name.endswith(".s") or name.endswith("_per_s"))


def bench(workload, trace, seed=5, cwd=ROOT, runner=RUN):
    cmd = [sys.executable, runner, "--workload", workload, "--seed",
           str(seed), "--seconds", "1", "--trace", str(trace), "--scale", "8"]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class PerfbenchTest(unittest.TestCase):
    def test_selftest(self):
        proc = subprocess.run([sys.executable, RUN, "--selftest"], cwd=ROOT,
                              capture_output=True, text=True, timeout=900)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("selftest passed", proc.stdout)

    def test_counts_and_simulated_metrics_repeat(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    a = result(bench(workload, trace))
                    b = result(bench(workload, trace))
                    for r in (a, b):
                        self.assertTrue(r["correct"])
                        self.assertEqual(r["failed"], 0)
                        self.assertGreaterEqual(r["attempted"], 1)
                    self.assertEqual(a["metrics"].keys(), b["metrics"].keys())
                    for name, metric in a["metrics"].items():
                        if not is_host(name):
                            self.assertEqual(metric, b["metrics"][name], name)

    def test_metric_names_match_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        end_to_end = {m["name"] for m in spec["end_to_end"]}
        per_layer = {m["name"] for m in spec["per_layer"]}
        self.assertLessEqual({w["name"] for w in spec["workloads"]},
                             set(WORKLOADS))
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(
                    set(result(bench(workload, 0))["metrics"]), end_to_end)
                self.assertEqual(
                    set(result(bench(workload, 1))["metrics"]), per_layer)

    def test_fails_without_the_simulator_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            proc = bench("open_tenants", 0, cwd=tmp,
                         runner=os.path.join(tmp, "perfbench", "run.py"))
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
