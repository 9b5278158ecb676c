#!/usr/bin/env python3
"""Tests of the benchmark itself, at toy scale (seconds, not minutes).

Run from the root of a checkout:  python3 perfbench/test_perfbench.py

Every workload runs with tracing off and on through run.py; each run must
pass every output check and print, as its last stdout line, the result
object with exactly the metrics BENCHMARK.json lists.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
    SPEC = json.load(spec_file)


def run(*args):
    return subprocess.run([sys.executable, RUN] + list(args), cwd=ROOT,
                          capture_output=True, text=True, timeout=600)


def result_of(completed):
    return json.loads(completed.stdout.strip().splitlines()[-1])


class ToyScaleTest(unittest.TestCase):
    def check(self, workload, trace, expected):
        completed = run("--workload", workload, "--seed", "7", "--seconds",
                        "1", "--trace", trace, "--scale", "toy")
        self.assertEqual(completed.returncode, 0, completed.stderr)
        result = result_of(completed)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(
            {name: metric["unit"] for name, metric in result["metrics"].items()},
            {metric["name"]: metric["unit"] for metric in expected})
        return result

    def test_end_to_end_metrics_are_nonzero(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload):
                result = self.check(workload, "0", SPEC["end_to_end"])
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)

    def test_traced_run_reports_every_layer_metric(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload):
                result = self.check(workload, "1", SPEC["per_layer"])
                metrics = result["metrics"]
                self.assertGreater(metrics["bench.spans_per_repetition"]["value"],
                                   0)

    def test_same_seed_repeats_exact_metrics(self):
        first = result_of(run("--workload", "serve_replay", "--seed", "3",
                              "--seconds", "1", "--trace", "0", "--scale",
                              "toy"))["metrics"]
        second = result_of(run("--workload", "serve_replay", "--seed", "3",
                               "--seconds", "1", "--trace", "0", "--scale",
                               "toy"))["metrics"]
        for name in ("effectiveness", "sla_attainment"):
            self.assertEqual(first[name], second[name])

    def test_bad_usage_exits_2(self):
        completed = run("--workload", "nope", "--seed", "1", "--seconds", "1",
                        "--trace", "0")
        self.assertEqual(completed.returncode, 2)


if __name__ == "__main__":
    unittest.main()
