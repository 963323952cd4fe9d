#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/tests/test_perfbench.py

Builds the benchmark, runs its C++ unit tests (perfbench_test: the
generator's schedule is the repo's open-loop schedule, the tracing
decorator returns values unchanged, self time, one generator phase), checks
that perfbench_bin runs exactly the workloads BENCHMARK.json names, then
makes a short smoke run of every workload in both modes through run.py and
checks that each passes its output checks and prints exactly the metric
names BENCHMARK.json declares.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(PERFBENCH)
sys.path.insert(0, PERFBENCH)

import run  # noqa: E402  (perfbench/run.py)


def load(name):
    with open(name) as f:
        return json.load(f)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.bench = load(os.path.join(ROOT, "BENCHMARK.json"))
        cls.workloads = [w["name"] for w in cls.bench["workloads"]]

    def test_unit_tests_pass(self):
        binary = run.build("perfbench_test")
        self.assertIsNotNone(binary, "perfbench_test did not build")
        self.assertEqual(subprocess.run([binary]).returncode, 0)

    def test_binary_runs_exactly_the_declared_workloads(self):
        # perfbench_bin names the workloads it knows in its usage message.
        binary = run.build()
        self.assertIsNotNone(binary, "perfbench_bin did not build")
        proc = subprocess.run([binary, "--workload", "none", "--seed", "1", "--seconds", "1",
                               "--trace", "0"], stderr=subprocess.PIPE, text=True)
        self.assertEqual(proc.returncode, 2)
        known = [line for line in proc.stderr.splitlines() if line.startswith("known workloads:")]
        self.assertEqual(len(known), 1, proc.stderr)
        self.assertEqual(sorted(known[0].split(":", 1)[1].split()), sorted(self.workloads))

    def smoke(self, workload, trace):
        cmd = [sys.executable, os.path.join(PERFBENCH, "run.py"), "--workload", workload,
               "--seed", "3", "--seconds", "2", "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
        self.assertEqual(proc.returncode, 0, "%s --trace %d failed" % (workload, trace))
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        declared = self.bench["per_layer"] if trace else self.bench["end_to_end"]
        self.assertEqual(sorted(result["metrics"]), sorted(m["name"] for m in declared))
        for m in declared:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"], m["name"])
        return result

    def test_smoke_every_workload(self):
        for workload in self.workloads:
            with self.subTest(workload=workload):
                result = self.smoke(workload, 0)
                for name, metric in result["metrics"].items():
                    self.assertNotEqual(metric["value"], 0, name)
                self.smoke(workload, 1)


if __name__ == "__main__":
    unittest.main()
