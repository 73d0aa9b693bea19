#!/usr/bin/env python3
"""The benchmark's own test: a smoke size of every workload, untraced and
traced, through the same code and with the oracle on.

    python3 servebench/test_smoke.py

Each run must exit 0, report the oracle self-test as passed (corrupted
covers caught), serve correct covers with no failed operation, and print
exactly the metrics BENCHMARK.json names for its mode.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class SmokeTest(unittest.TestCase):
    def run_smoke(self, workload, trace):
        proc = subprocess.run(
            [sys.executable, RUN, "--workload", workload, "--seed", "3",
             "--seconds", "1", "--trace", str(trace), "--smoke"],
            stdout=subprocess.PIPE, text=True, timeout=600)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertIn("# oracle self-test: every corrupted cover caught",
                      proc.stdout)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = spec()["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
        return result

    def test_workloads(self):
        for workload in [w["name"] for w in spec()["workloads"]]:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.run_smoke(workload, trace)


if __name__ == "__main__":
    unittest.main()
