#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at quick size, untraced and
traced, must pass its output checks and print every metric BENCHMARK.json
declares, with its unit.

Run from the repository root (builds gcbench on first use):

    python3 perfbench/test_smoke.py
"""
import json
import os
import subprocess
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace):
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", "13",
           "--seconds", "1", "--trace", str(trace), "--quick"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise AssertionError(f"{' '.join(cmd)} exited {done.returncode}:\n"
                             f"{done.stdout[-2000:]}\n{done.stderr[-2000:]}")
    return json.loads(lines[-1]), done.stdout


class Smoke(unittest.TestCase):
    def check(self, workload, trace):
        spec = declared()
        result, stdout = run(workload, trace)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], stdout[-2000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = spec["per_layer"] if trace else spec["end_to_end"]
        got = result["metrics"]
        self.assertEqual(sorted(got), sorted(m["name"] for m in wanted))
        for m in wanted:
            self.assertEqual(got[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(got[m["name"]]["value"], (int, float))
        if not trace:
            for m in wanted:
                self.assertGreater(got[m["name"]]["value"], 0, m["name"])
        if workload != "cp_serve":
            self.assertIn("fingerprint ", stdout)

    def test_workloads(self):
        names = [w["name"] for w in declared()["workloads"]]
        self.assertEqual(names, ["dcday_seq", "dcday_sinks", "fleet_sharded", "cp_serve"])
        for workload in names:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check(workload, trace)


if __name__ == "__main__":
    unittest.main()
