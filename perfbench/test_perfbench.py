#!/usr/bin/env python3
"""Tests of the repository benchmark.

    python3 perfbench/test_perfbench.py

- every workload prints exactly the metrics and units BENCHMARK.json
  declares, end-to-end ones untraced and per-layer ones traced;
- deterministic results (cycles, checksums, digests) repeat exactly
  across two runs, traced and untraced, and across SIMTSR_THREADS=1
  versus the default thread count;
- a wrong answer fails the run: exit code 1 and "correct": false;
- the seed-2020 pdom rows of expected/table2-seed2020.txt equal
  BENCH_baseline.json.
"""

import json
import os
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 5


def run(workload, trace=0, seconds=1, threads=None, inject=False):
    """Runs one workload; returns (exit code, deterministic lines, result)."""
    env = dict(os.environ)
    env.pop("SIMTSR_THREADS", None)
    if threads is not None:
        env["SIMTSR_THREADS"] = str(threads)
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(seconds), "--trace",
           str(trace)]
    if inject:
        cmd.append("--inject-wrong-answer")
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    lines = done.stdout.strip().split("\n")
    deterministic = [l for l in lines if l.startswith("deterministic ")]
    return done.returncode, deterministic, json.loads(lines[-1])


class WorkloadTest:
    """Mixed into one TestCase per workload."""

    workload = None

    @classmethod
    def setUpClass(cls):
        cls.plain = run(cls.workload)
        cls.traced = run(cls.workload, trace=1, seconds=2)
        cls.serial = run(cls.workload, threads=1)

    def check_metrics(self, result, declared):
        self.assertEqual(
            {k: v["unit"] for k, v in result["metrics"].items()},
            {m["name"]: m["unit"] for m in declared})
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)

    def test_end_to_end_metrics(self):
        code, _, result = self.plain
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        self.check_metrics(result, SPEC["end_to_end"])
        for name, metric in result["metrics"].items():
            self.assertGreater(metric["value"], 0, name)

    def test_per_layer_metrics(self):
        code, _, result = self.traced
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.check_metrics(result, SPEC["per_layer"])

    def test_deterministic_fields_repeat(self):
        plain = self.plain[1]
        self.assertTrue(plain)
        self.assertEqual(plain, self.traced[1])
        self.assertEqual(plain, self.serial[1])

    def test_wrong_answer_fails(self):
        code, _, result = run(self.workload, inject=True)
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)


class Table2SimTest(WorkloadTest, unittest.TestCase):
    workload = "table2-sim"

    def test_expected_pdom_rows_match_baseline(self):
        baseline = json.loads((ROOT / "BENCH_baseline.json").read_text())
        self.assertEqual((baseline["seed"], baseline["warps"]), (2020, 8))
        rows = {}
        expected = HERE / "expected" / "table2-seed2020.txt"
        for line in expected.read_text().splitlines():
            if not line.startswith("#"):
                name, config, *values = line.split()
                rows[name, config] = values
        for w in baseline["workloads"]:
            self.assertEqual(
                rows[w["name"], "pdom"],
                [str(w["cycles"]), str(w["issue_slots"]),
                 "%.6f" % w["simt_efficiency"], w["checksum"]], w["name"])


class KernelgenCompileTest(WorkloadTest, unittest.TestCase):
    workload = "kernelgen-compile"


class ServeZipfTest(WorkloadTest, unittest.TestCase):
    workload = "serve-zipf"


if __name__ == "__main__":
    unittest.main()
