#!/usr/bin/env python3
"""Tests of the end-to-end benchmark harness.

Run from the repository root (builds .bench_build/ on first use):

    python3 e2ebench/test_e2ebench.py

Every workload runs at --size tiny through the same harness the
benchmark uses, traced and untraced; the output digest must repeat
across runs and between traced and untraced runs; a forced digest
mismatch must fail the run; and the command must fail without a
result in a directory that lacks the library sources.
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
sys.path.insert(0, HERE)

import run  # noqa: E402  (the benchmark's build-and-run wrapper)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


class HarnessTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        out = os.path.join(ROOT, ".bench_out")
        os.makedirs(out, exist_ok=True)
        cls.tmp = tempfile.mkdtemp(prefix="test-", dir=out)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def bench(self, workload, trace, *extra, seed=5):
        proc = subprocess.run(
            [self.binary, "--workload", workload, "--seed", str(seed),
             "--seconds", "1", "--trace", str(trace), "--size", "tiny",
             "--out-dir", self.tmp, *extra],
            capture_output=True, text=True, timeout=120)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else None
        return proc.returncode, result, proc.stdout

    @staticmethod
    def digest(stdout):
        return [l for l in stdout.splitlines()
                if l.startswith("output digest:")][0]

    def test_every_workload_reports_every_metric(self):
        for workload in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    rc, result, out = self.bench(workload, trace)
                    self.assertEqual(rc, 0, out)
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    expected = {m["name"]: m["unit"] for m in SPEC[key]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    for name, m in result["metrics"].items():
                        self.assertIsInstance(m["value"], (int, float), name)
                    if trace == 0:
                        for name in expected:
                            self.assertGreater(
                                result["metrics"][name]["value"], 0, name)

    def test_outputs_repeat_exactly(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, first, out1 = self.bench(workload, 0)
                _, second, out2 = self.bench(workload, 0)
                _, _, traced = self.bench(workload, 1)
                self.assertEqual(self.digest(out1), self.digest(out2))
                self.assertEqual(self.digest(out1), self.digest(traced))
                for name in ("virtual_hours", "front_hv_log10"):
                    self.assertEqual(first["metrics"][name]["value"],
                                     second["metrics"][name]["value"])
                _, _, other = self.bench(workload, 0, seed=6)
                self.assertNotEqual(self.digest(out1), self.digest(other))

    def test_digest_mismatch_fails_the_run(self):
        for trace in (0, 1):
            with self.subTest(trace=trace):
                rc, result, out = self.bench(
                    "ascend-eval-bound", trace, "--inject-digest-mismatch")
                self.assertEqual(rc, 1)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertIn("output digest mismatch", out)

    def test_usage_errors_print_no_result(self):
        proc = subprocess.run([self.binary, "--workload", "nope"],
                              capture_output=True, text=True, timeout=30)
        self.assertEqual(proc.returncode, 2)
        self.assertEqual(proc.stdout, "")

    def test_fails_without_library_sources(self):
        bare = os.path.join(self.tmp, "bare")
        shutil.copytree(HERE, os.path.join(bare, "e2ebench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "e2ebench/run.py", "--workload", WORKLOADS[0],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
