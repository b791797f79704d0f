#!/usr/bin/env python3
"""Tests of the repository benchmark: every workload runs in --tiny mode,
traced and untraced, and must print a well-formed result line whose metrics
match BENCHMARK.json.  Run from the repository root:

    python3 perfbench/test_perfbench.py
"""
import json
import math
import pathlib
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, *extra, cwd=ROOT, script=HERE / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)


class TinyWorkloads(unittest.TestCase):
    def check_result(self, proc, catalogue):
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertIsInstance(result["attempted"], int)
        self.assertIsInstance(result["failed"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(list(result["metrics"]), [m["name"] for m in catalogue])
        for spec in catalogue:
            metric = result["metrics"][spec["name"]]
            self.assertEqual(metric["unit"], spec["unit"], spec["name"])
            self.assertTrue(math.isfinite(metric["value"]), spec["name"])
        return result

    def test_end_to_end_runs(self):
        for workload in [w["name"] for w in SPEC["workloads"]]:
            with self.subTest(workload=workload):
                result = self.check_result(run(workload, 0, "--tiny"), SPEC["end_to_end"])
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0.0, name)

    def test_traced_runs(self):
        for workload in [w["name"] for w in SPEC["workloads"]]:
            with self.subTest(workload=workload):
                result = self.check_result(run(workload, 1, "--tiny"), SPEC["per_layer"])
                # Layer spans cover nearly all of the measured busy time.
                self.assertGreaterEqual(result["metrics"]["trace.coverage"]["value"], 0.9)

    def test_rejects_bad_arguments(self):
        proc = run("no_such_workload", 0, "--tiny")
        self.assertNotEqual(proc.returncode, 0)

    def test_fails_without_the_program_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, pathlib.Path(tmp) / HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run("train", 0, "--tiny", cwd=tmp,
                       script=pathlib.Path(tmp) / HERE.name / "run.py")
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
