#!/usr/bin/env python3
"""The benchmark's own checks, on short runs of every workload.

Run from the root of the repository (about three minutes):

    python3 perfbench/test_run.py

For each workload, at a 2-step length (3 for the two-rank workload, so a
restart file is written and read back), it asserts that:

* every metric BENCHMARK.json names is emitted, with its unit, and no
  other;
* the traced run reproduces the untraced end state bitwise (the run
  reports correct, and the traced and untraced digests are equal);
* count metrics repeat exactly across two traced runs.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STEPS = {"conus_v1": 2, "supercell_v3_2rank": 3}


def bench(workload, trace, seed=3):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace), "--steps", str(STEPS[workload])]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        cls.end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        cls.per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
        cls.workloads = [w["name"] for w in spec["workloads"]]

    def test_workloads_match_the_spec(self):
        self.assertEqual(sorted(self.workloads), sorted(STEPS))

    def check_run(self, workload):
        report, result = bench(workload, 0)
        self.assertTrue(result["correct"], report["failures"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 3)
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, self.end_to_end)
        for name, m in report["metrics"].items():
            self.assertIn(m["tag"], ("measured", "computed"), name)
        for name in ("host.nproc", "host.effective_cores", "host.triad_gbs"):
            self.assertIn(name, report["host"])

        traced = []
        for _ in range(2):
            report, result = bench(workload, 1)
            self.assertTrue(result["correct"], report["failures"])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            self.assertEqual(got, self.per_layer)
            traced.append(report)
        counts = [{k: v["value"] for k, v in r["metrics"].items()
                   if v["unit"] in ("count", "B") and not k.startswith("host.")}
                  for r in traced]
        self.assertEqual(counts[0], counts[1])
        self.assertEqual(traced[0]["digests"], traced[1]["digests"])
        if workload == "supercell_v3_2rank":
            m = traced[0]["metrics"]
            self.assertGreater(m["mpi.msgs"]["value"], 0)
            self.assertGreater(m["cases.restart_files"]["value"], 0)
            self.assertGreater(m["exec.epochs"]["value"], 0)

    def test_conus_v1(self):
        self.check_run("conus_v1")

    def test_supercell_v3_2rank(self):
        self.check_run("supercell_v3_2rank")


if __name__ == "__main__":
    unittest.main()
