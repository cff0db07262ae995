#!/usr/bin/env python3
"""Shows that every gate of the benchmark can fail.

    python3 perfbench/test_gates.py      # from the repository root

Correctness gates: each run injects one defect (a wrong selection, a
flipped byte in a cache hit, a duplicate node in a warm group) and must
exit nonzero with "correct": false, while a clean run passes. The pure
check functions are also fed wrong inputs by the binary's --selftest.
Regression gate: sweep.compare must flag a metric whose median worsened
past its BENCHMARK.json bound, in either direction of "better", and
must not flag one that stayed within it.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import sweep  # noqa: E402


def bench(workload, seconds, inject=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", str(seconds), "--trace", "0"]
    if inject:
        cmd += ["--inject", inject]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    return proc.returncode, json.loads(proc.stdout.splitlines()[-1]), proc.stdout


class CorrectnessGates(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        os.chdir(ROOT)
        cls.binary = run.build()
        assert cls.binary, "build failed"

    def test_check_functions_trip_on_wrong_input(self):
        proc = subprocess.run([self.binary, "--selftest"], stdout=subprocess.PIPE,
                              text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertNotIn("FAILED", proc.stdout)

    def test_clean_run_passes(self):
        code, result, out = bench("dynamic_churn", 2)
        self.assertEqual(code, 0, out)
        self.assertTrue(result["correct"])

    def test_wrong_selection_trips(self):
        code, result, out = bench("solve_large", 1, "wrong_selection")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertIn("check forest_1t_equals_nproc FAILED", out)

    def test_hit_bytes_trip(self):
        code, result, out = bench("serve_mixed", 4, "hit_bytes")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertIn("check hit_bytes_equal_miss FAILED", out)

    def test_bad_warm_group_trips(self):
        code, result, out = bench("dynamic_churn", 2, "warm_group")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertIn("check warm_groups_well_formed FAILED", out)


def runs(workload, **metrics):
    """Five identical runs whose end-to-end metrics default to 100."""
    spec = sweep.load_spec()
    values = {m["name"]: {"value": metrics.get(m["name"], 100.0), "unit": m["unit"]}
              for m in spec["end_to_end"]}
    result = {"correct": True, "attempted": 1, "failed": 0, "metrics": values}
    return [{"workload": workload, "seed": s, "trace": 0, "result": result}
            for s in range(5)]


class RegressionGate(unittest.TestCase):
    def setUp(self):
        self.spec = sweep.load_spec()
        self.bounds = {m["name"]: m["bound"] for m in self.spec["end_to_end"]}

    def flagged(self, parent, change):
        return [(w, n) for w, n, *_ in sweep.regressions(parent, change, self.spec)]

    def test_worse_past_bound_is_flagged(self):
        slower = 100.0 * (1 + self.bounds["primary_ms"] + 0.02)
        self.assertEqual(self.flagged(runs("dynamic_churn"),
                                      runs("dynamic_churn", primary_ms=slower)),
                         [("dynamic_churn", "primary_ms")])

    def test_lower_quality_past_bound_is_flagged(self):
        lower = 100.0 * (1 - self.bounds["quality_ratio"] - 0.01)
        self.assertEqual(self.flagged(runs("solve_large"),
                                      runs("solve_large", quality_ratio=lower)),
                         [("solve_large", "quality_ratio")])

    def test_within_bound_or_better_passes(self):
        slightly = 100.0 * (1 + self.bounds["primary_ms"] / 2)
        self.assertEqual(self.flagged(runs("dynamic_churn"),
                                      runs("dynamic_churn", primary_ms=slightly,
                                           quality_ratio=120.0)), [])


if __name__ == "__main__":
    unittest.main(verbosity=2)
