#!/usr/bin/env python3
"""Tests for tools/run_diff.py on two small per-request CSVs."""

import os
import subprocess
import sys
import tempfile
import unittest

TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tools", "run_diff.py")
HEADER = ("request_id,arrival_ms,first_token_ms,completion_ms,prefill_len,decode_len,"
          "ttft_ms,tpot_ms,jct_ms\n")
ROWS = [
    "1,0,50,250,512,20,50,10,250\n",
    "2,10,70,300,512,20,60,11.5,290\n",
    "3,20,90,420,1024,30,70,11,400\n",
]


class RunDiffTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.dir.cleanup()

    def write(self, name, rows):
        path = os.path.join(self.dir.name, name)
        with open(path, "w") as f:
            f.write(HEADER + "".join(rows))
        return path

    def run_tool(self, *args):
        return subprocess.run([sys.executable, TOOL, *args], capture_output=True, text=True)

    def test_identical_runs_exit_zero(self):
        a = self.write("a.csv", ROWS)
        b = self.write("b.csv", list(reversed(ROWS)))  # row order does not matter
        result = self.run_tool(a, b)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertIn("termination differs: 0", result.stdout)
        for metric in ("ttft_ms", "tpot_ms", "jct_ms"):
            self.assertIn(f"{metric}: 0 changed", result.stdout)
        self.assertTrue(result.stdout.endswith("identical\n"))

    def test_one_changed_request_is_reported(self):
        a = self.write("a.csv", ROWS)
        changed = list(ROWS)
        changed[1] = "2,10,75,310,512,20,65,11.5,300\n"  # TTFT +5, JCT +10, TPOT same
        b = self.write("b.csv", changed)
        result = self.run_tool(a, b)
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        out = result.stdout
        self.assertIn("termination differs: 0", out)
        self.assertIn("ttft_ms: 1 changed, delta median +5.0000 p99 +5.0000", out)
        self.assertIn("  request 2: 60.0000 -> 65.0000 (+5.0000)", out)
        self.assertIn("tpot_ms: 0 changed", out)
        self.assertIn("jct_ms: 1 changed, delta median +10.0000 p99 +10.0000", out)
        self.assertIn("first divergent request by arrival: 2 (arrival 10.000 ms)", out)
        self.assertTrue(out.endswith("different\n"))

    def test_termination_and_first_divergence_by_arrival(self):
        a = self.write("a.csv", ROWS)
        # Request 3 no longer completes; request 1's tpot moves; by arrival,
        # request 1 is the first to diverge.
        b = self.write("b.csv", ["1,0,50,250,512,20,50,10.25,250\n", ROWS[1]])
        result = self.run_tool(a, b, "--worst=1")
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn("termination differs: 1", result.stdout)
        self.assertIn(f"request 3: completed only in {a}", result.stdout)
        self.assertIn("tpot_ms: 1 changed", result.stdout)
        self.assertIn("first divergent request by arrival: 1 (arrival 0.000 ms)", result.stdout)

    def test_bad_input_exits_two(self):
        a = self.write("a.csv", ROWS)
        bad = os.path.join(self.dir.name, "bad.csv")
        with open(bad, "w") as f:
            f.write("request_id,ttft_ms\n1,5\n")
        self.assertEqual(self.run_tool(a, bad).returncode, 2)
        self.assertEqual(self.run_tool(a, os.path.join(self.dir.name, "absent.csv")).returncode, 2)
        self.assertEqual(self.run_tool(a).returncode, 2)


if __name__ == "__main__":
    unittest.main()
