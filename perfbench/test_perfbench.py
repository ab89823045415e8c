#!/usr/bin/env python3
"""Self-tests of the perfbench benchmark, on tiny traces (about a minute).

    python3 perfbench/test_perfbench.py

Checks that a seed's simulated outputs repeat exactly (traced or not), that
every replay conserves requests, that metric names and units follow the
benchmark grammar and match BENCHMARK.json, and that run.py's last line
has the documented format.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run as perfbench  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SCALE = 0.05  # 5% of each workload's arrival window
TIMEOUT = 120


class ReplayTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = perfbench.build()

    def replay(self, workload, seed, traced=False):
        return perfbench.replay(self.binary, workload, seed, traced, SCALE, TIMEOUT)

    def test_same_seed_repeats_exactly(self):
        for workload in perfbench.PARTS:
            with self.subTest(workload=workload):
                first = self.replay(workload, 7)
                again = self.replay(workload, 7)
                traced = self.replay(workload, 7, traced=True)
                for key in perfbench.EXACT_KEYS:
                    self.assertEqual(first[key], again[key], key)
                    self.assertEqual(first[key], traced[key], key)

    def test_other_seed_other_outputs(self):
        for workload in perfbench.PARTS:
            with self.subTest(workload=workload):
                self.assertNotEqual(self.replay(workload, 1)["fingerprint"],
                                    self.replay(workload, 2)["fingerprint"])

    def test_conservation(self):
        for workload in perfbench.PARTS:
            with self.subTest(workload=workload):
                r = self.replay(workload, 3)
                self.assertEqual(r["check_errors"], "")
                self.assertGreater(r["submitted"], 0)
                self.assertEqual(r["completed"] + r["errored"] + r["rejected"]
                                 + r["unterminated"], r["submitted"])

    def test_replay_reports_every_metric(self):
        r = self.replay("pd_codegen_kv", 4, traced=True)
        for name, _ in perfbench.END_TO_END + perfbench.PER_LAYER:
            if name in perfbench.DERIVED:
                self.assertGreater(perfbench.DERIVED[name](r), 0, name)
            elif name != "trace.overhead":
                self.assertIn(name, r)
                self.assertIsInstance(r[name], (int, float), name)

    def test_run_output_format(self):
        for trace, table in ((0, perfbench.END_TO_END), (1, perfbench.PER_LAYER)):
            with self.subTest(trace=trace):
                proc = subprocess.run(
                    [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                     "frontend_chaos", "--seed", "5", "--seconds", "1", "--trace",
                     str(trace), "--scale", str(SCALE)],
                    stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                    timeout=TIMEOUT, check=True)
                out = json.loads(proc.stdout.strip().splitlines()[-1])
                self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
                self.assertIs(out["correct"], True)
                self.assertGreaterEqual(out["attempted"], 1)
                self.assertEqual(out["failed"], 0)
                self.assertEqual(list(out["metrics"]), [name for name, _ in table])
                for name, unit in table:
                    self.assertEqual(out["metrics"][name]["unit"], unit)


class MetricNameTest(unittest.TestCase):
    def test_grammar(self):
        names = [name for name, _ in perfbench.END_TO_END + perfbench.PER_LAYER]
        self.assertEqual(len(names), len(set(names)))
        for name, unit in perfbench.END_TO_END + perfbench.PER_LAYER:
            self.assertRegex(name, NAME)
            self.assertRegex(unit, UNIT)
        for workload in perfbench.PARTS:
            self.assertRegex(workload, NAME)
            self.assertLess(perfbench.PARTS[workload], perfbench.SEED_STRIDE)

    def test_matches_benchmark_json(self):
        path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
        if not os.path.exists(path):
            self.skipTest("no BENCHMARK.json next to perfbench/")
        with open(path) as f:
            spec = json.load(f)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         perfbench.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         perfbench.PER_LAYER)
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]),
                         sorted(perfbench.PARTS))
        self.assertIn("setup_s", [m["name"] for m in spec["end_to_end"]])


if __name__ == "__main__":
    unittest.main()
