#!/usr/bin/env python3
"""Tests of the benchmark harness. Run from the repository root:

    python3 perfbench/test_run.py

Builds the benchmark binary (as run.py does) and runs it on short inputs.
"""

import json
import os
import sys
import time
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class MetricTable(unittest.TestCase):
    def test_every_metric_has_a_valid_name_and_a_unit(self):
        spec, table = run.load_metric_table()
        names = [m["name"] for kind in ("end_to_end", "per_layer") for m in spec[kind]]
        self.assertEqual(len(names), len(set(names)), "metric names must be unique")
        for kind in ("end_to_end", "per_layer"):
            for name, unit in table[kind].items():
                self.assertRegex(name, r"^[A-Za-z0-9_.-]+$")
                self.assertRegex(unit, r"^[A-Za-z0-9_/%.-]{1,16}$", name)
        self.assertIn("setup_s", table["end_to_end"])

    def test_quartiles_match_statistics_module(self):
        self.assertEqual(run.quartiles([2.0]), (2.0, 2.0))
        self.assertEqual(run.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]), (1.5, 4.5))


class Binary(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build("")

    def child(self, *argv):
        rec, _, err = run.run_child([self.binary, *argv], time.monotonic() + 120)
        self.assertIsNone(err)
        return rec

    def test_trace_emits_exactly_the_per_layer_metrics(self):
        _, table = run.load_metric_table()
        rec = self.child("trace", "--workload", "large_1shard", "--seed", "3", "--order", "U")
        self.assertEqual(rec["mismatch"], "")
        self.assertEqual(set(rec["layers"]), set(table["per_layer"]))
        self.assertGreaterEqual(rec["layers"]["scenario.attributed_pct"], 75.0)

    def test_a_different_seed_changes_the_simulated_metrics(self):
        keys = ("success_rate", "mean_latency_s", "overhead_tx", "digest")
        a = self.child("run", "--workload", "paper_sweep", "--seed", "1")
        b = self.child("run", "--workload", "paper_sweep", "--seed", "2")
        again = self.child("run", "--workload", "paper_sweep", "--seed", "1")
        self.assertEqual([a[k] for k in keys], [again[k] for k in keys])
        for k in keys:
            self.assertNotEqual(a[k], b[k], k)

    def test_bad_arguments_fail_without_output(self):
        argv = [self.binary, "run", "--workload", "nope", "--seed", "1"]
        rec, _, err = run.run_child(argv, time.monotonic() + 120)
        self.assertIsNone(rec)
        self.assertIn("unknown workload", err)


if __name__ == "__main__":
    if not os.path.isfile(run.BENCH_JSON):
        sys.exit(f"run from the repository root (no {run.BENCH_JSON} here)")
    unittest.main()
