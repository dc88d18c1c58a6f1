#!/usr/bin/env python3
"""Tests of perfbench/run.py. Run from the repository root:

    python3 perfbench/test_run.py

The last test builds the harness and runs the `serve` workload (a
warm-up and three iterations, under 10 s on a 2-core VM once built).
"""

import contextlib
import io
import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

DEFAULT_SEED = "1365785858"


def op(ok, *outputs, why=""):
    return {"ok": ok, "why": why, "outputs": [list(o) for o in outputs]}


class CheckOps(unittest.TestCase):
    def test_clean_run_has_no_failures(self):
        results = [{"ops": [op(True, ("csv:a.csv", "aa")), op(True, ("csv:b.csv", "bb"))]},
                   {"ops": [op(True, ("csv:a.csv", "aa"))]}]
        attempted, failed, _, seen = run.check_ops(results, {"csv:a.csv": "aa"})
        self.assertEqual((attempted, failed), (3, 0))
        self.assertEqual(seen, {"csv:a.csv": "aa", "csv:b.csv": "bb"})

    def test_corrupted_expected_digest_fails_every_op_with_that_output(self):
        results = [{"ops": [op(True, ("csv:a.csv", "aa")), op(True, ("csv:b.csv", "bb"))]},
                   {"ops": [op(True, ("csv:a.csv", "aa"))]}]
        attempted, failed, reasons, _ = run.check_ops(results, {"csv:a.csv": "a0"})
        self.assertEqual((attempted, failed), (3, 2))
        self.assertGreater(failed / attempted, 0)
        self.assertIn("recorded", reasons[0])

    def test_output_that_changes_within_a_run_fails(self):
        results = [{"ops": [op(True, ("ndjson:c00", "x"))]},
                   {"ops": [op(True, ("ndjson:c00", "y"))]}]
        _, failed, reasons, _ = run.check_ops(results, {})
        self.assertEqual(failed, 1)
        self.assertIn("earlier in the run", reasons[0])

    def test_op_the_harness_rejected_fails(self):
        _, failed, reasons, _ = run.check_ops([{"ops": [op(False, why="status 500")]}], {})
        self.assertEqual((failed, reasons), (1, ["status 500"]))

    def test_percentile_interpolates(self):
        self.assertEqual(run.percentile([1, 2, 3, 4, 5], 0.5), 3)
        self.assertAlmostEqual(run.percentile(list(range(11)), 0.9), 9.0)


class BenchmarkJson(unittest.TestCase):
    def test_lists_exactly_what_run_py_reports(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual(spec["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]), sorted(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], run.PER_LAYER)

    def test_expected_digests_cover_two_seeds_per_workload(self):
        table = json.loads(run.EXPECTED.read_text())
        for workload in run.WORKLOADS:
            self.assertIn(DEFAULT_SEED, table[workload])
            self.assertEqual(len(table[workload]), 2, workload)


class ServeEndToEnd(unittest.TestCase):
    def test_corrupted_expected_digest_raises_error_rate(self):
        expected = dict(json.loads(run.EXPECTED.read_text())["serve"][DEFAULT_SEED])
        key = "ndjson:c03"
        expected[key] = "0" * 64
        with contextlib.redirect_stdout(io.StringIO()):
            result, _ = run.measure(HERE.parent, "serve", int(DEFAULT_SEED), 1, False, expected)
        # c03's cold request, its disk replay and every replay of it fail.
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 2)
        self.assertGreater(result["failed"] / result["attempted"], 0)


if __name__ == "__main__":
    unittest.main()
