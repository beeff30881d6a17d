#!/usr/bin/env python3
"""Tests of the benchmark's own bookkeeping.

    python3 sigperf/test_sigperf.py          # from the repository root

The arithmetic inside the program (tail rule, medians, span self time) is
tested by `cargo test --manifest-path sigperf/Cargo.toml`.  These tests
cover the quartile spread of the steadiness report, the metric names, and
that the program prints exactly the metrics BENCHMARK.json lists.
"""

import json
import os
import re
import statistics
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import steadiness  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class SpreadTest(unittest.TestCase):
    def test_quartiles_follow_statistics_quantiles(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        med, q1, q3, s = steadiness.spread(values)
        # The exclusive method: positions (n + 1) / 4 and 3 (n + 1) / 4.
        self.assertEqual((q1, q3), (2.75, 8.25))
        self.assertEqual(med, 5.5)
        self.assertAlmostEqual(s, 5.5 / 5.5)

    def test_spread_ignores_order_and_one_outlier(self):
        values = [10.0] * 9 + [100.0]
        self.assertEqual(steadiness.spread(values)[3], 0.0)
        shuffled = [3.0, 1.0, 2.0, 5.0, 4.0]
        self.assertEqual(steadiness.spread(shuffled), steadiness.spread(sorted(shuffled)))
        self.assertEqual(steadiness.spread(shuffled)[1:3], tuple(statistics.quantiles(shuffled, n=4)[0::2]))


class CatalogTest(unittest.TestCase):
    def test_names_and_units_are_well_formed(self):
        bench = benchmark()
        names = [w["name"] for w in bench["workloads"]]
        for group in ("end_to_end", "per_layer"):
            names += [m["name"] for m in bench[group]]
            for m in bench[group]:
                self.assertRegex(m["unit"], UNIT)
                self.assertIn(m["better"], ("lower", "higher"))
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)), "a name is used twice")
        self.assertEqual([w["name"] for w in bench["workloads"]], run.WORKLOADS)

    def test_program_catalog_matches_benchmark_json(self):
        program = run.build()
        self.assertIsNotNone(program, "the benchmark builds")
        out = subprocess.run([program, "--list-metrics"], capture_output=True, text=True, check=True)
        catalog = json.loads(out.stdout)
        bench = benchmark()
        for group in ("end_to_end", "per_layer"):
            listed = [(m["name"], m["unit"], m["better"]) for m in bench[group]]
            printed = [(m["name"], m["unit"], m["better"]) for m in catalog[group]]
            self.assertEqual(listed, printed, group)


class ResultLineTest(unittest.TestCase):
    def result(self, trace):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", "analytic-spectrum",
             "--seed", "5", "--seconds", "1", "--trace", str(trace)],
            capture_output=True, text=True, cwd=ROOT)
        self.assertEqual(out.returncode, 0, out.stderr)
        return json.loads(out.stdout.strip().splitlines()[-1])

    def check(self, trace, group):
        result = self.result(trace)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        listed = {m["name"]: m["unit"] for m in benchmark()[group]}
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(printed, listed)

    def test_untraced_run_prints_every_end_to_end_metric_and_no_other(self):
        self.check(0, "end_to_end")

    def test_traced_run_prints_every_per_layer_metric_and_no_other(self):
        self.check(1, "per_layer")


if __name__ == "__main__":
    unittest.main()
